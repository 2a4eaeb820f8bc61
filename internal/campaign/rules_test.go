package campaign_test

import (
	"context"
	"testing"
	"time"

	"frostlab/internal/campaign"
	"frostlab/internal/core"
	"frostlab/internal/rules"
)

// TestAlertTimelineDeterministicAcrossWorkers extends the campaign's
// byte-determinism guarantee to the rules engine: the pooled incident
// digest (a hash over every replicate's timeline digest in replicate
// order) must not depend on worker parallelism.
func TestAlertTimelineDeterministicAcrossWorkers(t *testing.T) {
	set := rules.MustParse(`alert deep_cold value($outside_temp) < 5 for 1h severity page
alert cov value($coverage) < 0.5 for 1h
record out_copy value($outside_temp)
`)
	spec := func(workers int) campaign.Spec {
		return campaign.Spec{
			Seed:    "alerts-determinism",
			Reps:    4,
			Workers: workers,
			Days:    2,
			Sweep:   campaign.Sweep{FleetPairs: []int{2}},
			Mutate: func(rep int, cfg *core.Config) {
				cfg.MonitorEvery = 20 * time.Minute
				cfg.Rules = set
			},
		}
	}
	var digests []string
	var incidents []int
	for _, workers := range []int{1, 8} {
		sum, err := campaign.Run(context.Background(), spec(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if sum.Completed != 4 || sum.Failed != 0 {
			t.Fatalf("workers=%d: completed %d failed %d", workers, sum.Completed, sum.Failed)
		}
		if len(sum.Points) != 1 {
			t.Fatalf("workers=%d: %d points", workers, len(sum.Points))
		}
		pt := sum.Points[0]
		if pt.AlertDigest == "" {
			t.Fatalf("workers=%d: no alert digest pooled", workers)
		}
		// The Helsinki winter guarantees deep_cold fires in every
		// replicate.
		if pt.AlertIncidents < 4 {
			t.Fatalf("workers=%d: pooled incidents %d < reps", workers, pt.AlertIncidents)
		}
		digests = append(digests, pt.AlertDigest)
		incidents = append(incidents, pt.AlertIncidents)
	}
	if digests[0] != digests[1] || incidents[0] != incidents[1] {
		t.Fatalf("alert aggregates differ across parallelism: %v %v", digests, incidents)
	}
}
