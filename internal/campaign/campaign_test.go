package campaign_test

import (
	"context"
	"crypto/md5"
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"frostlab/internal/campaign"
	"frostlab/internal/core"
	"frostlab/internal/report"
	"frostlab/internal/simkernel"
)

// fastSpec is a campaign small enough for unit tests: two-day horizon,
// two tent/basement pairs, monitoring off.
func fastSpec(seed string, reps, workers int) campaign.Spec {
	return campaign.Spec{
		Seed:    seed,
		Reps:    reps,
		Workers: workers,
		Days:    2,
		Sweep:   campaign.Sweep{FleetPairs: []int{2}},
	}
}

// TestDeterminismAcrossWorkers is the campaign's core guarantee: a fixed
// seed produces byte-identical pooled aggregates whether the replicates
// run on one worker or race across eight.
func TestDeterminismAcrossWorkers(t *testing.T) {
	var renders []string
	for _, workers := range []int{1, 8} {
		sum, err := campaign.Run(context.Background(), fastSpec("determinism", 6, workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if sum.Completed != 6 || sum.Failed != 0 {
			t.Fatalf("workers=%d: completed %d failed %d, want 6/0", workers, sum.Completed, sum.Failed)
		}
		renders = append(renders, report.Campaign(sum))
	}
	if renders[0] != renders[1] {
		t.Errorf("pooled aggregates differ between -workers 1 and -workers 8:\n--- workers=1\n%s\n--- workers=8\n%s",
			renders[0], renders[1])
	}
}

// TestCampaignReportGolden pins the rendered report of a small
// multi-point sweep (climate x fleet x modifications), so every pooled
// statistic, envelope and label stays byte-identical across refactors
// of the aggregation path.
func TestCampaignReportGolden(t *testing.T) {
	const want = "1835cc5a1d6758545b8e72846580e5f4"
	spec := campaign.Spec{
		Seed:    "golden",
		Reps:    3,
		Workers: 2,
		Days:    2,
		Sweep: campaign.Sweep{
			Climates:   []string{"", "sodankyla"},
			FleetPairs: []int{1, 2},
			Mods:       []bool{true, false},
		},
	}
	sum, err := campaign.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Completed != 24 || sum.Failed != 0 {
		t.Fatalf("completed %d failed %d, want 24/0", sum.Completed, sum.Failed)
	}
	digest := md5.Sum([]byte(report.Campaign(sum)))
	if got := hex.EncodeToString(digest[:]); got != want {
		t.Fatalf("campaign report md5 %s, want %s", got, want)
	}
}

// TestReplicatesVary guards against the opposite failure: replicates must
// be *different* sample paths, not one run repeated N times.
func TestReplicatesVary(t *testing.T) {
	spec := fastSpec("variation", 4, 2)
	seen := make(map[string]bool)
	spec.Progress = func(done, total int, rs campaign.RunSummary) {
		seen[rs.Seed] = true
	}
	sum, err := campaign.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 4 {
		t.Errorf("distinct replicate seeds %d, want 4", len(seen))
	}
	if sum.TotalRuns != 4 {
		t.Errorf("total runs %d, want 4", sum.TotalRuns)
	}
}

// TestCheckpointResume interrupts a campaign after a partial first pass and
// verifies the second pass restores the finished replicates instead of
// re-running them.
func TestCheckpointResume(t *testing.T) {
	dir := t.TempDir()

	// First pass: a smaller campaign populates the checkpoint directory.
	spec := fastSpec("resume", 2, 2)
	spec.CheckpointDir = dir
	sum, err := campaign.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Completed != 2 || sum.Checkpoint != 0 {
		t.Fatalf("first pass: completed %d checkpoint %d, want 2/0", sum.Completed, sum.Checkpoint)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(files) != 2 {
		t.Fatalf("checkpoint files %v (err %v), want 2", files, err)
	}

	// Second pass: same campaign, doubled replicate count. The first two
	// replicates must come from checkpoints; only the new ones run.
	spec = fastSpec("resume", 4, 2)
	spec.CheckpointDir = dir
	var fresh int
	spec.Progress = func(done, total int, rs campaign.RunSummary) {
		if !rs.FromCheckpoint {
			fresh++
		}
	}
	sum, err = campaign.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Completed != 4 || sum.Checkpoint != 2 {
		t.Errorf("second pass: completed %d checkpoint %d, want 4/2", sum.Completed, sum.Checkpoint)
	}
	if fresh != 2 {
		t.Errorf("fresh runs %d, want 2", fresh)
	}

	// A truncated checkpoint must be re-run, not trusted.
	if err := os.WriteFile(files[0], []byte("{\"version\":"), 0o644); err != nil {
		t.Fatal(err)
	}
	sum, err = campaign.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Completed != 4 || sum.Checkpoint != 3 {
		t.Errorf("after corruption: completed %d checkpoint %d, want 4/3", sum.Completed, sum.Checkpoint)
	}
}

// TestCheckpointRejectsOtherRun shares one checkpoint directory between
// campaigns that differ in seed, then in horizon: a checkpoint written by
// a different run must be re-run, never relabelled and pooled.
func TestCheckpointRejectsOtherRun(t *testing.T) {
	dir := t.TempDir()
	run := func(spec campaign.Spec) *campaign.Summary {
		t.Helper()
		spec.CheckpointDir = dir
		sum, err := campaign.Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if sum.Completed != 2 {
			t.Fatalf("seed %s days %d: completed %d, want 2", spec.Seed, spec.Days, sum.Completed)
		}
		return sum
	}
	run(fastSpec("seed-a", 2, 2))
	if n := run(fastSpec("seed-b", 2, 2)).Checkpoint; n != 0 {
		t.Errorf("seed-b restored %d replicates written by seed-a, want 0", n)
	}
	longer := fastSpec("seed-b", 2, 2)
	longer.Days = 3
	if n := run(longer).Checkpoint; n != 0 {
		t.Errorf("3-day rerun restored %d 2-day replicates, want 0", n)
	}
	if n := run(longer).Checkpoint; n != 2 {
		t.Errorf("identical rerun restored %d replicates, want 2", n)
	}
}

// TestCheckpointWriteFailuresCounted points the checkpoint directory at a
// regular file, so every replicate's write fails. The failures are
// counted, and the pooled statistics and the report are those of a run
// without checkpoints, plus the one line that reports the count.
func TestCheckpointWriteFailuresCounted(t *testing.T) {
	const reps = 3
	notDir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	spec := fastSpec("checkpoint-fail", reps, 2)
	spec.CheckpointDir = notDir
	var failed int
	spec.Progress = func(done, total int, rs campaign.RunSummary) {
		if rs.CheckpointErr != "" {
			failed++
		}
	}
	sum, err := campaign.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Completed != reps || sum.CheckpointFailed != reps || failed != reps {
		t.Fatalf("completed %d, checkpoint failures %d (progress saw %d), want %d each",
			sum.Completed, sum.CheckpointFailed, failed, reps)
	}

	base, err := campaign.Run(context.Background(), fastSpec("checkpoint-fail", reps, 2))
	if err != nil {
		t.Fatal(err)
	}
	if base.CheckpointFailed != 0 {
		t.Fatalf("run without checkpoints counted %d failures", base.CheckpointFailed)
	}
	if !reflect.DeepEqual(sum.Points, base.Points) {
		t.Error("pooled statistics differ from a run without checkpoints")
	}
	got := strings.Split(report.Campaign(sum), "\n")
	want := strings.Split(report.Campaign(base), "\n")
	countLine := "3 checkpoint write(s) failed; a resumed campaign re-runs those replicates"
	if len(got) != len(want)+1 || got[1] != countLine {
		t.Fatalf("report lines %d (line 2 %q), want %d plus %q", len(got), got[1], len(want), countLine)
	}
	got = append(got[:1], got[2:]...)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("report line %d: %q, want %q", i+1, got[i], want[i])
		}
	}
}

// TestRunRejectsNegativeDays: a negative horizon is an error, not a
// silent run of the paper window.
func TestRunRejectsNegativeDays(t *testing.T) {
	spec := fastSpec("negative", 1, 1)
	spec.Days = -1
	if sum, err := campaign.Run(context.Background(), spec); err == nil {
		t.Fatalf("days -1 accepted (summary %+v)", sum)
	}
}

// TestPanicIsolation injects a panicking replicate and verifies the
// campaign survives it: the run is reported failed, the rest pool.
func TestPanicIsolation(t *testing.T) {
	spec := fastSpec("panic-isolation", 3, 2)
	spec.Mutate = func(rep int, cfg *core.Config) {
		if rep == 1 {
			panic("injected divergence")
		}
	}
	sum, err := campaign.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Completed != 2 || sum.Failed != 1 {
		t.Fatalf("completed %d failed %d, want 2/1", sum.Completed, sum.Failed)
	}
	pt := sum.Points[0]
	if pt.Failed != 1 || len(pt.Errors) != 1 || !strings.Contains(pt.Errors[0], "injected divergence") {
		t.Errorf("point errors %v, want one injected panic", pt.Errors)
	}
	// The failed replicate contributes no trials.
	if pt.Tent.Trials != 4 {
		t.Errorf("pooled tent trials %d, want 4 (2 hosts x 2 good reps)", pt.Tent.Trials)
	}
}

// TestCancelledContext verifies a cancelled campaign returns promptly with
// the context error and a partial summary.
func TestCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sum, err := campaign.Run(ctx, fastSpec("cancelled", 4, 2))
	if err != context.Canceled {
		t.Fatalf("err %v, want context.Canceled", err)
	}
	if sum == nil {
		t.Fatal("cancelled campaign returned no summary")
	}
	if sum.Completed != 0 {
		t.Errorf("completed %d runs under a pre-cancelled context", sum.Completed)
	}
}

// TestSweepCrossProduct checks axis expansion, labelling and per-point
// aggregation.
func TestSweepCrossProduct(t *testing.T) {
	spec := campaign.Spec{
		Seed:    "sweep",
		Reps:    2,
		Workers: 4,
		Days:    2,
		Sweep: campaign.Sweep{
			FleetPairs: []int{1, 2},
			Mods:       []bool{true, false},
		},
	}
	sum, err := campaign.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Points) != 4 {
		t.Fatalf("sweep points %d, want 4", len(sum.Points))
	}
	if sum.TotalRuns != 8 || sum.Completed != 8 {
		t.Fatalf("runs %d/%d, want 8/8", sum.Completed, sum.TotalRuns)
	}
	labels := make(map[string]*campaign.PointAggregate)
	for _, pt := range sum.Points {
		labels[pt.Label] = pt
	}
	pt, ok := labels["fleet=2x2 mods=off"]
	if !ok {
		keys := make([]string, 0, len(labels))
		for k := range labels {
			keys = append(keys, k)
		}
		t.Fatalf("missing point label, have %v", keys)
	}
	if pt.Tent.Trials != 4 {
		t.Errorf("fleet=2x2 pooled tent trials %d, want 4", pt.Tent.Trials)
	}
}

// TestRepSeedsDistinct guards the replicate-independence assumption: the
// <seed>/rep/<i> derivation must give every replicate below 1024 its own
// weather and failure sample path. A first draw collision on any stream
// would mean two "independent" replicates shared randomness.
func TestRepSeedsDistinct(t *testing.T) {
	const n = 1024
	streams := []string{"weather/noise", "failure/host", "workload/fuzz"}
	seenSeed := make(map[string]bool, n)
	seenDraw := make(map[string]map[float64]int)
	for _, s := range streams {
		seenDraw[s] = make(map[float64]int, n)
	}
	for i := 0; i < n; i++ {
		seed := campaign.RepSeed("winter0910", i)
		if seenSeed[seed] {
			t.Fatalf("duplicate replicate seed %q", seed)
		}
		seenSeed[seed] = true
		rng := simkernel.NewRNG(seed)
		for _, s := range streams {
			v := rng.Stream(s).Uniform(0, 1)
			if prev, dup := seenDraw[s][v]; dup {
				t.Fatalf("stream %q: replicates %d and %d drew identical first value %v", s, prev, i, v)
			}
			seenDraw[s][v] = i
		}
	}
}

// TestBuildFleet checks the campaign fleet builder's shape and twinning.
func TestBuildFleet(t *testing.T) {
	at := time.Date(2010, time.February, 19, 12, 0, 0, 0, time.UTC)
	f, err := campaign.BuildFleet(9, at)
	if err != nil {
		t.Fatal(err)
	}
	all := f.All()
	if len(all) != 18 {
		t.Fatalf("fleet size %d, want 18", len(all))
	}
	h, ok := f.Get("h01")
	if !ok || h.TwinID != "ch01" {
		t.Errorf("h01 twin %q, want ch01", h.TwinID)
	}
	if _, err := campaign.BuildFleet(0, at); err == nil {
		t.Error("zero-pair fleet accepted")
	}
}

// TestBadSweepValueFailsRun ensures an unknown climate fails the affected
// replicates rather than the process.
func TestBadSweepValueFailsRun(t *testing.T) {
	spec := fastSpec("bad-climate", 2, 2)
	spec.Sweep.Climates = []string{"atlantis"}
	sum, err := campaign.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Failed != 2 || sum.Completed != 0 {
		t.Fatalf("failed %d completed %d, want 2/0", sum.Failed, sum.Completed)
	}
	if !strings.Contains(report.Campaign(sum), "unknown climate") {
		t.Error("report does not surface the failure cause")
	}
}
