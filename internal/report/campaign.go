package report

import (
	"fmt"
	"strings"

	"frostlab/internal/campaign"
	"frostlab/internal/stats"
)

// Campaign renders a campaign summary: the pooled failure-rate table with
// Wilson and bootstrap intervals per sweep point, the pooled wrong-hash
// rate, cross-run temperature envelopes, and the power-analysis table —
// the replication study the paper's n = 9 design could not afford. The
// rendering is a pure function of the Summary, so a fixed-seed campaign
// renders byte-identically at any worker count.
func Campaign(s *campaign.Summary) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Campaign %q: %d replicate(s) x %d sweep point(s) = %d runs",
		s.Seed, s.Reps, len(s.Points), s.TotalRuns)
	fmt.Fprintf(&b, " (%d completed, %d failed, %d from checkpoints)\n", s.Completed, s.Failed, s.Checkpoint)
	if s.CheckpointFailed > 0 {
		fmt.Fprintf(&b, "%d checkpoint write(s) failed; a resumed campaign re-runs those replicates\n", s.CheckpointFailed)
	}
	for _, pt := range s.Points {
		b.WriteString("\n")
		fmt.Fprintf(&b, "== %s ==\n", pt.Label)
		if pt.Failed > 0 {
			fmt.Fprintf(&b, "%d replicate(s) failed:\n", pt.Failed)
			for _, e := range pt.Errors {
				fmt.Fprintf(&b, "  - %s\n", e)
			}
		}
		if pt.Completed == 0 {
			b.WriteString("no completed replicates; nothing to pool\n")
			continue
		}
		b.WriteString(pooledRateTable(pt))
		if pt.HaveFisher {
			verdict := "NOT separable"
			if pt.FisherP < 0.05 {
				verdict = "separable"
			}
			fmt.Fprintf(&b, "pooled tent vs control: Fisher exact p = %.4f (%s at 5%%)\n",
				pt.FisherP, verdict)
		}
		if pt.HaveTentMean {
			fmt.Fprintf(&b, "mean per-replicate tent rate: 95%% bootstrap CI [%.2f%%, %.2f%%] over %d replicate(s)\n",
				pt.TentMeanLo*100, pt.TentMeanHi*100, pt.Completed)
		}
		if pt.WrongHash.Trials > 0 {
			lo, hi, err := pt.WrongHash.WilsonInterval()
			if err == nil {
				fmt.Fprintf(&b, "wrong hashes: %d in %d cycles (%.3g per cycle, 95%% Wilson [%.3g, %.3g])\n",
					pt.WrongHash.Events, pt.WrongHash.Trials, pt.WrongHash.Value(), lo, hi)
			}
		}
		fmt.Fprintf(&b, "mean tent-feed energy per replicate: %.1f kWh\n", pt.MeanEnergyKWh)
		if env := envelopeTable(pt); env != "" {
			b.WriteString("\ncross-run envelopes (per-bucket min/mean/max over replicates):\n")
			b.WriteString(env)
		}
		if plot := envelopePlot(pt); plot != "" {
			b.WriteString("\n")
			b.WriteString(plot)
		}
		if len(pt.Power) > 0 {
			b.WriteString("\nreplications needed to separate tent vs control (two-proportion test, alpha 0.05):\n")
			b.WriteString(powerTable(pt))
		}
	}
	return b.String()
}

func pooledRateTable(pt *campaign.PointAggregate) string {
	rows := make([][]string, 0, 3)
	for _, arm := range []struct {
		name string
		rate stats.Rate
	}{
		{"tent (pooled)", pt.Tent},
		{"control (pooled)", pt.Control},
		{"initial install (pooled)", pt.Initial},
	} {
		if arm.rate.Trials == 0 {
			continue
		}
		lo, hi, err := arm.rate.WilsonInterval()
		ci := "-"
		if err == nil {
			ci = fmt.Sprintf("[%.2f%%, %.2f%%]", lo*100, hi*100)
		}
		rows = append(rows, []string{
			arm.name,
			fmt.Sprintf("%d/%d", arm.rate.Events, arm.rate.Trials),
			fmt.Sprintf("%.2f%%", arm.rate.Value()*100),
			ci,
		})
	}
	return Table([]string{"arm", "failed/hosts", "rate", "95% Wilson"}, rows)
}

func envelopeTable(pt *campaign.PointAggregate) string {
	var rows [][]string
	for _, e := range pt.Envelopes {
		mn, errMin := e.Min.Summarize()
		me, errMean := e.Mean.Summarize()
		mx, errMax := e.Max.Summarize()
		if errMin != nil || errMean != nil || errMax != nil {
			continue
		}
		rows = append(rows, []string{
			e.Name, e.Unit,
			fmt.Sprintf("%.1f", mn.Min),
			fmt.Sprintf("%.1f", me.Mean),
			fmt.Sprintf("%.1f", mx.Max),
			fmt.Sprintf("%d", e.Runs),
		})
	}
	if len(rows) == 0 {
		return ""
	}
	return Table([]string{"series", "unit", "min of min", "mean of mean", "max of max", "runs"}, rows)
}

// envelopePlot draws the most informative envelope: the inside-tent
// temperature when any replicate recorded it, otherwise the outside air.
func envelopePlot(pt *campaign.PointAggregate) string {
	var pick *campaign.Envelope
	for i := range pt.Envelopes {
		e := &pt.Envelopes[i]
		if e.Name == "inside_temp" && e.Mean.Len() > 1 {
			pick = e
			break
		}
		if e.Name == "outside_temp" && e.Mean.Len() > 1 && pick == nil {
			pick = e
		}
	}
	if pick == nil {
		return ""
	}
	plot, err := Plot(PlotConfig{YLabel: pick.Unit}, pick.Min, pick.Mean, pick.Max)
	if err != nil {
		return ""
	}
	return plot
}

func powerTable(pt *campaign.PointAggregate) string {
	rows := make([][]string, 0, len(pt.Power))
	for _, row := range pt.Power {
		winters := "-"
		if row.Winters > 0 {
			winters = fmt.Sprintf("%d", row.Winters)
		}
		rows = append(rows, []string{
			fmt.Sprintf("%.0f%%", row.Power*100),
			fmt.Sprintf("%d", row.PerArm),
			winters,
		})
	}
	return Table([]string{"power", "hosts per arm", fmt.Sprintf("winters (%d-host arms)", pt.WintersPerRep)}, rows)
}
