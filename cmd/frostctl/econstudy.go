package main

import (
	"context"
	"fmt"
	"io"

	"frostlab/internal/campaign"
	"frostlab/internal/climate"
	"frostlab/internal/control"
	"frostlab/internal/econ"
	"frostlab/internal/report"
)

// The E17 economics study (-phase econ): the multi-site fleet — one site
// per climate family, each on its geographic tariff — swept over
// placement policy x fleet composition x price regime. The study reports
// $/kWh-derived cost and gCO₂ per completed work-cycle for every cell,
// and gates four invariants by exit status: the whole sweep replays
// byte-identically (digest-compared double run), every cell conserves
// work-cycles exactly, follow-the-cold beats static placement on at
// least one (fleet, tariff) pair, and every cell completes a share of
// its demand in (0, 1]. -save writes the report, committed as
// BENCH_ECON.json.

// econHosts is the E17 fleet's hosts per site.
const econHosts = 9

// econCellBench is one sweep cell's row in BENCH_ECON.json.
type econCellBench struct {
	Policy         string  `json:"policy"`
	Set            string  `json:"set"`
	Tariff         string  `json:"tariff"`
	Completion     float64 `json:"completion"`
	CostPerCycle   float64 `json:"cost_per_cycle_usd"`
	CarbonPerCycle float64 `json:"carbon_per_cycle_g"`
	EffectivePrice float64 `json:"effective_price_usd_kwh"`
	EnergyKWh      float64 `json:"energy_kwh"`
	Migrated       float64 `json:"migrated_cycles"`
	Shed           float64 `json:"shed_cycles"`
	Digest         string  `json:"digest"`
}

// econBench is the BENCH_ECON.json shape.
type econBench struct {
	Seed              string             `json:"seed"`
	Days              int                `json:"days"`
	HostsPerSite      int                `json:"hosts_per_site"`
	Cells             []econCellBench    `json:"cells"`
	SweepDigest       string             `json:"sweep_digest"`
	ReplayIdentical   bool               `json:"replay_identical"`
	ConservationOK    bool               `json:"conservation_ok"`
	FollowColdSavings map[string]float64 `json:"follow_cold_savings_usd_per_cycle"`
	FollowColdWins    int                `json:"follow_cold_wins"`
}

// runEconStudy runs the E17 sweep with -days per cell (0: the sweep's
// own 28) and returns its report for econGate.
func runEconStudy(ctx context.Context, stdout io.Writer, o *options) (any, error) {
	spec := campaign.DefaultEconSpec(o.seed)
	spec.Days = o.days
	spec.HostsPerSite = econHosts

	sum, err := campaign.RunEconContext(ctx, spec)
	if err != nil {
		return nil, err
	}
	// Replay gate: the entire sweep again, digest-compared.
	again, err := campaign.RunEconContext(ctx, spec)
	if err != nil {
		return nil, fmt.Errorf("replay run: %w", err)
	}
	sweepDigest, cellDigests := sum.Digests()
	replayOK := sweepDigest == again.Digest()

	// Conservation gate: re-derive every cell's work-cycle accounting from
	// the results (the engine also checks internally on Run).
	conservationOK := true
	for i := range sum.Cells {
		r := sum.Cells[i].Result
		meters := make([]econ.Meter, len(r.Sites))
		for j := range r.Sites {
			meters[j] = r.Sites[j].Meter
		}
		if err := econ.CheckConservation(meters, r.Demanded, 1e-6*(1+r.Demanded)); err != nil {
			conservationOK = false
			fmt.Fprintf(stdout, "conservation violated in %s: %v\n", sum.Cells[i].Label, err)
		}
	}

	text, err := report.Econ(sum)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(stdout, text)

	keys, savings := sum.Advantage("follow-cold", "static")
	wins := 0
	for _, k := range keys {
		if savings[k] > 0 {
			wins++
		}
	}

	replay := "replay identical"
	if !replayOK {
		replay = "REPLAY DIVERGED"
	}
	fmt.Fprintf(stdout, "sweep digest %s (%s)\n", sweepDigest, replay)
	fmt.Fprintf(stdout, "follow-cold beats static on %d of %d (fleet, tariff) pairs\n", wins, len(keys))

	bench := econBench{
		Seed:              o.seed,
		Days:              sum.Days,
		HostsPerSite:      spec.HostsPerSite,
		SweepDigest:       sweepDigest,
		ReplayIdentical:   replayOK,
		ConservationOK:    conservationOK,
		FollowColdSavings: savings,
		FollowColdWins:    wins,
	}
	for i := range sum.Cells {
		c := &sum.Cells[i]
		r := c.Result
		bench.Cells = append(bench.Cells, econCellBench{
			Policy:         c.Policy,
			Set:            c.Set,
			Tariff:         c.Tariff,
			Completion:     r.Completion(),
			CostPerCycle:   r.CostPerCycle(),
			CarbonPerCycle: r.CarbonPerCycle(),
			EffectivePrice: r.TotalMeter.EffectivePrice(),
			EnergyKWh:      float64(r.TotalMeter.Energy()),
			Migrated:       r.Migrated,
			Shed:           r.Shed,
			Digest:         cellDigests[i],
		})
	}
	return bench, nil
}

// econGate is the study's pass/fail decision: the sweep replays
// identically, every cell conserves work-cycles and completes a share of
// its demand in (0, 1], and follow-cold beats static on at least one
// pair.
func econGate(b econBench) error {
	if !b.ReplayIdentical {
		return fmt.Errorf("E17: sweep replay produced a different digest")
	}
	if !b.ConservationOK {
		return fmt.Errorf("E17: work-cycle conservation violated")
	}
	for _, c := range b.Cells {
		if !(c.Completion > 0 && c.Completion <= 1) {
			return fmt.Errorf("E17: %s/%s/%s completion %v out of (0, 1]", c.Policy, c.Set, c.Tariff, c.Completion)
		}
	}
	if b.FollowColdWins == 0 {
		return fmt.Errorf("E17: follow-cold never beat static placement")
	}
	return nil
}

// listClimates prints the scenario library (-list-climates): every
// family's catalogue line and parameter defaults.
func listClimates(stdout io.Writer) {
	fmt.Fprintln(stdout, "Scenario library (internal/climate):")
	for _, f := range climate.Families() {
		fmt.Fprintf(stdout, "\n%s — %s\n", f.Name, f.Description)
		p := f.Defaults
		fmt.Fprintf(stdout, "  latitude %.1f°N, mean %.1f °C (%+.2f °C/day), diurnal ±%.1f °C, synoptic ±%.1f °C\n",
			p.Latitude, p.MeanTemp, p.WarmingPerDay, p.DiurnalAmplitude, p.SynopticAmplitude)
		fmt.Fprintf(stdout, "  RH %.0f%%, wind %.1f m/s, stress %.2f\n", p.MeanRH, p.MeanWind, p.Stress)
	}
	fmt.Fprintln(stdout, "\nTariff presets (internal/econ):")
	for _, tf := range econ.Tariffs() {
		fmt.Fprintf(stdout, "\n%s — %s\n", tf.Name, tf.Description)
		d := tf.Defaults
		fmt.Fprintf(stdout, "  base $%.3f/kWh, diurnal ±$%.3f (peak %02.0f:00), duck -$%.3f, volatility %.2f\n",
			d.BasePrice, d.DiurnalAmp, d.PeakHour, d.DuckAmp, d.Volatility)
		fmt.Fprintf(stdout, "  carbon %.0f ±%.0f gCO₂/kWh\n", d.BaseCarbon, d.CarbonSwing)
	}
}

// listPolicies prints the placement-policy library (-list-policies).
func listPolicies(stdout io.Writer) {
	fmt.Fprintln(stdout, "Site placement policies (internal/control):")
	for _, p := range control.Policies() {
		fmt.Fprintf(stdout, "\n%s — %s\n", p.Name, p.Description)
	}
	fmt.Fprintf(stdout, "\nfollow-* hysteresis: switch margin %.0f%%, hold %d ticks\n",
		100*control.FollowSwitchMargin, control.FollowHoldTicks)
}
