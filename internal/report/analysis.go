package report

import (
	"fmt"
	"time"

	"frostlab/internal/analysis"
	"frostlab/internal/core"
	"frostlab/internal/hardware"
	"frostlab/internal/thermal"
	"frostlab/internal/weather"
)

// TableCondensation renders the §5 condensation analysis: dew-point
// margins for powered and unpowered machines over the experiment's
// weather.
func TableCondensation(rep analysis.CondensationReport) string {
	rows := [][]string{
		{"samples evaluated", fmt.Sprintf("%d", rep.Samples)},
		{"powered machine at risk", fmt.Sprintf("%.2f%% of the time", rep.PoweredRiskFraction*100)},
		{"minimum powered dew-point margin", fmt.Sprintf("%.1f °C", rep.MinPoweredMargin)},
		{"unpowered (lagging) machine at risk", fmt.Sprintf("%.2f%% of the time", rep.UnpoweredRiskFraction*100)},
		{"highest dew point in record", rep.MaxDewPoint.String()},
	}
	return "Condensation analysis (§5: \"water has few possibilities to condense\")\n\n" +
		Table([]string{"quantity", "value"}, rows) +
		"\nthe risk exists only for hardware that is off while a warm moist front passes\n"
}

// TableAttribution renders the tent heat-balance decomposition for the
// unmodified and fully modified envelope.
func TableAttribution(bare, opened analysis.DeltaTAttribution) string {
	rows := [][]string{
		{"mean ΔT (inside − outside)", fmt.Sprintf("%.1f °C", bare.MeanDeltaT), fmt.Sprintf("%.1f °C", opened.MeanDeltaT)},
		{"equipment-heat share", fmt.Sprintf("%.1f °C", bare.EquipmentDeltaT), fmt.Sprintf("%.1f °C", opened.EquipmentDeltaT)},
		{"solar-gain share", fmt.Sprintf("%.1f °C", bare.SolarDeltaT), fmt.Sprintf("%.1f °C", opened.SolarDeltaT)},
	}
	return "Tent heat-balance attribution (§3.2's four factors, §4.1's mitigations)\n\n" +
		Table([]string{"quantity", "tent as shipped", "after R+I+B+F"}, rows)
}

// TableExposure renders the failure-vs-ambient-temperature bands.
func TableExposure(bands []analysis.ExposureBand) string {
	var rows [][]string
	for _, b := range bands {
		rows = append(rows, []string{
			fmt.Sprintf("[%.0f, %.0f)", b.Lo, b.Hi),
			fmt.Sprintf("%.0f h", b.Hours),
			fmt.Sprintf("%d", b.Failures),
			fmt.Sprintf("%.2f", b.RatePer1000h()),
		})
	}
	return "Failure exposure by outside temperature band\n" +
		"(the paper's question three: does any band concentrate failures?)\n\n" +
		Table([]string{"band °C", "exposure", "failures", "per 1000 h"}, rows)
}

// RunAnalyses computes the three §5-style analyses for a finished
// experiment, re-deriving weather from the result's seed.
func RunAnalyses(r *core.Results) (string, error) {
	wx := weather.ReferenceWinter0910(r.Seed)
	cond, err := analysis.CondensationStudy(wx, r.Start, r.End, 10*time.Minute, 5, 2*time.Hour)
	if err != nil {
		return "", err
	}
	bare, err := analysis.AttributeDeltaT(wx, nil, 1400,
		r.Start, r.Start.AddDate(0, 0, 7), time.Minute)
	if err != nil {
		return "", err
	}
	all := []thermal.Modification{thermal.ReflectiveFoil, thermal.RemoveInnerTent, thermal.OpenBottom, thermal.InstallFan}
	opened, err := analysis.AttributeDeltaT(wx, all, 1400,
		r.Start, r.Start.AddDate(0, 0, 7), time.Minute)
	if err != nil {
		return "", err
	}
	var tentFailures []time.Time
	for _, h := range r.Hosts {
		if h.Location == hardware.Tent {
			tentFailures = append(tentFailures, h.Transients...)
		}
	}
	exposure, err := analysis.ExposureAnalysis(r.OutsideTemp, tentFailures, -25, 10, 7)
	if err != nil {
		return "", err
	}
	return TableCondensation(cond) + "\n" + TableAttribution(bare, opened) + "\n" + TableExposure(exposure), nil
}
