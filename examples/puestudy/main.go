// puestudy reproduces the paper's energy argument end to end: the §5 PUE
// arithmetic for the department's new cluster, and the air-economizer
// savings (§1: "from 40% to 67%, according to HP and Intel") evaluated
// across climates of different severity.
//
//	go run ./examples/puestudy
package main

import (
	"fmt"
	"log"
	"time"

	"frostlab/internal/climate"
	"frostlab/internal/power"
	"frostlab/internal/report"
	"frostlab/internal/weather"
)

func main() {
	pue, err := report.TablePUE()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(pue)

	// Climate sweep across the catalogue: how far south does the
	// free-cooling argument carry? (§1–2: the paper's Helsinki site, HP's
	// Wynyard, Intel's New Mexico, plus the extremes and stress families.)
	eco := power.DefaultEconomizer()
	from := weather.ExperimentEpoch
	to := from.AddDate(0, 0, 42)

	header := []string{"climate", "free-cooling hours", "savings", "economizer PUE"}
	var rows [][]string
	for _, f := range climate.Families() {
		wx, err := f.Model(from, "puestudy")
		if err != nil {
			log.Fatal(err)
		}
		cmp, err := eco.Compare(wx, 75_000, from, to, time.Hour)
		if err != nil {
			log.Fatal(err)
		}
		rows = append(rows, []string{
			f.Name,
			fmt.Sprintf("%.0f%%", cmp.FreeCoolingFraction*100),
			fmt.Sprintf("%.0f%%", cmp.Savings*100),
			fmt.Sprintf("%.3f", cmp.EconomizerPUE),
		})
	}
	fmt.Println("Air-economizer savings by climate (42 winter days, 75 kW IT load)")
	fmt.Printf("published anchors: HP %.0f%%, Intel %.0f%%\n\n",
		power.HPReportedSavings*100, power.IntelReportedSavings*100)
	fmt.Println(report.Table(header, rows))
}
