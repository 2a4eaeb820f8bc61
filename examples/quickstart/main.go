// Quickstart: run a one-week slice of the experiment and print the
// headline outputs — the temperature figure and the failure-rate table.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"frostlab/internal/core"
	"frostlab/internal/report"
)

func main() {
	// Every experiment starts from a Config. DefaultConfig reproduces the
	// paper's setup; here we shorten the window to the first week.
	cfg := core.DefaultConfig(core.ReferenceSeed)
	cfg.End = cfg.Start.AddDate(0, 0, 7)

	exp, err := core.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	results, err := exp.Run()
	if err != nil {
		log.Fatal(err)
	}

	fig3, err := report.Fig3Temperatures(results)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(fig3)
	fmt.Println(report.TableFailureRates(results))
	fmt.Printf("workload cycles: %d, wrong hashes: %d\n",
		results.TotalCycles, len(results.WrongHashes))
	fmt.Printf("monitoring host collections: %d, bytes moved: %d of %d corpus bytes\n",
		results.MonitorRounds, results.MonitorLiteralBytes, results.MonitorTotalBytes)
}
