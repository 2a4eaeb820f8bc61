package report

import (
	"fmt"
	"strings"

	"frostlab/internal/core"
)

// Markdown renders a complete, self-contained run report in GitHub-style
// markdown: the summary, then every Catalogue artefact that applies to
// the run as a fenced code block under its title. frostctl writes it
// with -md; it is also how EXPERIMENTS.md-style documents are produced
// from fresh runs.
func Markdown(r *core.Results) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "# frostlab run report\n\n")
	fmt.Fprintf(&b, "Reproduction of *Running Servers around Zero Degrees* (GreenNetworking 2010).\n\n")
	fmt.Fprintf(&b, "| | |\n|---|---|\n")
	fmt.Fprintf(&b, "| seed | `%s` |\n", r.Seed)
	fmt.Fprintf(&b, "| window | %s – %s |\n", r.Start.Format("2006-01-02"), r.End.Format("2006-01-02"))
	fmt.Fprintf(&b, "| hosts | %d |\n", len(r.Hosts))
	fmt.Fprintf(&b, "| workload cycles | %d |\n", r.TotalCycles)
	fmt.Fprintf(&b, "| wrong hashes | %d |\n", len(r.WrongHashes))
	fmt.Fprintf(&b, "| initial host failure rate | %s |\n", r.InitialHostFailureRate)
	fmt.Fprintf(&b, "| tent energy | %.1f kWh |\n", float64(r.TentEnergy))
	fmt.Fprintf(&b, "| S.M.A.R.T. long tests | %d passed, %d failed |\n\n",
		r.SMARTLongTestsPassed, r.SMARTLongTestsFailed)

	for _, a := range Catalogue {
		body, err := a.Render(r.Seed, r)
		if err != nil {
			return "", err
		}
		if body != "" {
			fmt.Fprintf(&b, "## %s\n\n```text\n%s```\n\n", a.Title, ensureNewline(body))
		}
	}
	return b.String(), nil
}

func ensureNewline(s string) string {
	if !strings.HasSuffix(s, "\n") {
		return s + "\n"
	}
	return s
}
