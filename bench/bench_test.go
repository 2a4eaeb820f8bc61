package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"frostlab/internal/core"
)

// declaration is the part of ../BENCHMARK.json the benchmark must honour.
type declaration struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readDeclaration(t *testing.T) declaration {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declaration
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// runQuiet runs the benchmark in process, logging its lines on failure.
func runQuiet(t *testing.T, o options) result {
	t.Helper()
	var out bytes.Buffer
	t.Cleanup(func() {
		if t.Failed() {
			t.Log(out.String())
		}
	})
	res, err := run(o, &out)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// checkMetrics asserts that res reports exactly the declared metrics, with
// the declared units.
func checkMetrics(t *testing.T, res result, declared map[string]string) {
	t.Helper()
	if len(res.Metrics) != len(declared) {
		t.Errorf("%d metrics reported, %d declared", len(res.Metrics), len(declared))
	}
	for name, unit := range declared {
		m, ok := res.Metrics[name]
		if !ok {
			t.Errorf("declared metric %s not reported", name)
		} else if m.Unit != unit {
			t.Errorf("metric %s unit %q, declared %q", name, m.Unit, unit)
		}
	}
}

// TestWorkloadsSmoke runs every workload's code path at a one-day horizon
// with one timed unit: untraced against a wrong anchor, then traced.
func TestWorkloadsSmoke(t *testing.T) {
	d := readDeclaration(t)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(d.Workloads), len(workloads))
	}
	endToEnd := map[string]string{}
	for _, m := range d.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	perLayer := map[string]string{}
	for _, m := range d.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	for i, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			if d.Workloads[i].Name != w.name {
				t.Fatalf("BENCHMARK.json workload %d is %q, want %q", i, d.Workloads[i].Name, w.name)
			}
			// A wrong anchor fails every op but still yields every metric,
			// and the check unit's digest, which anchors the traced run.
			o := options{workload: w.name, seed: "smoke", maxUnits: 1, days: 1, anchor: "0123456789abcdef0123456789abcdef"}
			res := runQuiet(t, o)
			if res.Correct || res.Failed != res.Attempted || res.Attempted != w.opsPerUnit {
				t.Errorf("wrong anchor: correct %v, %d of %d ops failed; want all %d failed", res.Correct, res.Failed, res.Attempted, w.opsPerUnit)
			}
			checkMetrics(t, res, endToEnd)

			// The traced run checks the instrumented check unit against the
			// untraced digest, and each traced unit against its untraced twin.
			traced := o
			traced.anchor = res.checkDigest
			traced.trace = true
			traced.traceOut = filepath.Join(t.TempDir(), "trace.json")
			res = runQuiet(t, traced)
			if !res.Correct || res.Failed != 0 {
				t.Errorf("traced: correct %v, %d of %d ops failed", res.Correct, res.Failed, res.Attempted)
			}
			checkMetrics(t, res, perLayer)
			b, err := os.ReadFile(traced.traceOut)
			if err != nil {
				t.Fatal(err)
			}
			var events []map[string]any
			if err := json.Unmarshal(b, &events); err != nil || len(events) == 0 {
				t.Errorf("trace file: %d events, %v", len(events), err)
			}
		})
	}
}

func TestResolveSeed(t *testing.T) {
	for in, want := range map[string]string{"115": core.ReferenceSeed, "7": "winter0910-r7", "custom": "custom"} {
		if got := resolveSeed(in); got != want {
			t.Errorf("resolveSeed(%q) = %q, want %q", in, got, want)
		}
	}
}
