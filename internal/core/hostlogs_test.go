package core

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// TestUnmonitoredRunKeepsNoHostLogs checks that a run with monitoring off
// writes no host logs: no collector would read them. Every host has no
// store, and a 7-day run allocates less than it did when each host still
// formatted and stored its md5sums and sensor lines (5.2–6.0 MB then,
// 3.49 MB without them). The run is measured on one P with GC off after a
// warm-up run. A -race build's allocations vary between identical runs,
// so it checks only the stores.
func TestUnmonitoredRunKeepsNoHostLogs(t *testing.T) {
	const maxAlloc = 4.0e6
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cfg := shortConfig("hostlogs")
	cfg.MonitorEvery = 0
	run := func() *Experiment {
		exp, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := exp.Run(); err != nil {
			t.Fatal(err)
		}
		return exp
	}
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	exp := run()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > maxAlloc && !raceEnabled {
		t.Errorf("7-day unmonitored run allocated %.2f MB, want at most %.2f MB", float64(got)/1e6, maxAlloc/1e6)
	}
	for _, id := range exp.order {
		if store, _ := exp.hostStore(id); store != nil {
			t.Fatalf("host %s keeps a log store with monitoring off", id)
		}
	}
}
