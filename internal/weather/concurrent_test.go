package weather_test

import (
	"sync"
	"testing"
	"time"

	"frostlab/internal/climate"
	"frostlab/internal/weather"
)

// TestClonesEvaluateConcurrently runs two clones of the reference model and
// two clones of a climate overlay that reads SolarElevation, each on its
// own goroutine, as the sharded engine and the multi-site sweep do. The
// calendar trig tables they share are built by whichever goroutine asks
// first; under -race this checks that building and reading them does not
// race, and every goroutine must see the sample path a lone model sees.
func TestClonesEvaluateConcurrently(t *testing.T) {
	f, err := climate.Lookup("tropical")
	if err != nil {
		t.Fatal(err)
	}
	tropical, err := f.Model(weather.ExperimentEpoch, "concurrent")
	if err != nil {
		t.Fatal(err)
	}
	ref := weather.ReferenceWinter0910("concurrent")
	models := []weather.Model{
		ref.CloneModel(), ref.CloneModel(),
		tropical.(weather.Cloner).CloneModel(), tropical.(weather.Cloner).CloneModel(),
	}
	const n = 3 * 24 * 60
	// Odd seconds every other sample take the inline path beside the
	// tables.
	at := func(i int) time.Time {
		return weather.ExperimentEpoch.Add(time.Duration(i)*time.Minute + time.Duration(i%2)*17*time.Second)
	}
	paths := make([][]weather.Conditions, len(models))
	var wg sync.WaitGroup
	for k, m := range models {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]weather.Conditions, n)
			for i := range out {
				out[i] = m.At(at(i))
			}
			paths[k] = out
		}()
	}
	wg.Wait()
	for k, lone := range []weather.Model{ref, ref, tropical, tropical} {
		for i, got := range paths[k] {
			if want := lone.At(at(i)); got != want {
				t.Fatalf("model %d at %v: %+v, a lone model gives %+v", k, at(i), got, want)
			}
		}
	}
}
