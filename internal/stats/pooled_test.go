package stats

import (
	"math"
	"testing"

	"frostlab/internal/simkernel"
)

// The pooled estimators feed campaign aggregation, which must never divide
// by zero however degenerate a sweep point's replicate set is: zero
// completed runs, every host failing, or a single replicate.

func TestPoolRatesEmpty(t *testing.T) {
	r := PoolRates()
	if r.Events != 0 || r.Trials != 0 {
		t.Fatalf("empty pool = %v, want 0/0", r)
	}
	if !math.IsNaN(r.Value()) {
		t.Errorf("empty pool value %v, want NaN", r.Value())
	}
	if _, _, err := r.WilsonInterval(); err != ErrEmpty {
		t.Errorf("empty pool Wilson err %v, want ErrEmpty", err)
	}
}

func TestPoolRatesSums(t *testing.T) {
	r := PoolRates(Rate{1, 9}, Rate{0, 9}, Rate{2, 10})
	if r.Events != 3 || r.Trials != 28 {
		t.Fatalf("pooled %v, want 3/28", r)
	}
}

func TestPoolRatesAllFailures(t *testing.T) {
	r := PoolRates(Rate{9, 9}, Rate{9, 9})
	if r.Value() != 1 {
		t.Fatalf("all-failure pool value %v, want 1", r.Value())
	}
	lo, hi, err := r.WilsonInterval()
	if err != nil {
		t.Fatal(err)
	}
	if hi != 1 || lo <= 0 || lo >= 1 {
		t.Errorf("all-failure Wilson [%v, %v], want (0,1)..1", lo, hi)
	}
}

func TestBootstrapRateMeanCIEdgeCases(t *testing.T) {
	rng := simkernel.NewRNG("pooled-test")

	// No replicates at all.
	if _, _, err := BootstrapRateMeanCI(rng.Stream("a"), nil, 100); err != ErrEmpty {
		t.Errorf("no replicates err %v, want ErrEmpty", err)
	}
	// Replicates with zero trials carry no information.
	if _, _, err := BootstrapRateMeanCI(rng.Stream("b"), []Rate{{0, 0}, {0, 0}}, 100); err != ErrEmpty {
		t.Errorf("zero-trial replicates err %v, want ErrEmpty", err)
	}
	// A single replicate pins the interval at its point estimate.
	lo, hi, err := BootstrapRateMeanCI(rng.Stream("c"), []Rate{{1, 4}}, 100)
	if err != nil || lo != 0.25 || hi != 0.25 {
		t.Errorf("single replicate CI [%v, %v] err %v, want [0.25, 0.25]", lo, hi, err)
	}
	// All failures: the interval collapses at 1.
	lo, hi, err = BootstrapRateMeanCI(rng.Stream("d"), []Rate{{9, 9}, {9, 9}, {9, 9}}, 100)
	if err != nil || lo != 1 || hi != 1 {
		t.Errorf("all-failure CI [%v, %v] err %v, want [1, 1]", lo, hi, err)
	}
	// Mixed replicates bracket the mean.
	lo, hi, err = BootstrapRateMeanCI(rng.Stream("e"), []Rate{{0, 9}, {1, 9}, {2, 9}, {0, 9}}, 500)
	if err != nil {
		t.Fatal(err)
	}
	mean := (0.0 + 1.0/9 + 2.0/9 + 0) / 4
	if lo > mean || hi < mean || lo == hi {
		t.Errorf("mixed CI [%v, %v] does not bracket mean %v", lo, hi, mean)
	}
}

func TestRequiredTrialsTwoProportions(t *testing.T) {
	// Textbook check: p1=0.5 vs p2=0.3 at alpha 0.05, power 0.8 needs
	// ~93 per arm.
	n, err := RequiredTrialsTwoProportions(0.5, 0.3, 0.05, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if n < 90 || n > 97 {
		t.Errorf("n = %d, want ~93", n)
	}
	// More power can only cost more samples.
	prev := 0
	for _, power := range []float64{0.5, 0.8, 0.9, 0.95} {
		n, err := RequiredTrialsTwoProportions(0.056, 0.0, 0.05, power)
		if err != nil {
			t.Fatal(err)
		}
		if n <= 0 || n < prev {
			t.Errorf("power %v: n = %d not increasing (prev %d)", power, n, prev)
		}
		prev = n
	}
	// Degenerate inputs error instead of dividing by zero.
	if _, err := RequiredTrialsTwoProportions(0.2, 0.2, 0.05, 0.8); err == nil {
		t.Error("equal proportions accepted")
	}
	if _, err := RequiredTrialsTwoProportions(-0.1, 0.2, 0.05, 0.8); err == nil {
		t.Error("negative proportion accepted")
	}
	if _, err := RequiredTrialsTwoProportions(0.1, 0.2, 0, 0.8); err == nil {
		t.Error("zero alpha accepted")
	}
	if _, err := RequiredTrialsTwoProportions(0.1, 0.2, 0.05, 1); err == nil {
		t.Error("power 1 accepted")
	}
}
