package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"frostlab/internal/simkernel"
)

func TestQuantile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 5}, {0.5, 3}, {0.25, 2}, {0.125, 1.5},
	}
	for _, c := range cases {
		if got := Quantile(s, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("empty quantile not NaN")
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b uint8) bool {
		if len(raw) == 0 {
			return true
		}
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
		}
		s := append([]float64(nil), raw...)
		sort.Float64s(s)
		qa, qb := float64(a)/255, float64(b)/255
		if qa > qb {
			qa, qb = qb, qa
		}
		return Quantile(s, qa) <= Quantile(s, qb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRateValueAndString(t *testing.T) {
	// The paper's headline: 1 failure in 18 hosts = 5.6 %.
	r := Rate{Events: 1, Trials: 18}
	if math.Abs(r.Value()-0.0556) > 0.001 {
		t.Errorf("value %v", r.Value())
	}
	if s := r.String(); s != "5.56% (1/18)" {
		t.Errorf("string %q", s)
	}
	if !math.IsNaN((Rate{}).Value()) {
		t.Error("0-trial value not NaN")
	}
}

func TestWilsonIntervalKnownValues(t *testing.T) {
	// 1/18: Wilson 95% ≈ [0.0099, 0.2593].
	lo, hi, err := Rate{Events: 1, Trials: 18}.WilsonInterval()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lo-0.0099) > 0.005 || math.Abs(hi-0.2593) > 0.01 {
		t.Errorf("Wilson(1/18) = [%v, %v], want ≈ [0.010, 0.259]", lo, hi)
	}
	// 0/9: lower bound exactly 0, upper ≈ 0.2992.
	lo, hi, err = Rate{Events: 0, Trials: 9}.WilsonInterval()
	if err != nil {
		t.Fatal(err)
	}
	if lo != 0 || math.Abs(hi-0.2992) > 0.01 {
		t.Errorf("Wilson(0/9) = [%v, %v], want [0, ≈0.299]", lo, hi)
	}
}

func TestWilsonIntervalBounds(t *testing.T) {
	f := func(e, n uint8) bool {
		trials := int(n)%50 + 1
		events := int(e) % (trials + 1)
		lo, hi, err := Rate{Events: events, Trials: trials}.WilsonInterval()
		if err != nil {
			return false
		}
		p := float64(events) / float64(trials)
		return lo >= 0 && hi <= 1 && lo <= p && p <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWilsonEmpty(t *testing.T) {
	if _, _, err := (Rate{}).WilsonInterval(); err == nil {
		t.Error("0 trials accepted")
	}
}

func TestTentVsControlNotDistinguishable(t *testing.T) {
	// The paper's core statistical situation: 1/9 tent hosts failed (host
	// 15 of the 9 in the tent), 0/9 controls. With n=9 the intervals
	// overlap — the experiment cannot claim the cold caused failures.
	tent := Rate{Events: 1, Trials: 9}
	control := Rate{Events: 0, Trials: 9}
	dist, err := Distinguishable(tent, control)
	if err != nil {
		t.Fatal(err)
	}
	if dist {
		t.Error("1/9 vs 0/9 reported distinguishable; they must not be")
	}
	// Sanity: extreme rates are distinguishable.
	dist, err = Distinguishable(Rate{Events: 90, Trials: 100}, Rate{Events: 5, Trials: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !dist {
		t.Error("90% vs 5% not distinguishable")
	}
}

func TestTentVsIntelComparable(t *testing.T) {
	// §4: "A failure rate of 5.6% may seem harsh initially, but Intel has
	// reported a comparable rate of 4.46%". These must not be
	// statistically distinguishable either.
	ours := Rate{Events: 1, Trials: 18}
	intel := Rate{Events: 20, Trials: 448} // 4.46% at Intel's ~450-server scale
	dist, err := Distinguishable(ours, intel)
	if err != nil {
		t.Fatal(err)
	}
	if dist {
		t.Error("5.6% (1/18) vs 4.46% flagged as different; the paper calls them comparable")
	}
}

func TestFisherExactKnownValues(t *testing.T) {
	// The experiment's own table: 1 failed / 8 fine (tent) vs 0 / 9
	// (control). Fisher's exact two-sided p = 1.0: no evidence at all.
	p, err := FisherExact(1, 8, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.95 || p > 1 {
		t.Errorf("Fisher(1,8,0,9) = %v, want 1.0", p)
	}
	// Tea-tasting classic: [[3,1],[1,3]] has two-sided p ≈ 0.4857.
	p, err = FisherExact(3, 1, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-0.4857) > 0.01 {
		t.Errorf("Fisher(3,1,1,3) = %v, want ≈ 0.486", p)
	}
	// A lopsided table must be significant: [[10,0],[0,10]] p ≈ 1.08e-5.
	p, err = FisherExact(10, 0, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if p > 1e-4 {
		t.Errorf("Fisher(10,0,0,10) = %v, want ~1e-5", p)
	}
}

func TestFisherExactProperties(t *testing.T) {
	f := func(a8, b8, c8, d8 uint8) bool {
		a, b, c, d := int(a8)%12, int(b8)%12, int(c8)%12, int(d8)%12
		if a+b+c+d == 0 {
			return true
		}
		p, err := FisherExact(a, b, c, d)
		if err != nil {
			return false
		}
		return p > 0 && p <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Symmetry: transposing the table preserves the p-value.
	p1, _ := FisherExact(2, 7, 5, 3)
	p2, _ := FisherExact(2, 5, 7, 3)
	if math.Abs(p1-p2) > 1e-9 {
		t.Errorf("transpose changed p: %v vs %v", p1, p2)
	}
}

func TestFisherExactValidation(t *testing.T) {
	if _, err := FisherExact(-1, 1, 1, 1); err == nil {
		t.Error("negative cell accepted")
	}
	if _, err := FisherExact(0, 0, 0, 0); err == nil {
		t.Error("empty table accepted")
	}
}

func TestBootstrapMeanCI(t *testing.T) {
	rng := simkernel.NewRNG("bootstrap")
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = rng.Stream("data").Normal(10, 2)
	}
	lo, hi, err := BootstrapMeanCI(rng.Stream("bs"), xs, 500)
	if err != nil {
		t.Fatal(err)
	}
	if lo >= hi {
		t.Fatalf("degenerate CI [%v, %v]", lo, hi)
	}
	if lo > 10 || hi < 10 {
		t.Errorf("CI [%v, %v] excludes the true mean 10", lo, hi)
	}
	if hi-lo > 2 {
		t.Errorf("CI [%v, %v] implausibly wide for n=200", lo, hi)
	}
	if _, _, err := BootstrapMeanCI(rng.Stream("bs"), nil, 10); err == nil {
		t.Error("empty data accepted")
	}
}

func BenchmarkWilson(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, _, _ = Rate{Events: i % 20, Trials: 100}.WilsonInterval()
	}
}
