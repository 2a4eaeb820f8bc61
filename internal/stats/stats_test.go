package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"frostlab/internal/simkernel"
)

func TestSummarize(t *testing.T) {
	d, err := summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if err != nil {
		t.Fatal(err)
	}
	if d.N != 8 || d.Min != 2 || d.Max != 9 {
		t.Errorf("basic fields: %+v", d)
	}
	if d.Mean != 5 {
		t.Errorf("mean %v", d.Mean)
	}
	// Sample stddev of this classic set is ~2.138.
	if math.Abs(d.Stddev-2.138) > 0.01 {
		t.Errorf("stddev %v", d.Stddev)
	}
	if math.Abs(d.Median-4.5) > 1e-9 {
		t.Errorf("median %v", d.Median)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if _, err := summarize(nil); err == nil {
		t.Error("empty accepted")
	}
}

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

func TestTwoProportionZ(t *testing.T) {
	z, err := twoProportionZ(Rate{Events: 1, Trials: 9}, Rate{Events: 0, Trials: 9})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(z) >= 1.96 {
		t.Errorf("z = %v; small-sample difference must not reach significance", z)
	}
	z, err = twoProportionZ(Rate{Events: 80, Trials: 100}, Rate{Events: 20, Trials: 100})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(z) < 1.96 {
		t.Errorf("z = %v for 80%% vs 20%%; want significant", z)
	}
	if _, err := twoProportionZ(Rate{}, Rate{Events: 1, Trials: 2}); err == nil {
		t.Error("empty rate accepted")
	}
	z, err = twoProportionZ(Rate{Events: 0, Trials: 5}, Rate{Events: 0, Trials: 7})
	if err != nil || z != 0 {
		t.Errorf("degenerate pooled p: z=%v err=%v", z, err)
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

func TestHistogram(t *testing.T) {
	h, err := newHistogram([]float64{-25, -10, -5, -5, 0, 5, 100}, -20, 20, 4)
	if err != nil {
		t.Fatal(err)
	}
	if h.Under != 1 || h.Over != 1 {
		t.Errorf("under/over %d/%d", h.Under, h.Over)
	}
	if h.total() != 5 {
		t.Errorf("total %d", h.total())
	}
	want := []int{0, 3, 2, 0} // [-20,-10), [-10,0), [0,10), [10,20)
	for i, w := range want {
		if h.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d (%v)", i, h.Counts[i], w, h.Counts)
		}
	}
}

func TestHistogramValidation(t *testing.T) {
	if _, err := newHistogram(nil, 0, 0, 4); err == nil {
		t.Error("empty range accepted")
	}
	if _, err := newHistogram(nil, 0, 1, 0); err == nil {
		t.Error("zero buckets accepted")
	}
}

func TestFitLinearExact(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	ys := []float64{1, 3, 5, 7, 9} // y = 2x + 1
	l, err := FitLinear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(l.Slope-2) > 1e-9 || math.Abs(l.Intercept-1) > 1e-9 {
		t.Errorf("fit %+v", l)
	}
	if math.Abs(l.R2-1) > 1e-9 {
		t.Errorf("R2 %v", l.R2)
	}
}

func TestFitLinearValidation(t *testing.T) {
	if _, err := FitLinear([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := FitLinear([]float64{1}, []float64{1}); err == nil {
		t.Error("single point accepted")
	}
	if _, err := FitLinear([]float64{2, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Error("zero x-variance accepted")
	}
}

func TestPearsonSign(t *testing.T) {
	r, err := pearson([]float64{1, 2, 3, 4}, []float64{8, 6, 4, 2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r+1) > 1e-9 {
		t.Errorf("perfect negative correlation r = %v", r)
	}
}

func TestBootstrapMeanCI(t *testing.T) {
	rng := simkernel.NewRNG("bootstrap")
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = rng.Normal("data", 10, 2)
	}
	lo, hi, err := BootstrapMeanCI(rng, "bs", xs, 500)
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
	if _, _, err := BootstrapMeanCI(rng, "bs", nil, 10); err == nil {
		t.Error("empty data accepted")
	}
}

func BenchmarkWilson(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, _, _ = Rate{Events: i % 20, Trials: 100}.WilsonInterval()
	}
}

func BenchmarkSummarize(b *testing.B) {
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = float64(i % 97)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = summarize(xs)
	}
}

// The helpers below have no caller in the program; they stay beside the
// tests that pin them and go when those tests do.

// describe holds descriptive statistics of a sample.
type describe struct {
	N                  int
	Mean, Stddev       float64
	Min, Max           float64
	Median             float64
	P05, P25, P75, P95 float64
}

// summarize computes descriptive statistics.
func summarize(xs []float64) (describe, error) {
	if len(xs) == 0 {
		return describe{}, ErrEmpty
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	d := describe{N: len(s), Min: s[0], Max: s[len(s)-1]}
	var sum float64
	for _, x := range s {
		sum += x
	}
	d.Mean = sum / float64(d.N)
	var sq float64
	for _, x := range s {
		sq += (x - d.Mean) * (x - d.Mean)
	}
	if d.N > 1 {
		d.Stddev = math.Sqrt(sq / float64(d.N-1))
	}
	d.Median = Quantile(s, 0.5)
	d.P05 = Quantile(s, 0.05)
	d.P25 = Quantile(s, 0.25)
	d.P75 = Quantile(s, 0.75)
	d.P95 = Quantile(s, 0.95)
	return d, nil
}

// twoProportionZ returns the z statistic of the standard two-proportion
// test (pooled). Callers compare |z| against 1.96 for 5 % significance.
func twoProportionZ(a, b Rate) (float64, error) {
	if a.Trials == 0 || b.Trials == 0 {
		return 0, ErrEmpty
	}
	p := float64(a.Events+b.Events) / float64(a.Trials+b.Trials)
	if p == 0 || p == 1 {
		return 0, nil
	}
	se := math.Sqrt(p * (1 - p) * (1/float64(a.Trials) + 1/float64(b.Trials)))
	return (a.Value() - b.Value()) / se, nil
}

// histogram bins data into equal-width buckets over [min, max].
type histogram struct {
	Min, Max float64
	Counts   []int
	// Under and Over count out-of-range samples.
	Under, Over int
}

// newHistogram bins xs into n buckets.
func newHistogram(xs []float64, min, max float64, n int) (*histogram, error) {
	if n <= 0 || max <= min {
		return nil, fmt.Errorf("stats: bad histogram shape [%v,%v) x%d", min, max, n)
	}
	h := &histogram{Min: min, Max: max, Counts: make([]int, n)}
	width := (max - min) / float64(n)
	for _, x := range xs {
		switch {
		case x < min:
			h.Under++
		case x >= max:
			h.Over++
		default:
			h.Counts[int((x-min)/width)]++
		}
	}
	return h, nil
}

// total returns the in-range sample count.
func (h *histogram) total() int {
	t := 0
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// pearson returns the linear correlation of xs and ys.
func pearson(xs, ys []float64) (float64, error) {
	l, err := FitLinear(xs, ys)
	if err != nil {
		return 0, err
	}
	r := math.Sqrt(l.R2)
	if l.Slope < 0 {
		r = -r
	}
	return r, nil
}

// Linear holds a least-squares fit y = Slope*x + Intercept.
type Linear struct {
	Slope, Intercept float64
	// R2 is the coefficient of determination.
	R2 float64
}

// FitLinear computes the least-squares line through (xs, ys).
func FitLinear(xs, ys []float64) (Linear, error) {
	if len(xs) != len(ys) {
		return Linear{}, fmt.Errorf("stats: mismatched lengths %d vs %d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return Linear{}, ErrEmpty
	}
	n := float64(len(xs))
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return Linear{}, errors.New("stats: x has zero variance")
	}
	l := Linear{Slope: sxy / sxx}
	l.Intercept = my - l.Slope*mx
	if syy > 0 {
		l.R2 = (sxy * sxy) / (sxx * syy)
	} else {
		l.R2 = 1
	}
	return l, nil
}
