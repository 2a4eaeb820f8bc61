// Package stats provides the statistical machinery the experiment's
// analysis needs: binomial rate estimates with Wilson confidence
// intervals (used to compare the tent's 5.6 % host failure rate with the
// control group's 0 % and Intel's 4.46 %), Fisher's exact test, pooled
// rates, bootstrap resampling and two-proportion sample sizes.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"frostlab/internal/simkernel"
)

// ErrEmpty reports a computation over no data.
var ErrEmpty = errors.New("stats: empty data")

// Quantile returns the q-quantile (0..1) of sorted data by linear
// interpolation.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Rate is a binomial proportion with its sample size.
type Rate struct {
	Events int
	Trials int
}

// Value returns the point estimate.
func (r Rate) Value() float64 {
	if r.Trials == 0 {
		return math.NaN()
	}
	return float64(r.Events) / float64(r.Trials)
}

// String formats the rate as the paper does ("5.6%").
func (r Rate) String() string {
	return fmt.Sprintf("%.2f%% (%d/%d)", r.Value()*100, r.Events, r.Trials)
}

// z95 is the two-sided 95% normal quantile.
const z95 = 1.959963984540054

// WilsonInterval returns the 95 % Wilson score confidence interval for the
// rate. Unlike the normal approximation it behaves sensibly for the
// experiment's tiny samples (1/18 failures, 0/9 controls).
func (r Rate) WilsonInterval() (lo, hi float64, err error) {
	if r.Trials == 0 {
		return 0, 0, ErrEmpty
	}
	n := float64(r.Trials)
	p := r.Value()
	z := z95
	denom := 1 + z*z/n
	center := (p + z*z/(2*n)) / denom
	half := z / denom * math.Sqrt(p*(1-p)/n+z*z/(4*n*n))
	lo, hi = center-half, center+half
	// The boundary cases are exact: no events pins the lower bound at 0,
	// all events pins the upper at 1 (floating point would otherwise leave
	// ±1e-17 dust).
	if r.Events == 0 {
		lo = 0
	}
	if r.Events == r.Trials {
		hi = 1
	}
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi, nil
}

// Distinguishable reports whether two rates' 95 % Wilson intervals are
// disjoint — the crude but honest test the experiment's n=9-per-arm design
// supports. The paper's core claim is that tent and control rates are NOT
// distinguishable.
func Distinguishable(a, b Rate) (bool, error) {
	alo, ahi, err := a.WilsonInterval()
	if err != nil {
		return false, err
	}
	blo, bhi, err := b.WilsonInterval()
	if err != nil {
		return false, err
	}
	return ahi < blo || bhi < alo, nil
}

// FisherExact returns the two-sided p-value of Fisher's exact test on the
// 2x2 table [[a, b], [c, d]] — the appropriate test for the experiment's
// tiny arms (1 failed / 8 fine in the tent vs 0 / 9 in the basement),
// where chi-squared and z approximations break down. The two-sided
// p-value sums the probabilities of all tables with the same margins that
// are no more probable than the observed one.
func FisherExact(a, b, c, d int) (float64, error) {
	if a < 0 || b < 0 || c < 0 || d < 0 {
		return 0, fmt.Errorf("stats: negative cell in [[%d,%d],[%d,%d]]", a, b, c, d)
	}
	n := a + b + c + d
	if n == 0 {
		return 0, ErrEmpty
	}
	row1 := a + b
	col1 := a + c
	// Hypergeometric probability of a table with x in the top-left cell.
	logProb := func(x int) float64 {
		return logChoose(row1, x) + logChoose(n-row1, col1-x) - logChoose(n, col1)
	}
	observed := logProb(a)
	lo := col1 - (n - row1)
	if lo < 0 {
		lo = 0
	}
	hi := col1
	if hi > row1 {
		hi = row1
	}
	p := 0.0
	const slack = 1e-9
	for x := lo; x <= hi; x++ {
		if lp := logProb(x); lp <= observed+slack {
			p += math.Exp(lp)
		}
	}
	if p > 1 {
		p = 1
	}
	return p, nil
}

// logChoose returns log(n choose k) via lgamma.
func logChoose(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	ln, _ := math.Lgamma(float64(n + 1))
	lk, _ := math.Lgamma(float64(k + 1))
	lnk, _ := math.Lgamma(float64(n - k + 1))
	return ln - lk - lnk
}

// PoolRates sums binomial rates over independent replicates: the campaign
// engine pools each replicate's (events, trials) into one estimate whose
// Wilson interval reflects the full pooled sample. An empty input pools to
// the zero Rate (0 events over 0 trials), whose Value is NaN and whose
// interval computations return ErrEmpty — callers never divide by zero.
func PoolRates(rs ...Rate) Rate {
	var out Rate
	for _, r := range rs {
		out.Events += r.Events
		out.Trials += r.Trials
	}
	return out
}

// BootstrapRateMeanCI estimates a 95 % confidence interval for the mean
// per-replicate rate by resampling replicates. Replicates with zero trials
// carry no information and are skipped. A single informative replicate
// pins the interval to its point estimate (resampling one value cannot
// spread); zero informative replicates return ErrEmpty.
func BootstrapRateMeanCI(stream *simkernel.Stream, rs []Rate, iterations int) (lo, hi float64, err error) {
	var vals []float64
	for _, r := range rs {
		if r.Trials > 0 {
			vals = append(vals, r.Value())
		}
	}
	if len(vals) == 0 {
		return 0, 0, ErrEmpty
	}
	if len(vals) == 1 {
		return vals[0], vals[0], nil
	}
	return BootstrapMeanCI(stream, vals, iterations)
}

// zQuantile returns the standard normal quantile Φ⁻¹(p).
func zQuantile(p float64) float64 {
	return math.Sqrt2 * math.Erfinv(2*p-1)
}

// RequiredTrialsTwoProportions returns the per-arm sample size needed for
// the standard two-proportion z test to distinguish true rates p1 and p2
// at significance alpha (two-sided) with the given power — the campaign
// engine's "how many hosts/winters would the paper have needed?"
// arithmetic. The formula is the textbook
//
//	n = (z_{1-α/2}·√(2·p̄·q̄) + z_{power}·√(p1·q1 + p2·q2))² / (p1-p2)²
//
// with p̄ the mean of the two rates. Equal rates are never separable, so
// p1 == p2 is an error rather than +Inf.
func RequiredTrialsTwoProportions(p1, p2, alpha, power float64) (int, error) {
	if p1 < 0 || p1 > 1 || p2 < 0 || p2 > 1 {
		return 0, fmt.Errorf("stats: proportions %v, %v out of [0,1]", p1, p2)
	}
	if alpha <= 0 || alpha >= 1 || power <= 0 || power >= 1 {
		return 0, fmt.Errorf("stats: alpha %v / power %v out of (0,1)", alpha, power)
	}
	if p1 == p2 {
		return 0, fmt.Errorf("stats: equal proportions %v are not separable", p1)
	}
	pbar := (p1 + p2) / 2
	za := zQuantile(1 - alpha/2)
	zb := zQuantile(power)
	num := za*math.Sqrt(2*pbar*(1-pbar)) + zb*math.Sqrt(p1*(1-p1)+p2*(1-p2))
	n := (num * num) / ((p1 - p2) * (p1 - p2))
	return int(math.Ceil(n)), nil
}

// BootstrapMeanCI estimates a 95 % confidence interval for the mean of xs
// by resampling.
func BootstrapMeanCI(stream *simkernel.Stream, xs []float64, iterations int) (lo, hi float64, err error) {
	if len(xs) == 0 {
		return 0, 0, ErrEmpty
	}
	if iterations <= 0 {
		iterations = 1000
	}
	means := make([]float64, iterations)
	for i := range means {
		var sum float64
		for j := 0; j < len(xs); j++ {
			sum += xs[stream.Pick(len(xs))]
		}
		means[i] = sum / float64(len(xs))
	}
	sort.Float64s(means)
	return Quantile(means, 0.025), Quantile(means, 0.975), nil
}
