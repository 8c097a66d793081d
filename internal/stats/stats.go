// Package stats provides the small statistical toolkit the characterization
// harness needs: run summaries (Table II), medians of repeated measurements
// (the paper reports the median of 100 runs per voltage level), exponential
// fits for the fault-rate-vs-voltage curves (Fig. 3), histograms for the
// per-BRAM fault distributions (Fig. 5), and correlation measures.
package stats

import (
	"errors"
	"math"
	"slices"
	"sort"
)

// Summary holds the descriptive statistics of a sample, matching the rows the
// paper reports in Table II (average, minimum, maximum, standard deviation)
// plus the median used throughout Section II.
type Summary struct {
	N      int
	Mean   float64
	Median float64
	Min    float64
	Max    float64
	StdDev float64 // population standard deviation
	Sum    float64
}

// Summarize computes a Summary over xs. It returns a zero Summary when xs is
// empty.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	for _, x := range xs {
		s.Sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = s.Sum / float64(s.N)
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	s.StdDev = math.Sqrt(ss / float64(s.N))
	s.Median = Median(xs)
	return s
}

// SummarizeInts is Summarize over an integer sample (fault counts).
func SummarizeInts(xs []int) Summary {
	fs := make([]float64, len(xs))
	for i, x := range xs {
		fs[i] = float64(x)
	}
	return Summarize(fs)
}

// Median returns the median of xs without modifying it. It returns 0 for an
// empty sample.
func Median(xs []float64) float64 {
	switch len(xs) {
	case 0:
		return 0
	case 1:
		return xs[0]
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	mid := len(cp) / 2
	if len(cp)%2 == 1 {
		return cp[mid]
	}
	return (cp[mid-1] + cp[mid]) / 2
}

// MedianIntsInPlace returns the median of an integer sample as a float64,
// exactly as Median would over the converted sample. It sorts xs in place
// instead of copying it.
func MedianIntsInPlace(xs []int) float64 {
	slices.Sort(xs)
	n := len(xs)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return float64(xs[n/2])
	}
	return (float64(xs[n/2-1]) + float64(xs[n/2])) / 2
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. It returns 0 for an empty sample.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if q <= 0 {
		return minOf(xs)
	}
	if q >= 1 {
		return maxOf(xs)
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	pos := q * float64(len(cp)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return cp[lo]
	}
	frac := pos - float64(lo)
	return cp[lo]*(1-frac) + cp[hi]*frac
}

func minOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// ExpFit holds the parameters of y = A * exp(B*x), fitted by linear
// regression on log(y). R2 is the coefficient of determination in log space.
type ExpFit struct {
	A, B float64
	R2   float64
}

// ErrDegenerate is returned when a fit has too few usable points.
var ErrDegenerate = errors.New("stats: degenerate fit (need >= 2 points with y > 0)")

// FitExponential fits y = A*exp(B*x) to the points with y > 0. The paper's
// fault-rate curves grow exponentially as voltage decreases, so B < 0 when x
// is voltage.
func FitExponential(xs, ys []float64) (ExpFit, error) {
	if len(xs) != len(ys) {
		return ExpFit{}, errors.New("stats: mismatched lengths")
	}
	var lx, ly []float64
	for i := range xs {
		if ys[i] > 0 {
			lx = append(lx, xs[i])
			ly = append(ly, math.Log(ys[i]))
		}
	}
	if len(lx) < 2 {
		return ExpFit{}, ErrDegenerate
	}
	slope, intercept, r2 := linearRegression(lx, ly)
	return ExpFit{A: math.Exp(intercept), B: slope, R2: r2}, nil
}

// Eval evaluates the fitted curve at x.
func (f ExpFit) Eval(x float64) float64 { return f.A * math.Exp(f.B*x) }

// linearRegression returns the least-squares slope, intercept and R² of
// y = slope*x + intercept.
func linearRegression(xs, ys []float64) (slope, intercept, r2 float64) {
	n := float64(len(xs))
	var sx, sy, sxx, sxy, syy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
		syy += ys[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, sy / n, 0
	}
	slope = (n*sxy - sx*sy) / den
	intercept = (sy - slope*sx) / n
	ssTot := syy - sy*sy/n
	if ssTot == 0 {
		return slope, intercept, 1
	}
	var ssRes float64
	for i := range xs {
		d := ys[i] - (slope*xs[i] + intercept)
		ssRes += d * d
	}
	r2 = 1 - ssRes/ssTot
	return slope, intercept, r2
}

// LinearFit fits y = Slope*x + Intercept by least squares.
type LinearFit struct {
	Slope, Intercept, R2 float64
}

// FitLinear performs ordinary least-squares regression.
func FitLinear(xs, ys []float64) (LinearFit, error) {
	if len(xs) != len(ys) || len(xs) < 2 {
		return LinearFit{}, ErrDegenerate
	}
	s, i, r := linearRegression(xs, ys)
	return LinearFit{Slope: s, Intercept: i, R2: r}, nil
}

// Eval evaluates the fitted line at x.
func (f LinearFit) Eval(x float64) float64 { return f.Slope*x + f.Intercept }

// Pearson returns the Pearson correlation coefficient of the two samples,
// or 0 when either sample has zero variance.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) == 0 {
		return 0
	}
	n := float64(len(xs))
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var cov, vx, vy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if vx == 0 || vy == 0 {
		return 0
	}
	return cov / math.Sqrt(vx*vy)
}

// Histogram is a fixed-width binning of a sample.
type Histogram struct {
	Min, Max float64
	Width    float64
	Counts   []int
	Total    int
}

// NewHistogram bins xs into n equal-width bins spanning [min(xs), max(xs)].
// Values equal to the maximum land in the last bin.
func NewHistogram(xs []float64, n int) Histogram {
	if n <= 0 || len(xs) == 0 {
		return Histogram{}
	}
	lo, hi := minOf(xs), maxOf(xs)
	if hi == lo {
		hi = lo + 1
	}
	h := Histogram{Min: lo, Max: hi, Width: (hi - lo) / float64(n), Counts: make([]int, n)}
	for _, x := range xs {
		bin := int((x - lo) / h.Width)
		if bin >= n {
			bin = n - 1
		}
		if bin < 0 {
			bin = 0
		}
		h.Counts[bin]++
		h.Total++
	}
	return h
}

// BinCenter returns the center value of bin i.
func (h Histogram) BinCenter(i int) float64 {
	return h.Min + (float64(i)+0.5)*h.Width
}

// GeoMean returns the geometric mean of the positive entries of xs, or 0 if
// none are positive.
func GeoMean(xs []float64) float64 {
	var sum float64
	n := 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// RelErr returns the relative error |got-want|/|want|, or |got| when want is
// zero. Used by the experiment reports to compare measured values against the
// paper's published numbers.
func RelErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}
