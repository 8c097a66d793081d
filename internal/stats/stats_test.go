package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 {
		t.Fatalf("N = %d", s.N)
	}
	if !almost(s.Mean, 5, 1e-12) {
		t.Fatalf("Mean = %v", s.Mean)
	}
	if !almost(s.StdDev, 2, 1e-12) {
		t.Fatalf("StdDev = %v, want 2 (classic example)", s.StdDev)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Fatalf("Min/Max = %v/%v", s.Min, s.Max)
	}
	if !almost(s.Median, 4.5, 1e-12) {
		t.Fatalf("Median = %v", s.Median)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 || s.StdDev != 0 {
		t.Fatalf("empty summary not zero: %+v", s)
	}
}

func TestSummarizeInts(t *testing.T) {
	s := SummarizeInts([]int{652, 630, 669})
	if s.Min != 630 || s.Max != 669 {
		t.Fatalf("ints summary wrong: %+v", s)
	}
}

func TestMedianOddEven(t *testing.T) {
	if m := Median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("odd median = %v", m)
	}
	if m := Median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("even median = %v", m)
	}
	if m := Median(nil); m != 0 {
		t.Fatalf("empty median = %v", m)
	}
	// Median must not mutate its argument.
	in := []float64{9, 1, 5}
	Median(in)
	if in[0] != 9 || in[1] != 1 || in[2] != 5 {
		t.Fatal("Median mutated input")
	}
}

// TestMedianIntsInPlaceMatchesMedian pins the in-place integer median to
// Median over the converted sample, bit for bit, on empty, odd and even
// samples.
func TestMedianIntsInPlaceMatchesMedian(t *testing.T) {
	f := func(xs []int32) bool {
		ints := make([]int, len(xs))
		fs := make([]float64, len(xs))
		for i, x := range xs {
			ints[i], fs[i] = int(x), float64(x)
		}
		return MedianIntsInPlace(ints) == Median(fs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	for _, xs := range [][]int32{nil, {7}, {3, 1}, {5, 2, 9}, {1, 1, 4, 4}} {
		if !f(xs) {
			t.Fatalf("MedianIntsInPlace(%v) != Median", xs)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	if q := Quantile(xs, 0); q != 10 {
		t.Fatalf("q0 = %v", q)
	}
	if q := Quantile(xs, 1); q != 50 {
		t.Fatalf("q1 = %v", q)
	}
	if q := Quantile(xs, 0.5); q != 30 {
		t.Fatalf("q0.5 = %v", q)
	}
	if q := Quantile(xs, 0.25); q != 20 {
		t.Fatalf("q0.25 = %v", q)
	}
	if q := Quantile(xs, 0.125); !almost(q, 15, 1e-12) {
		t.Fatalf("q0.125 = %v, want 15 (interpolated)", q)
	}
}

func TestFitExponentialRecovers(t *testing.T) {
	// Generate y = 3*exp(-80x) exactly; the fit must recover A and B.
	var xs, ys []float64
	for v := 0.54; v <= 0.61; v += 0.01 {
		xs = append(xs, v)
		ys = append(ys, 3*math.Exp(-80*v))
	}
	f, err := FitExponential(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(f.B, -80, 1e-6) {
		t.Fatalf("B = %v, want -80", f.B)
	}
	if !almost(f.A, 3, 1e-6) {
		t.Fatalf("A = %v, want 3", f.A)
	}
	if f.R2 < 0.999999 {
		t.Fatalf("R2 = %v on exact data", f.R2)
	}
	if got := f.Eval(0.57); !almost(got, 3*math.Exp(-80*0.57), 1e-9) {
		t.Fatalf("Eval mismatch: %v", got)
	}
}

func TestFitExponentialSkipsZeros(t *testing.T) {
	xs := []float64{0.61, 0.60, 0.59, 0.58}
	ys := []float64{0, 0, 2 * math.Exp(-50*0.59), 2 * math.Exp(-50*0.58)}
	f, err := FitExponential(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(f.B, -50, 1e-6) {
		t.Fatalf("B = %v", f.B)
	}
}

func TestFitExponentialDegenerate(t *testing.T) {
	if _, err := FitExponential([]float64{1, 2}, []float64{0, 0}); err == nil {
		t.Fatal("want error on all-zero ys")
	}
	if _, err := FitExponential([]float64{1}, []float64{2, 3}); err == nil {
		t.Fatal("want error on mismatched lengths")
	}
}

func TestFitLinear(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{3, 5, 7, 9} // y = 2x + 1
	f, err := FitLinear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(f.Slope, 2, 1e-12) || !almost(f.Intercept, 1, 1e-12) {
		t.Fatalf("fit = %+v", f)
	}
	if !almost(f.Eval(10), 21, 1e-12) {
		t.Fatalf("Eval(10) = %v", f.Eval(10))
	}
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if r := Pearson(xs, ys); !almost(r, 1, 1e-12) {
		t.Fatalf("perfect positive r = %v", r)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if r := Pearson(xs, neg); !almost(r, -1, 1e-12) {
		t.Fatalf("perfect negative r = %v", r)
	}
	flat := []float64{5, 5, 5, 5, 5}
	if r := Pearson(xs, flat); r != 0 {
		t.Fatalf("zero-variance r = %v", r)
	}
}

func TestHistogram(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	h := NewHistogram(xs, 5)
	if h.Total != 10 {
		t.Fatalf("Total = %d", h.Total)
	}
	sum := 0
	for _, c := range h.Counts {
		sum += c
	}
	if sum != 10 {
		t.Fatalf("bin counts sum = %d", sum)
	}
	// The max value must land in the last bin, not overflow.
	if h.Counts[4] == 0 {
		t.Fatal("max value missing from last bin")
	}
	if c := h.BinCenter(0); !almost(c, 0.9, 1e-12) {
		t.Fatalf("BinCenter(0) = %v", c)
	}
}

func TestHistogramDegenerate(t *testing.T) {
	h := NewHistogram([]float64{5, 5, 5}, 4)
	if h.Total != 3 {
		t.Fatalf("constant-sample histogram total = %d", h.Total)
	}
	if h := NewHistogram(nil, 4); h.Total != 0 {
		t.Fatal("empty histogram should be zero")
	}
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{1, 10, 100}); !almost(g, 10, 1e-9) {
		t.Fatalf("GeoMean = %v", g)
	}
	if g := GeoMean([]float64{0, -1}); g != 0 {
		t.Fatalf("GeoMean of non-positives = %v", g)
	}
}

func TestRelErr(t *testing.T) {
	if e := RelErr(110, 100); !almost(e, 0.1, 1e-12) {
		t.Fatalf("RelErr = %v", e)
	}
	if e := RelErr(5, 0); e != 5 {
		t.Fatalf("RelErr vs zero = %v", e)
	}
}

func TestQuickSummaryInvariants(t *testing.T) {
	// Property: min <= median <= max, min <= mean <= max, stddev >= 0.
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e9 {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := Summarize(xs)
		return s.Min <= s.Median+1e-9 && s.Median <= s.Max+1e-9 &&
			s.Min <= s.Mean+1e-6 && s.Mean <= s.Max+1e-6 && s.StdDev >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickQuantileMonotone(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		qa := math.Mod(math.Abs(a), 1)
		qb := math.Mod(math.Abs(b), 1)
		if qa > qb {
			qa, qb = qb, qa
		}
		return Quantile(xs, qa) <= Quantile(xs, qb)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
