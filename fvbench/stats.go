package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// median returns the middle of xs (mean of the middle two when even), or 0
// for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailKeep is how many samples must lie beyond a reported tail percentile,
// so the tail is a measured population and not one unlucky sample.
const tailKeep = 10

// tail returns the highest nearest-rank percentile of xs that still has at
// least tailKeep samples strictly beyond it, with that percentile. ok is
// false when there are too few samples for any such percentile.
func tail(xs []float64) (value float64, pct int, ok bool) {
	n := len(xs)
	if n <= tailKeep {
		return 0, 0, false
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	for p := 99; p >= 1; p-- {
		rank := int(math.Ceil(float64(p) * float64(n) / 100)) // 1-based
		if n-rank >= tailKeep {
			return s[rank-1], p, true
		}
	}
	return 0, 0, false
}

// densityError checks that got holds every integer from lo through hi
// exactly once, in any order; it names the first gap or duplicate.
func densityError(got []int64, lo int64) error {
	if len(got) == 0 {
		return nil
	}
	s := slices.Clone(got)
	slices.Sort(s)
	if s[0] != lo {
		return fmt.Errorf("sequence starts at %d, want %d", s[0], lo)
	}
	for i := 1; i < len(s); i++ {
		switch d := s[i] - s[i-1]; {
		case d == 0:
			return fmt.Errorf("sequence %d delivered twice", s[i])
		case d > 1:
			return fmt.Errorf("sequence gap: %d..%d missing", s[i-1]+1, s[i]-1)
		}
	}
	return nil
}
