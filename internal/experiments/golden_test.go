package experiments

import (
	"context"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/golden"
)

// raceDetector is set when the test binary runs under the race detector.
var raceDetector bool

// TestComparisonsGolden pins every experiment's paper-vs-measured rows at
// the default scale, measured values in full precision, against
// testdata/comparisons.golden. The worker count is pinned because NN
// training sums each batch's gradients per worker shard, so the trained
// weights, and every number downstream of them, depend on it. Rewrite the
// file with -update only for an intended change of the numbers.
func TestComparisonsGolden(t *testing.T) {
	if raceDetector {
		t.Skip("the default-scale run takes about ten minutes under the race detector; " +
			"go test without -race and the science-golden CI job run it")
	}
	cfg := Config{Workers: 2}
	full := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	var b strings.Builder
	for _, e := range All() {
		r, err := e.Run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		for _, c := range r.Comparisons {
			fmt.Fprintf(&b, "%s\t%s\t%s\t%s\t%s\t%s\n",
				r.ID, c.Metric, full(c.Paper), full(c.Measured), c.Unit, c.Note)
		}
	}
	golden.Check(t, filepath.Join("testdata", "comparisons.golden"), []byte(b.String()))
}
