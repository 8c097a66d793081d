// Package suite assembles the repo's analyzer set — the single source of
// truth shared by cmd/fpgavoltvet and the clean-tree test, so the binary CI
// runs and the test gate can never drift apart.
package suite

import (
	"repro/internal/analysis"
	"repro/internal/analysis/atomicfs"
	"repro/internal/analysis/ctxhttp"
	"repro/internal/analysis/detrand"
	"repro/internal/analysis/errclass"
	"repro/internal/analysis/secretcmp"
)

// Analyzers returns every invariant checker, in stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		atomicfs.Analyzer,
		ctxhttp.Analyzer,
		detrand.Analyzer,
		errclass.Analyzer,
		secretcmp.Analyzer,
	}
}

// Select returns the analyzers whose names are listed (nil names = all).
func Select(names []string) ([]*analysis.Analyzer, bool) {
	all := Analyzers()
	if len(names) == 0 {
		return all, true
	}
	var out []*analysis.Analyzer
	for _, n := range names {
		found := false
		for _, a := range all {
			if a.Name == n {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, false
		}
	}
	return out, true
}
