package suite

import (
	"path/filepath"
	"testing"

	"repro/internal/analysis"
)

// TestTreeIsClean is the acceptance gate behind `make lint`: every analyzer
// over every package in the repo, test files included, must report nothing.
// Fixture packages under testdata are excluded by ./... just as they are for
// builds, so deliberate violations in fixtures cannot trip it.
func TestTreeIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole tree; skipped in -short")
	}
	root, err := filepath.Abs("../../..")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := analysis.Load(analysis.LoadConfig{Dir: root, Tests: true}, "./...")
	if err != nil {
		t.Fatalf("load ./... from %s: %v", root, err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loaded no packages")
	}
	diags, err := analysis.Run(Analyzers(), pkgs)
	if err != nil {
		t.Fatalf("run suite: %v", err)
	}
	for _, d := range diags {
		t.Errorf("finding on supposedly clean tree: %s", d)
	}
}

func TestSelect(t *testing.T) {
	if got, ok := Select(nil); !ok || len(got) != len(Analyzers()) {
		t.Fatalf("Select(nil) = %d analyzers, ok=%v", len(got), ok)
	}
	got, ok := Select([]string{"secretcmp", "errclass"})
	if !ok || len(got) != 2 || got[0].Name != "secretcmp" || got[1].Name != "errclass" {
		t.Fatalf("Select(secretcmp,errclass) = %v, ok=%v", got, ok)
	}
	if _, ok := Select([]string{"nosuchcheck"}); ok {
		t.Fatal("Select accepted an unknown analyzer name")
	}
}
