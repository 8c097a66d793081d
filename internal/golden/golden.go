// Package golden compares test output with committed golden files. A test
// builds its output in full, then calls Check; `go test -update` rewrites
// the files instead of comparing against them.
package golden

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files instead of comparing against them")

// Check compares got with the golden file at path. On a mismatch it reports
// the first differing line of each side and how many lines differ. With
// -update it writes got to path (creating its directory) and passes.
func Check(t testing.TB, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run the test with -update to create it)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	g := strings.Split(string(got), "\n")
	w := strings.Split(string(want), "\n")
	first, diff := -1, 0
	for i := 0; i < max(len(g), len(w)); i++ {
		if i < len(g) && i < len(w) && g[i] == w[i] {
			continue
		}
		if first < 0 {
			first = i
		}
		diff++
	}
	t.Errorf("%s: %d lines differ; first at line %d:\n  got:  %s\n  want: %s",
		path, diff, first+1, lineAt(g, first), lineAt(w, first))
}

func lineAt(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<end of file>"
}
