package experiments

import (
	"bytes"
	"context"
	"slices"
	"strings"
	"testing"

	"repro/internal/report"
)

// tinyCfg keeps experiment tests fast.
func tinyCfg() Config {
	return Config{BRAMs: 100, Runs: 6, TrainSamples: 1200, TestSamples: 300, Workers: 8}
}

func TestRegistryComplete(t *testing.T) {
	// Every table and figure of the paper's evaluation must be registered.
	want := []string{
		"fig1-guardbands", "table1-specs", "fig3-fault-power", "fig4-patterns",
		"table2-stability", "fig5-clustering", "fig6-fvm", "fig7-die2die",
		"fig8-temperature", "fig9-precision", "table3-nn-spec",
		"fig10-power-breakdown", "fig11-nn-error", "fig12-icbp-flow",
		"fig13-layer-vuln", "fig14-icbp",
	}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for i, id := range want {
		if all[i].ID != id {
			t.Fatalf("experiment %d = %s, want %s (paper order)", i, all[i].ID, id)
		}
	}
}

func TestSummaryConsolidates(t *testing.T) {
	results := []*Result{
		{ID: "a", Comparisons: []report.Comparison{{Metric: "m1", Paper: 1, Measured: 1.1}}},
		{ID: "b", Comparisons: []report.Comparison{
			{Metric: "m2", Paper: 2, Measured: 2},
			{Metric: "m3", Paper: 3, Measured: 2.7},
		}},
	}
	tab := Summary(results)
	if tab.NumRows() != 3 {
		t.Fatalf("summary rows = %d, want 3", tab.NumRows())
	}
	out := tab.String()
	for _, want := range []string{"m1", "m2", "m3", "a", "b"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestByID(t *testing.T) {
	if _, err := ByID("fig3-fault-power"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByID("fig99"); err == nil {
		t.Fatal("unknown id should fail")
	}
}

func runOne(t *testing.T, id string) *Result {
	t.Helper()
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run(context.Background(), tinyCfg())
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if r.ID != id {
		t.Fatalf("result id %s for experiment %s", r.ID, id)
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if buf.Len() == 0 {
		t.Fatalf("%s rendered nothing", id)
	}
	return r
}

func TestTable1(t *testing.T) {
	r := runOne(t, "table1-specs")
	if r.Tables[0].NumRows() != 4 {
		t.Fatalf("Table I rows = %d", r.Tables[0].NumRows())
	}
}

func TestFig1(t *testing.T) {
	r := runOne(t, "fig1-guardbands")
	// Average guardbands should land on the paper's 39%/34%.
	for _, c := range r.Comparisons {
		if strings.HasPrefix(c.Metric, "avg ") && c.RelErr() > 0.08 {
			t.Fatalf("%s: paper %v, measured %v", c.Metric, c.Paper, c.Measured)
		}
	}
}

func TestFig3CalibratedRates(t *testing.T) {
	r := runOne(t, "fig3-fault-power")
	for _, c := range r.Comparisons {
		if strings.Contains(c.Metric, "faults/Mbit") {
			if c.RelErr() > 0.45 {
				t.Fatalf("%s: paper %v, measured %v (rel err %v)",
					c.Metric, c.Paper, c.Measured, c.RelErr())
			}
		}
		if strings.Contains(c.Metric, "power gain") && c.Measured < 10 {
			t.Fatalf("%s: measured %vx, want >10x", c.Metric, c.Measured)
		}
	}
	if len(r.Figures) != 4 {
		t.Fatalf("fig3 should chart all four platforms, got %d", len(r.Figures))
	}
}

func TestFig4PatternRatios(t *testing.T) {
	r := runOne(t, "fig4-patterns")
	for _, c := range r.Comparisons {
		switch {
		case strings.Contains(c.Metric, "FFFF / AAAA"):
			if c.Measured < 1.5 || c.Measured > 2.8 {
				t.Fatalf("pattern ratio = %v, want ~2", c.Measured)
			}
		case strings.Contains(c.Metric, "flip share"):
			if c.Measured < 0.99 {
				t.Fatalf("1->0 share = %v", c.Measured)
			}
		}
	}
}

func TestTable2Stability(t *testing.T) {
	r := runOne(t, "table2-stability")
	if r.Tables[0].NumRows() != 4 {
		t.Fatalf("Table II rows = %d", r.Tables[0].NumRows())
	}
	var metrics []string
	for _, c := range r.Comparisons {
		metrics = append(metrics, c.Metric)
	}
	if want := []string{"VC707 avg", "VC707 stddev", "ZC702 avg", "ZC702 stddev",
		"KC705-A avg", "KC705-A stddev", "KC705-B avg", "KC705-B stddev"}; !slices.Equal(metrics, want) {
		t.Fatalf("comparison metrics %q, want the table's column order %q", metrics, want)
	}
	for _, c := range r.Comparisons {
		if strings.HasSuffix(c.Metric, " avg") && c.RelErr() > 0.45 {
			t.Fatalf("%s rel err %v", c.Metric, c.RelErr())
		}
	}
}

func TestFig5Clustering(t *testing.T) {
	r := runOne(t, "fig5-clustering")
	for _, c := range r.Comparisons {
		if c.Metric == "low-vulnerable share" && (c.Measured < 0.6 || c.Measured > 1.0) {
			t.Fatalf("low share = %v", c.Measured)
		}
		if c.Metric == "never-faulting share" && (c.Measured < 0.25 || c.Measured > 0.6) {
			t.Fatalf("zero share = %v, want near 0.389", c.Measured)
		}
	}
}

func TestFig6FVMRenders(t *testing.T) {
	r := runOne(t, "fig6-fvm")
	if len(r.Figures) < 2 {
		t.Fatal("fig6 should render the heatmap and the class map")
	}
	if !strings.Contains(r.Figures[0], "FVM VC707") {
		t.Fatalf("FVM render missing header:\n%s", r.Figures[0][:80])
	}
}

func TestFig7DieToDie(t *testing.T) {
	r := runOne(t, "fig7-die2die")
	for _, c := range r.Comparisons {
		if c.Metric == "KC705-A/B fault ratio" {
			if c.Measured < 2 || c.Measured > 9 {
				t.Fatalf("A/B ratio = %v, want ~4.1", c.Measured)
			}
		}
	}
}

func TestFig8Temperature(t *testing.T) {
	r := runOne(t, "fig8-temperature")
	for _, c := range r.Comparisons {
		if c.Metric == "VC707 fault reduction 50->80C" {
			if c.Measured < 2 {
				t.Fatalf("ITD reduction = %v, want >3", c.Measured)
			}
		}
	}
	if len(r.Figures) != 2 {
		t.Fatalf("fig8 figures = %d", len(r.Figures))
	}
}

func TestFig9Precision(t *testing.T) {
	r := runOne(t, "fig9-precision")
	var first, last float64
	for _, c := range r.Comparisons {
		switch c.Metric {
		case "Layer0 digit bits":
			first = c.Measured
		case "last-layer digit bits":
			last = c.Measured
		}
	}
	// The paper's shape: hidden layers essentially stay in (-1,1); the
	// output layer needs the widest digit field.
	if first > 1 {
		t.Fatalf("layer 0 digit bits = %v, want ~0", first)
	}
	if last < first {
		t.Fatalf("output layer digit bits (%v) below layer 0 (%v)", last, first)
	}
}

func TestTable3Spec(t *testing.T) {
	r := runOne(t, "table3-nn-spec")
	for _, c := range r.Comparisons {
		switch c.Metric {
		case "total weights":
			if c.Measured != 1492224 {
				t.Fatalf("weights = %v", c.Measured)
			}
		case "BRAM usage":
			if c.RelErr() > 0.01 {
				t.Fatalf("utilization = %v, want 0.708", c.Measured)
			}
		case "weight bits that are 0":
			if c.Measured < 0.55 {
				t.Fatalf("weight sparsity = %v, want mostly zeros", c.Measured)
			}
		}
	}
}

func TestFig10PowerShape(t *testing.T) {
	r := runOne(t, "fig10-power-breakdown")
	for _, c := range r.Comparisons {
		switch c.Metric {
		case "total on-chip reduction @Vmin":
			if c.RelErr() > 0.15 {
				t.Fatalf("total reduction = %v, want ~0.241", c.Measured)
			}
		case "BRAM power reduction @Vmin":
			if c.Measured < 10 {
				t.Fatalf("BRAM reduction = %vx", c.Measured)
			}
		case "further BRAM reduction @Vcrash":
			if c.Measured < 0.30 || c.Measured > 0.50 {
				t.Fatalf("further reduction = %v, want ~0.40", c.Measured)
			}
		}
	}
}

func TestFig11ErrorShape(t *testing.T) {
	r := runOne(t, "fig11-nn-error")
	var base, atCrash float64
	for _, c := range r.Comparisons {
		switch c.Metric {
		case "baseline (fault-free) error":
			base = c.Measured
		case "error @Vcrash (default placement)":
			atCrash = c.Measured
		}
	}
	if atCrash < base-0.01 {
		t.Fatalf("error at Vcrash (%v) below baseline (%v)", atCrash, base)
	}
}

func TestFig12FlowArtifacts(t *testing.T) {
	r := runOne(t, "fig12-icbp-flow")
	found := false
	for _, f := range r.Figures {
		if strings.Contains(f, "create_pblock icbp_layer4") {
			found = true
		}
	}
	if !found {
		t.Fatal("fig12 should emit the generated XDC")
	}
	// All constrained cells must sit on zero/low-fault sites.
	for _, row := range r.Tables[0].Rows {
		if row[2] == "-1.0" {
			t.Fatalf("constrained cell %s placed on unknown site", row[0])
		}
	}
}

func TestFig13Vulnerability(t *testing.T) {
	r := runOne(t, "fig13-layer-vuln")
	if r.Tables[0].NumRows() != 5 {
		t.Fatalf("fig13 rows = %d, want 5 layers", r.Tables[0].NumRows())
	}
	for _, c := range r.Comparisons {
		if c.Metric == "outer layers larger than inner" && c.Measured != 1 {
			t.Fatal("layer size ordering broken")
		}
	}
}

func TestFig14ICBP(t *testing.T) {
	r := runOne(t, "fig14-icbp")
	if len(r.Tables) != 3 {
		t.Fatalf("fig14 tables = %d, want 3 benchmarks", len(r.Tables))
	}
	losses := map[string]float64{}
	for _, c := range r.Comparisons {
		if strings.Contains(c.Metric, "accuracy loss @Vcrash") {
			losses[c.Metric] = c.Measured
		}
		if c.Metric == "power savings @Vcrash over Vmin" {
			if c.Measured < 0.30 || c.Measured > 0.45 {
				t.Fatalf("power savings = %v, want ~0.381", c.Measured)
			}
		}
	}
	// ICBP must not lose more accuracy than default on any benchmark
	// (allowing evaluation noise of a few samples).
	for _, name := range []string{"mnist", "forest", "reuters"} {
		def := losses[name+" accuracy loss @Vcrash (default)"]
		icbp := losses[name+" accuracy loss @Vcrash (ICBP)"]
		if icbp > def+0.01 {
			t.Fatalf("%s: ICBP loss %v worse than default %v", name, icbp, def)
		}
	}
}
