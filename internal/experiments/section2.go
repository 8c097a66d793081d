package experiments

import (
	"context"
	"fmt"
	"math"

	"repro/internal/characterize"
	"repro/internal/fvm"
	"repro/internal/platform"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/textplot"
)

// Section II experiments: BRAM undervolting characterization.

func init() {
	register(Experiment{ID: "table1-specs", Title: "Table I: tested platform specifications", Run: runTable1})
	register(Experiment{ID: "fig1-guardbands", Title: "Fig. 1: voltage guardbands of VCCBRAM and VCCINT", Run: runFig1})
	register(Experiment{ID: "fig3-fault-power", Title: "Fig. 3: fault rate and BRAM power vs VCCBRAM", Run: runFig3})
	register(Experiment{ID: "fig4-patterns", Title: "Fig. 4: data-pattern impact on fault rate (VC707)", Run: runFig4})
	register(Experiment{ID: "table2-stability", Title: "Table II: fault stability over 100 runs", Run: runTable2})
	register(Experiment{ID: "fig5-clustering", Title: "Fig. 5: k-means vulnerability classes (VC707)", Run: runFig5})
	register(Experiment{ID: "fig6-fvm", Title: "Fig. 6: Fault Variation Map of VC707", Run: runFig6})
	register(Experiment{ID: "fig7-die2die", Title: "Fig. 7: die-to-die FVM comparison (KC705-A vs KC705-B)", Run: runFig7})
	register(Experiment{ID: "fig8-temperature", Title: "Fig. 8: temperature vs fault rate (ITD)", Run: runFig8})
}

func runTable1(ctx context.Context, cfg Config) (*Result, error) {
	t := report.NewTable("Table I: specifications of tested FPGA platforms",
		"board", "family", "chip", "speed", "S/N", "#BRAMs", "BRAM size", "process", "Vnom")
	for _, p := range platform.All() {
		t.AddRow(p.Name, p.Family, p.ChipModel, p.SpeedGrade, p.Serial,
			fmt.Sprintf("%d", p.NumBRAMs), "1024*16-bits", fmt.Sprintf("%dnm", p.ProcessNm),
			report.F(p.Cal.Vnom, 2)+"V")
	}
	var comps []report.Comparison
	for _, p := range platform.All() {
		comps = append(comps, report.Comparison{
			Metric: p.Name + " #BRAMs", Paper: float64(p.NumBRAMs),
			Measured: float64(p.NumBRAMs), Unit: "BRAMs",
		})
	}
	return &Result{ID: "table1-specs", Title: "platform specifications",
		Tables: []*report.Table{t}, Comparisons: comps}, nil
}

func runFig1(ctx context.Context, cfg Config) (*Result, error) {
	c := cfg.effective()
	t := report.NewTable("Fig. 1: discovered thresholds (10 mV sweep from nominal)",
		"board", "rail", "Vnom", "Vmin", "Vcrash", "guardband")
	var comps []report.Comparison
	var gbBRAM, gbInt float64
	for _, p := range platform.All() {
		b := c.boardFor(p)
		thB, err := characterize.DiscoverBRAMThresholds(ctx, b, 2)
		if err != nil {
			return nil, err
		}
		thI, err := characterize.DiscoverIntThresholds(ctx, b)
		if err != nil {
			return nil, err
		}
		t.AddRow(p.Name, "VCCBRAM", report.F(thB.Vnom, 2), report.F(thB.Vmin, 2),
			report.F(thB.Vcrash, 2), report.Pct(thB.GuardbandFrac(), 1))
		t.AddRow(p.Name, "VCCINT", report.F(thI.Vnom, 2), report.F(thI.Vmin, 2),
			report.F(thI.Vcrash, 2), report.Pct(thI.GuardbandFrac(), 1))
		gbBRAM += thB.GuardbandFrac()
		gbInt += thI.GuardbandFrac()
		comps = append(comps,
			report.Comparison{Metric: p.Name + " VCCBRAM Vmin", Paper: p.Cal.Vmin, Measured: thB.Vmin, Unit: "V"},
			report.Comparison{Metric: p.Name + " VCCBRAM Vcrash", Paper: p.Cal.Vcrash, Measured: thB.Vcrash, Unit: "V"},
		)
	}
	comps = append(comps,
		report.Comparison{Metric: "avg VCCBRAM guardband", Paper: 0.39, Measured: gbBRAM / 4, Unit: "frac"},
		report.Comparison{Metric: "avg VCCINT guardband", Paper: 0.34, Measured: gbInt / 4, Unit: "frac"},
	)
	return &Result{ID: "fig1-guardbands", Title: "voltage guardbands",
		Tables: []*report.Table{t}, Comparisons: comps}, nil
}

// paperVcrashRates are the published chip-level fault rates at Vcrash
// (faults per Mbit, pattern 0xFFFF).
var paperVcrashRates = map[string]float64{
	"VC707": 652, "ZC702": 153, "KC705-A": 254, "KC705-B": 60,
}

func runFig3(ctx context.Context, cfg Config) (*Result, error) {
	c := cfg.effective()
	res := &Result{ID: "fig3-fault-power", Title: "fault rate and power vs voltage"}
	for _, p := range platform.All() {
		b := c.boardFor(p)
		s, err := characterize.Run(ctx, b, characterize.Options{Runs: c.Runs, Workers: c.Workers})
		if err != nil {
			return nil, err
		}
		unit := p.PowerUnit
		scale := 1.0
		if unit == "mW" {
			scale = 1000
		}
		t := report.NewTable(fmt.Sprintf("Fig. 3 (%s): undervolting VCCBRAM below Vmin", p.Name),
			"VCCBRAM (V)", "faults/Mbit (median)", "BRAM power ("+unit+")", "meter ("+unit+")")
		var vs, fr, pw []float64
		for _, l := range s.Levels {
			t.AddRow(report.F(l.V, 2), report.F(l.FaultsPerMbit, 1),
				report.F(l.BRAMPowerW*scale, 2), report.F(l.MeterPowerW*scale, 2))
			vs = append(vs, l.V)
			fr = append(fr, l.FaultsPerMbit)
			pw = append(pw, l.BRAMPowerW*scale)
		}
		res.Tables = append(res.Tables, t)
		res.Figures = append(res.Figures, textplot.LineChart(
			fmt.Sprintf("Fig. 3 (%s): faults/Mbit (*) and BRAM %s (o) vs VCCBRAM", p.Name, unit),
			56, 12,
			textplot.Series{Name: "faults/Mbit", X: vs, Y: fr},
			textplot.Series{Name: "BRAM power (" + unit + ")", X: vs, Y: pw},
		))
		res.Comparisons = append(res.Comparisons, report.Comparison{
			Metric:   p.Name + " faults/Mbit @Vcrash",
			Paper:    paperVcrashRates[p.Name],
			Measured: s.Final().FaultsPerMbit,
			Unit:     "faults/Mbit",
		})
		// Power gain at Vmin over Vnom (paper: more than an order of magnitude).
		nomPower := b.BRAMPowerW()
		res.Comparisons = append(res.Comparisons, report.Comparison{
			Metric:   p.Name + " BRAM power gain @Vmin",
			Paper:    10, // ">10x"
			Measured: nomPower / s.Levels[0].BRAMPowerW,
			Unit:     "x",
			Note:     "paper reports >10x",
		})
	}
	return res, nil
}

func runFig4(ctx context.Context, cfg Config) (*Result, error) {
	c := cfg.effective()
	b := c.boardFor(platform.VC707())
	v := b.Platform.Cal.Vcrash
	results, err := characterize.RunPatternStudy(ctx, b, v, []characterize.Options{
		{Pattern: 0xFFFF},
		{Pattern: 0xAAAA},
		{Pattern: 0x5555},
		{RandomFill: true},
		{ZeroFill: true, PatternName: "16'h0000"},
	}, c.Runs)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Fig. 4: fault rate vs initial data pattern (VC707 @ Vcrash)",
		"pattern", "faults/Mbit", "share of 1->0 flips")
	var bars []textplot.Bar
	for _, r := range results {
		t.AddRow(r.Name, report.F(r.FaultsPerMbit, 1), report.Pct(r.Flip10Share, 2))
		bars = append(bars, textplot.Bar{Label: r.Name, Value: r.FaultsPerMbit})
	}
	ffff, aaaa := results[0], results[1]
	comps := []report.Comparison{
		{Metric: "FFFF / AAAA rate ratio", Paper: 2.0, Measured: ffff.FaultsPerMbit / math.Max(aaaa.FaultsPerMbit, 1e-9), Unit: "x"},
		{Metric: "1->0 flip share (FFFF)", Paper: 0.999, Measured: ffff.Flip10Share, Unit: "frac"},
	}
	return &Result{ID: "fig4-patterns", Title: "data-pattern impact",
		Tables:      []*report.Table{t},
		Figures:     []string{textplot.BarChart("Fig. 4: faults/Mbit by pattern", 40, bars)},
		Comparisons: comps}, nil
}

// paperTable2 is the published Table II (average/min/max/stddev of the 100
// runs at Vcrash, pattern 0xFFFF).
var paperTable2 = map[string][4]float64{
	"VC707":   {652, 630, 669, 7.3},
	"ZC702":   {153, 140, 162, 5.9},
	"KC705-A": {254, 237, 264, 4.8},
	"KC705-B": {60, 51, 69, 1.8},
}

func runTable2(ctx context.Context, cfg Config) (*Result, error) {
	c := cfg.effective()
	t := report.NewTable("Table II: fault stability over consecutive runs at Vcrash (faults/Mbit)",
		"metric", "VC707", "ZC702", "KC705-A", "KC705-B")
	cells := map[string]stats.Summary{}
	for _, p := range platform.All() {
		b := c.boardFor(p)
		s, err := characterize.Run(ctx, b, characterize.Options{
			Runs: c.Runs, Workers: c.Workers,
			VStart: p.Cal.Vcrash, VStop: p.Cal.Vcrash,
		})
		if err != nil {
			return nil, err
		}
		// Normalize the run totals to per-Mbit for comparability with the
		// paper's table.
		mbits := b.Pool.TotalMbits()
		var norm []float64
		for _, n := range s.Final().RunTotals {
			norm = append(norm, float64(n)/mbits)
		}
		cells[p.Name] = stats.Summarize(norm)
	}
	row := func(label string, f func(stats.Summary) float64, dec int) {
		t.AddRow(label,
			report.F(f(cells["VC707"]), dec), report.F(f(cells["ZC702"]), dec),
			report.F(f(cells["KC705-A"]), dec), report.F(f(cells["KC705-B"]), dec))
	}
	row("AVERAGE fault rate", func(s stats.Summary) float64 { return s.Mean }, 1)
	row("MINIMUM fault rate", func(s stats.Summary) float64 { return s.Min }, 1)
	row("MAXIMUM fault rate", func(s stats.Summary) float64 { return s.Max }, 1)
	row("STD.DEV of fault rates", func(s stats.Summary) float64 { return s.StdDev }, 2)

	var comps []report.Comparison
	for _, name := range []string{"VC707", "ZC702", "KC705-A", "KC705-B"} { // the table's column order
		want, got := paperTable2[name], cells[name]
		comps = append(comps,
			report.Comparison{Metric: name + " avg", Paper: want[0], Measured: got.Mean, Unit: "faults/Mbit"},
			report.Comparison{Metric: name + " stddev", Paper: want[3], Measured: got.StdDev, Unit: "faults/Mbit",
				Note: "jitter-band calibration"},
		)
	}
	return &Result{ID: "table2-stability", Title: "fault stability",
		Tables: []*report.Table{t}, Comparisons: comps}, nil
}

func runFig5(ctx context.Context, cfg Config) (*Result, error) {
	c := cfg.effective()
	b := c.boardFor(platform.VC707())
	m, _, err := extractFVM(ctx, b, c.Runs, c.Workers)
	if err != nil {
		return nil, err
	}
	classes, res, err := m.Classify(3)
	if err != nil {
		return nil, err
	}
	_ = classes
	t := report.NewTable("Fig. 5: k-means clustering of per-BRAM fault rates (VC707 @ Vcrash)",
		"class", "#BRAMs", "share", "avg faults/BRAM", "avg rate")
	for k := 0; k < res.K; k++ {
		mean := res.MeanOf(m.Counts, k)
		t.AddRow(fvm.Class(k).String(), fmt.Sprintf("%d", res.Sizes[k]),
			report.Pct(res.ShareOf(k), 1), report.F(mean, 1),
			report.Pct(mean/16384, 3))
	}
	sum := m.Summary()
	comps := []report.Comparison{
		{Metric: "low-vulnerable share", Paper: 0.886, Measured: res.ShareOf(0), Unit: "frac"},
		{Metric: "never-faulting share", Paper: 0.389, Measured: m.ZeroShare(), Unit: "frac"},
		{Metric: "max per-BRAM rate", Paper: 0.0284, Measured: sum.Max, Unit: "frac"},
		{Metric: "low-class avg faults/BRAM", Paper: 3.4, Measured: res.MeanOf(m.Counts, 0), Unit: "faults"},
	}
	return &Result{ID: "fig5-clustering", Title: "vulnerability clustering",
		Tables: []*report.Table{t}, Comparisons: comps}, nil
}

func runFig6(ctx context.Context, cfg Config) (*Result, error) {
	c := cfg.effective()
	b := c.boardFor(platform.VC707())
	m, _, err := extractFVM(ctx, b, c.Runs, c.Workers)
	if err != nil {
		return nil, err
	}
	classRender, err := m.RenderClasses()
	if err != nil {
		return nil, err
	}
	sum := m.Summary()
	t := report.NewTable("Fig. 6: FVM summary (VC707)",
		"metric", "value")
	t.AddRow("sites", fmt.Sprintf("%d", m.NumSites()))
	t.AddRow("zero-fault share", report.Pct(m.ZeroShare(), 1))
	t.AddRow("max per-BRAM rate", report.Pct(sum.Max, 2))
	t.AddRow("mean per-BRAM rate", report.Pct(sum.Mean, 3))
	return &Result{ID: "fig6-fvm", Title: "fault variation map",
		Tables:  []*report.Table{t},
		Figures: []string{m.Render(), classRender},
		Comparisons: []report.Comparison{
			{Metric: "never-faulting BRAMs", Paper: 0.389, Measured: m.ZeroShare(), Unit: "frac"},
		}}, nil
}

func runFig7(ctx context.Context, cfg Config) (*Result, error) {
	c := cfg.effective()
	ba := c.boardFor(platform.KC705A())
	bb := c.boardFor(platform.KC705B())
	ma, _, err := extractFVM(ctx, ba, c.Runs, c.Workers)
	if err != nil {
		return nil, err
	}
	mb, _, err := extractFVM(ctx, bb, c.Runs, c.Workers)
	if err != nil {
		return nil, err
	}
	ds := fvm.Diff(ma, mb)
	t := report.NewTable("Fig. 7: die-to-die comparison of identical KC705 samples",
		"metric", "value")
	t.AddRow("common sites", fmt.Sprintf("%d", ds.CommonSites))
	t.AddRow("total faults A", report.F(ds.TotalA, 0))
	t.AddRow("total faults B", report.F(ds.TotalB, 0))
	t.AddRow("A/B ratio", report.F(ds.RatioAB, 2))
	t.AddRow("map correlation", report.F(ds.Correlation, 3))
	t.AddRow("largest disagreement", ds.DisagreeExample)
	return &Result{ID: "fig7-die2die", Title: "die-to-die process variation",
		Tables:  []*report.Table{t},
		Figures: []string{ma.Render(), mb.Render()},
		Comparisons: []report.Comparison{
			{Metric: "KC705-A/B fault ratio", Paper: 4.1, Measured: ds.RatioAB, Unit: "x"},
		}}, nil
}

func runFig8(ctx context.Context, cfg Config) (*Result, error) {
	c := cfg.effective()
	temps := []float64{50, 60, 70, 80}
	res := &Result{ID: "fig8-temperature", Title: "temperature dependence (ITD)"}
	finals := map[string]map[float64]float64{} // platform -> temp -> faults/Mbit
	for _, p := range []platform.Platform{platform.VC707(), platform.KC705A()} {
		b := c.boardFor(p)
		sweeps, err := characterize.TemperatureStudy(ctx, b, temps, characterize.Options{
			Runs: c.Runs, Workers: c.Workers,
		})
		if err != nil {
			return nil, err
		}
		t := report.NewTable(fmt.Sprintf("Fig. 8 (%s): faults/Mbit vs VCCBRAM at each on-board temperature", p.Name),
			"VCCBRAM (V)", "50C", "60C", "70C", "80C")
		for li := range sweeps[0].Levels {
			row := []string{report.F(sweeps[0].Levels[li].V, 2)}
			for ti := range temps {
				row = append(row, report.F(sweeps[ti].Levels[li].FaultsPerMbit, 1))
			}
			t.AddRow(row...)
		}
		res.Tables = append(res.Tables, t)
		var series []textplot.Series
		for ti, tC := range temps {
			var vs, fr []float64
			for _, l := range sweeps[ti].Levels {
				vs = append(vs, l.V)
				fr = append(fr, l.FaultsPerMbit)
			}
			series = append(series, textplot.Series{Name: fmt.Sprintf("%.0fC", tC), X: vs, Y: fr})
		}
		res.Figures = append(res.Figures, textplot.LineChart(
			fmt.Sprintf("Fig. 8 (%s): fault rate vs voltage across temperatures", p.Name),
			56, 12, series...))
		finals[p.Name] = map[float64]float64{}
		for ti, tC := range temps {
			finals[p.Name][tC] = sweeps[ti].Final().FaultsPerMbit
		}
	}
	vc, kc := finals["VC707"], finals["KC705-A"]
	res.Comparisons = []report.Comparison{
		{Metric: "VC707 fault reduction 50->80C", Paper: 3.2, Measured: vc[50] / math.Max(vc[80], 1e-9), Unit: "x",
			Note: "paper: >3x"},
		{Metric: "VC707 vs KC705-A @50C", Paper: 2.56, Measured: vc[50] / math.Max(kc[50], 1e-9), Unit: "x",
			Note: "paper: +156%"},
		{Metric: "VC707 vs KC705-A @80C", Paper: 0.884, Measured: vc[80] / math.Max(kc[80], 1e-9), Unit: "x",
			Note: "paper: -11.6%"},
	}
	return res, nil
}
