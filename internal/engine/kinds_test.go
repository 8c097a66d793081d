package engine

import (
	"context"
	"sort"
	"testing"

	"repro/internal/characterize"
	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/platform"
)

func TestPatternCampaign(t *testing.T) {
	ps := platform.VC707().Scaled(24).Replicas(2)
	f := NewFleet(ps, Options{Workers: 2})
	res, err := f.RunCampaign(context.Background(), Campaign{
		Kind:  KindPattern,
		Sweep: characterize.Options{Runs: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Agg.Completed != 2 || res.Agg.Failed != 0 {
		t.Fatalf("completed=%d failed=%d, want 2/0", res.Agg.Completed, res.Agg.Failed)
	}
	for i, r := range res.Boards {
		if r.Err != nil {
			t.Fatalf("board %d: %v", i, r.Err)
		}
		if len(r.Patterns) != 5 {
			t.Fatalf("board %d measured %d patterns, want the default 5", i, len(r.Patterns))
		}
		byName := map[string]float64{}
		for _, pr := range r.Patterns {
			byName[pr.Name] = pr.FaultsPerMbit
		}
		// The paper's polarity result: 1→0 flips dominate, so the all-ones
		// fill faults far more than the all-zeros fill.
		if byName["16'hFFFF"] <= byName["16'h0000"] {
			t.Fatalf("board %d: 0xFFFF (%.1f) not above 0x0000 (%.1f) faults/Mbit",
				i, byName["16'hFFFF"], byName["16'h0000"])
		}
	}
	// The worst-case pattern feeds the cross-chip spread.
	if res.Agg.FaultsPerMbit.N != 2 {
		t.Fatalf("pattern aggregate over %d boards, want 2", res.Agg.FaultsPerMbit.N)
	}
	// Five patterns per board were real measurements.
	if got := f.Characterizations(); got != 10 {
		t.Fatalf("pattern campaign counted %d characterizations, want 10", got)
	}

	// A custom pattern list is honored in order.
	res2, err := f.RunCampaign(context.Background(), Campaign{
		Kind:     KindPattern,
		Sweep:    characterize.Options{Runs: 2},
		Patterns: []characterize.Options{{Pattern: 0xAAAA}, {ZeroFill: true, PatternName: "16'h0000"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := res2.Boards[0].Patterns
	if len(got) != 2 || got[0].Name != "16'hAAAA" || got[1].Name != "16'h0000" {
		t.Fatalf("custom patterns came back as %+v", got)
	}
}

func TestPatternCampaignHonorsTemperature(t *testing.T) {
	// ITD: the same fill faults less when hot (Fig. 8), so a temp_c=80
	// pattern study must not silently measure at the 50 °C default.
	ps := platform.VC707().Scaled(24).Replicas(1)
	run := func(tempC float64) float64 {
		f := NewFleet(ps, Options{})
		res, err := f.RunCampaign(context.Background(), Campaign{
			Kind:     KindPattern,
			Sweep:    characterize.Options{Runs: 4, OnBoardC: tempC},
			Patterns: []characterize.Options{{Pattern: 0xFFFF}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Boards[0].Patterns[0].FaultsPerMbit
	}
	cold, hot := run(50), run(80)
	if hot >= cold {
		t.Fatalf("pattern study at 80C (%.1f faults/Mbit) not below 50C (%.1f); temperature was ignored", hot, cold)
	}
}

func TestThresholdsCampaign(t *testing.T) {
	var ps []platform.Platform
	for _, p := range platform.All() {
		ps = append(ps, p.Scaled(24))
	}
	f := NewFleet(ps, Options{Workers: 2})
	res, err := f.RunCampaign(context.Background(), Campaign{Kind: KindThresholds})
	if err != nil {
		t.Fatal(err)
	}
	if res.Agg.Completed != 4 {
		t.Fatalf("completed=%d, want 4", res.Agg.Completed)
	}
	for i, r := range res.Boards {
		if r.Err != nil {
			t.Fatalf("board %d: %v", i, r.Err)
		}
		if r.BRAMThresholds == nil || r.IntThresholds == nil {
			t.Fatalf("board %d: missing thresholds", i)
		}
		for rail, th := range map[string]*characterize.Thresholds{
			"VCCBRAM": r.BRAMThresholds, "VCCINT": r.IntThresholds,
		} {
			if th.Vnom != 1.0 {
				t.Fatalf("board %d %s: Vnom %.2f, want 1.00", i, rail, th.Vnom)
			}
			if th.Vmin < th.Vcrash || th.Vmin >= th.Vnom {
				t.Fatalf("board %d %s: implausible window Vmin=%.2f Vcrash=%.2f", i, rail, th.Vmin, th.Vcrash)
			}
			if th.GuardbandFrac() <= 0.2 {
				t.Fatalf("board %d %s: guardband %.0f%%, expected the paper's ~39%%",
					i, rail, 100*th.GuardbandFrac())
			}
		}
	}
	// Thresholds feed the fleet's Vmin/Vcrash spread.
	if res.Agg.ObservedVmin.N != 4 || res.Agg.ObservedVcrash.N != 4 {
		t.Fatalf("threshold aggregate %+v, want 4-board Vmin/Vcrash spread", res.Agg)
	}
	if res.Agg.ObservedVmin.Min < res.Agg.ObservedVcrash.Min {
		t.Fatal("aggregated Vmin fell below aggregated Vcrash")
	}
	if got := f.Characterizations(); got != 8 {
		t.Fatalf("threshold campaign counted %d discoveries, want 8 (2 rails x 4 boards)", got)
	}
}

func TestCampaignProgressEvents(t *testing.T) {
	// A mixed fleet: platform voltage windows differ, so board weights do
	// too, and the percentage must still climb to exactly 100.
	var ps []platform.Platform
	for _, p := range platform.All() {
		ps = append(ps, p.Scaled(24).Replicas(2)...)
	}
	f := NewFleet(ps, Options{Workers: 4})
	events := make(chan Event, 64)
	if _, err := f.RunCampaign(context.Background(), Campaign{
		Kind: Characterization, Sweep: fastSweep(), Events: events,
	}); err != nil {
		t.Fatal(err)
	}
	close(events)
	var doneProgress []float64
	for ev := range events {
		if ev.Progress < 0 || ev.Progress > 100 {
			t.Fatalf("event progress %.2f out of [0,100]: %+v", ev.Progress, ev)
		}
		if ev.Kind == EventBoardDone {
			doneProgress = append(doneProgress, ev.Progress)
		}
	}
	if len(doneProgress) != 8 {
		t.Fatalf("%d done events, want 8", len(doneProgress))
	}
	// Concurrent boards may emit out of order, but the set of completion
	// percentages is deterministic in aggregate: all distinct, ending at 100.
	sort.Float64s(doneProgress)
	if got := doneProgress[len(doneProgress)-1]; got < 99.999 || got > 100.001 {
		t.Fatalf("final done event reports %.3f%%, want 100%%", got)
	}
	for i := 1; i < len(doneProgress); i++ {
		if doneProgress[i] <= doneProgress[i-1] {
			t.Fatalf("two boards credited identical progress %.3f%% — weights not accumulating", doneProgress[i])
		}
	}
}

func TestCampaignProgressIsWeighted(t *testing.T) {
	// Two boards, one with a deliberately widened sweep window: its sweep
	// costs more levels, so finishing it must credit more than half.
	narrow := platform.VC707().Scaled(24)
	wide := platform.VC707().Scaled(24).WithSerial("wide-window")
	wide.Cal.Vcrash = narrow.Cal.Vcrash - 0.04 // 4 extra 10 mV levels

	f := NewFleet([]platform.Platform{narrow, wide}, Options{Workers: 1})
	events := make(chan Event, 16)
	if _, err := f.RunCampaign(context.Background(), Campaign{
		Kind: Characterization, Sweep: fastSweep(), Events: events,
	}); err != nil {
		t.Fatal(err)
	}
	close(events)
	credit := map[string]float64{} // serial → progress increment at its done event
	last := 0.0
	for ev := range events {
		if ev.Kind == EventBoardDone {
			credit[ev.Serial] = ev.Progress - last
			last = ev.Progress
		}
	}
	// Workers: 1 runs the boards sequentially, so increments are exact.
	if len(credit) != 2 {
		t.Fatalf("credits %v, want 2 boards", credit)
	}
	if credit["wide-window"] <= credit[narrow.Serial] {
		t.Fatalf("wide-window board credited %.2f%%, narrow %.2f%% — weighting by sweep steps is missing",
			credit["wide-window"], credit[narrow.Serial])
	}
}

func TestProgressWeightsByKind(t *testing.T) {
	p := platform.VC707().Scaled(24)
	char := Campaign{Kind: Characterization}.boardWeight(p)
	if char <= 0 {
		t.Fatalf("characterization weight %f", char)
	}
	temp := Campaign{Kind: TemperatureStudy, Temps: []float64{50, 60, 70}}.boardWeight(p)
	if temp != 3*char {
		t.Fatalf("3-temperature ladder weighs %f, want 3x the single sweep %f", temp, char)
	}
	if w := (Campaign{Kind: KindPattern}).boardWeight(p); w != 5 {
		t.Fatalf("default pattern study weighs %f, want 5", w)
	}
	if w := (Campaign{Kind: KindThresholds}).boardWeight(p); w <= char {
		t.Fatalf("threshold discovery weighs %f, expected more than one sweep window %f", w, char)
	}
}

func TestPlacementMemoization(t *testing.T) {
	ds := dataset.MNISTLike(dataset.Options{
		TrainSamples: 400, TestSamples: 80, Features: 196, Classes: 10,
	})
	net, err := nn.New([]int{196, 24, 10}, "placement-test")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Train(ds.TrainX, ds.TrainY, nn.TrainOptions{Epochs: 2, LearnRate: 0.3, Workers: 4}); err != nil {
		t.Fatal(err)
	}
	q := nn.Quantize(net)

	// Three replicas of one platform share geometry → one build, two hits.
	ps := platform.VC707().Scaled(80).Replicas(3)
	f := NewFleet(ps, Options{Workers: 3})
	res, err := f.RunCampaign(context.Background(), Campaign{
		Kind: NNInference, Net: q, TestX: ds.TestX, TestY: ds.TestY,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res.Boards {
		if r.Err != nil {
			t.Fatalf("board %d: %v", i, r.Err)
		}
	}
	st := f.PlacementStats()
	if st.Builds != 1 || st.Hits != 2 || st.Len != 1 {
		t.Fatalf("placement stats %+v, want 1 build / 2 hits / 1 entry", st)
	}

	// Same fleet, same campaign again: all hits.
	if _, err := f.RunCampaign(context.Background(), Campaign{
		Kind: NNInference, Net: q, TestX: ds.TestX, TestY: ds.TestY,
	}); err != nil {
		t.Fatal(err)
	}
	if st := f.PlacementStats(); st.Builds != 1 || st.Hits != 5 {
		t.Fatalf("repeat campaign stats %+v, want 1 build / 5 hits", st)
	}

	// A different seed is a different placement.
	if _, err := f.RunCampaign(context.Background(), Campaign{
		Kind: NNInference, Net: q, TestX: ds.TestX, TestY: ds.TestY, Seed: 7,
	}); err != nil {
		t.Fatal(err)
	}
	if st := f.PlacementStats(); st.Builds != 2 || st.Len != 2 {
		t.Fatalf("new-seed stats %+v, want 2 builds / 2 entries", st)
	}

	// Distinct dies, same placement: replica results still differ, because
	// the fault populations live in the boards, not the bitstream.
	a := res.Boards[0].Inference
	b := res.Boards[1].Inference
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("inference levels %d vs %d", len(a), len(b))
	}
	same := true
	for i := range a {
		if a[i].WeightFault != b[i].WeightFault {
			same = false
			break
		}
	}
	if same {
		t.Fatal("two distinct dies produced identical fault trajectories; sharing the placement leaked die state")
	}
}

func TestPlacementKeyDistinguishesGeometry(t *testing.T) {
	q := &nn.Quantized{Topology: []int{4, 2}}
	a := placementKey(platform.VC707().Scaled(80), q, 1)
	b := placementKey(platform.ZC702().Scaled(80), q, 1)
	if a == b {
		t.Fatalf("different floorplans share a placement key: %+v", a)
	}
	c := placementKey(platform.VC707().Scaled(80), &nn.Quantized{Topology: []int{4, 3}}, 1)
	if a == c {
		t.Fatal("different topologies share a placement key")
	}
	// Two KC705 samples: same model, same geometry — deliberately shared.
	d := placementKey(platform.KC705A().Scaled(80), q, 1)
	e := placementKey(platform.KC705B().Scaled(80), q, 1)
	if d != e {
		t.Fatal("identical-model boards should share a placement key")
	}
}
