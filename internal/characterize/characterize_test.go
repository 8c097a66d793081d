package characterize

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/board"
	"repro/internal/platform"
	"repro/internal/stats"
)

// fastOpts keeps unit tests quick: fewer runs, small pool.
func fastOpts() Options { return Options{Runs: 15, Workers: 4} }

func newBoard(t *testing.T, n int) *board.Board {
	t.Helper()
	return board.New(platform.VC707().Scaled(n))
}

func TestSweepBasicShape(t *testing.T) {
	b := newBoard(t, 150)
	s, err := Run(context.Background(), b, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	cal := b.Platform.Cal
	wantLevels := int(math.Round((cal.Vmin-cal.Vcrash)/0.01)) + 1
	if len(s.Levels) != wantLevels {
		t.Fatalf("levels = %d, want %d", len(s.Levels), wantLevels)
	}
	if s.Levels[0].V != cal.Vmin || s.Final().V != cal.Vcrash {
		t.Fatalf("sweep endpoints: %v .. %v", s.Levels[0].V, s.Final().V)
	}
	// Voltage restored after sweep.
	if b.VCCBRAM() != cal.Vnom {
		t.Fatalf("voltage not restored: %v", b.VCCBRAM())
	}
	if s.PatternName != "16'hFFFF" {
		t.Fatalf("default pattern name = %q", s.PatternName)
	}
}

func TestFaultRateGrowsTowardsVcrash(t *testing.T) {
	b := newBoard(t, 150)
	s, err := Run(context.Background(), b, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	first := s.Levels[0]
	last := s.Final()
	if first.MedianFaults > last.MedianFaults {
		t.Fatalf("fault rate should grow as voltage drops: %v -> %v",
			first.MedianFaults, last.MedianFaults)
	}
	if last.MedianFaults == 0 {
		t.Fatal("no faults at Vcrash")
	}
	// Exponential shape check over the window.
	var vs, ns []float64
	for _, l := range s.Levels {
		vs = append(vs, l.V)
		ns = append(ns, l.MedianFaults)
	}
	fit, err := stats.FitExponential(vs, ns)
	if err != nil {
		t.Fatal(err)
	}
	if fit.B >= 0 || fit.R2 < 0.85 {
		t.Fatalf("curve not exponential: B=%v R2=%v", fit.B, fit.R2)
	}
}

func TestFaultsPerMbitCalibrated(t *testing.T) {
	// Even at 150/2060 scale, the per-Mbit rate at Vcrash should land near
	// the platform's published 652 (sampling noise allowed).
	b := newBoard(t, 150)
	s, err := Run(context.Background(), b, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	got := s.Final().FaultsPerMbit
	if got < 652*0.6 || got > 652*1.4 {
		t.Fatalf("faults/Mbit at Vcrash = %v, want ~652", got)
	}
}

func TestPowerDecreasesThroughSweep(t *testing.T) {
	b := newBoard(t, 120)
	s, err := Run(context.Background(), b, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(s.Levels); i++ {
		if s.Levels[i].BRAMPowerW >= s.Levels[i-1].BRAMPowerW {
			t.Fatalf("BRAM power must fall with voltage: level %d", i)
		}
	}
	if s.Final().MeterPowerW <= 0 {
		t.Fatal("meter power missing")
	}
}

func TestVastMajorityFlips10(t *testing.T) {
	b := newBoard(t, 150)
	s, err := Run(context.Background(), b, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	last := s.Final()
	if last.Flip10 == 0 {
		t.Fatal("no 1->0 flips observed")
	}
	if share := last.Flip10Share(); share < 0.99 {
		t.Fatalf("1->0 share = %v, want ~0.999", share)
	}
}

func TestRunStabilityTableII(t *testing.T) {
	b := newBoard(t, 150)
	s, err := Run(context.Background(), b, Options{Runs: 40, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	last := s.Final()
	// Locations and counts barely move: relative stddev well under 10%.
	if last.Stats.StdDev > 0.1*last.Stats.Mean+1 {
		t.Fatalf("run-to-run stddev = %v of mean %v", last.Stats.StdDev, last.Stats.Mean)
	}
	if last.Stats.Min > last.Stats.Median || last.Stats.Median > last.Stats.Max {
		t.Fatal("summary ordering broken")
	}
}

func TestDeterministicAcrossHarnessInvocations(t *testing.T) {
	a, err := Run(context.Background(), newBoard(t, 100), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), newBoard(t, 100), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Levels {
		if a.Levels[i].MedianFaults != b.Levels[i].MedianFaults {
			t.Fatalf("level %d: %v vs %v", i, a.Levels[i].MedianFaults, b.Levels[i].MedianFaults)
		}
	}
}

// TestSweepIndependentOfScheduling proves scheduling never reaches the
// science: on the full-chip ZC702, whose 280 sites divide evenly by none of
// the worker counts, every worker count, each sweep running concurrently
// with the others, returns the same sweep down to the last run total,
// per-BRAM median, flip count and power reading.
func TestSweepIndependentOfScheduling(t *testing.T) {
	p := platform.ZC702()
	if p.NumBRAMs != 280 {
		t.Fatalf("ZC702 has %d sites, want 280", p.NumBRAMs)
	}
	sweep := func(workers int) *Sweep {
		s, err := Run(context.Background(), board.New(p), Options{Runs: 10, Workers: workers})
		if err != nil {
			t.Error(err)
		}
		return s
	}
	want := sweep(1)
	if want == nil || want.Final().MedianFaults == 0 {
		t.Fatal("reference sweep saw no faults at Vcrash")
	}
	workers := []int{1, 2, 3, 8}
	got := make([]*Sweep, len(workers))
	var wg sync.WaitGroup
	for i, w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = sweep(w)
		}()
	}
	wg.Wait()
	for i, w := range workers {
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("Workers %d: sweep differs from Workers 1", w)
		}
	}
}

func TestPerBRAMDistributionNonUniform(t *testing.T) {
	b := newBoard(t, 200)
	s, err := Run(context.Background(), b, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	per := s.PerBRAMMedian()
	if len(per) != 200 {
		t.Fatalf("per-BRAM length = %d", len(per))
	}
	zero := 0
	for _, c := range per {
		if c == 0 {
			zero++
		}
	}
	if zero == 0 || zero == len(per) {
		t.Fatalf("zero-fault BRAMs = %d/%d, want a real split", zero, len(per))
	}
	sum := stats.Summarize(per)
	if sum.Max < 3*sum.Mean {
		t.Fatalf("per-BRAM distribution too uniform: max=%v mean=%v", sum.Max, sum.Mean)
	}
}

func TestLevelAt(t *testing.T) {
	b := newBoard(t, 100)
	s, err := Run(context.Background(), b, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.LevelAt(b.Platform.Cal.Vcrash); !ok {
		t.Fatal("LevelAt(Vcrash) missing")
	}
	if _, ok := s.LevelAt(0.90); ok {
		t.Fatal("LevelAt(0.90) should be absent")
	}
}

func TestDiscoverBRAMThresholds(t *testing.T) {
	b := newBoard(t, 150)
	th, err := DiscoverBRAMThresholds(context.Background(), b, 2)
	if err != nil {
		t.Fatal(err)
	}
	cal := b.Platform.Cal
	if math.Abs(th.Vcrash-cal.Vcrash) > 0.011 {
		t.Fatalf("discovered Vcrash = %v, want ~%v", th.Vcrash, cal.Vcrash)
	}
	// Vmin discovery: no faults at/above cal.Vmin, so discovered Vmin should
	// be within a step of the calibrated value.
	if th.Vmin > cal.Vmin+0.011 || th.Vmin < cal.Vmin-0.021 {
		t.Fatalf("discovered Vmin = %v, want ~%v", th.Vmin, cal.Vmin)
	}
	if gb := th.GuardbandFrac(); math.Abs(gb-0.39) > 0.03 {
		t.Fatalf("guardband = %v, want ~0.39", gb)
	}
	// Board restored and operating.
	if !b.Operating() || b.VCCBRAM() != cal.Vnom {
		t.Fatal("board not restored after discovery")
	}
}

func TestDiscoverBRAMThresholdsCancelled(t *testing.T) {
	// A dead context surfaces promptly, with the rail restored.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b := newBoard(t, 60)
	if _, err := DiscoverBRAMThresholds(ctx, b, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled discovery returned %v, want context.Canceled", err)
	}
	if b.VCCBRAM() != b.Platform.Cal.Vnom {
		t.Fatal("rail left underscaled after cancellation")
	}
}

func TestDiscoverIntThresholds(t *testing.T) {
	b := newBoard(t, 60)
	th, err := DiscoverIntThresholds(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	cal := b.Platform.Cal
	if math.Abs(th.Vcrash-cal.VcrashInt) > 0.011 {
		t.Fatalf("discovered VCCINT Vcrash = %v, want ~%v", th.Vcrash, cal.VcrashInt)
	}
	if math.Abs(th.Vmin-cal.VminInt) > 0.021 {
		t.Fatalf("discovered VCCINT Vmin = %v, want ~%v", th.Vmin, cal.VminInt)
	}
}

func TestPatternStudy(t *testing.T) {
	b := newBoard(t, 150)
	v := b.Platform.Cal.Vcrash
	results, err := RunPatternStudy(context.Background(), b, v, []Options{
		{Pattern: 0xFFFF},
		{Pattern: 0xAAAA},
		{Pattern: 0x5555},
		{RandomFill: true},
		{ZeroFill: true, PatternName: "16'h0000"},
	}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("results = %d", len(results))
	}
	ffff, aaaa, r5555, rand50, zero := results[0], results[1], results[2], results[3], results[4]
	// FFFF ~ 2x AAAA (half the "1" bits).
	ratio := ffff.FaultsPerMbit / math.Max(aaaa.FaultsPerMbit, 1e-9)
	if ratio < 1.5 || ratio > 2.8 {
		t.Fatalf("FFFF/AAAA = %v, want ~2", ratio)
	}
	// Same-ones patterns within ~25% of each other.
	for _, p := range []PatternResult{r5555, rand50} {
		if p.FaultsPerMbit < aaaa.FaultsPerMbit*0.7 || p.FaultsPerMbit > aaaa.FaultsPerMbit*1.4 {
			t.Fatalf("50%%-ones pattern %s = %v, AAAA = %v", p.Name, p.FaultsPerMbit, aaaa.FaultsPerMbit)
		}
	}
	// All-zeros: only the rare 0->1 population shows.
	if zero.FaultsPerMbit > ffff.FaultsPerMbit*0.02 {
		t.Fatalf("all-zeros rate = %v, want near zero (FFFF=%v)", zero.FaultsPerMbit, ffff.FaultsPerMbit)
	}
}

func TestPatternStudyBelowVcrashRestoresRail(t *testing.T) {
	b := newBoard(t, 60)
	v := b.Platform.Cal.Vcrash - 0.05
	_, err := RunPatternStudy(context.Background(), b, v, []Options{{Pattern: 0xFFFF}}, 2)
	if !errors.Is(err, board.ErrNotOperating) {
		t.Fatalf("pattern study below Vcrash returned %v, want ErrNotOperating", err)
	}
	if got := b.VCCBRAM(); got != b.Platform.Cal.Vnom {
		t.Fatalf("VCCBRAM = %v after the crash exit, want nominal %v", got, b.Platform.Cal.Vnom)
	}
}

func TestTemperatureStudyITD(t *testing.T) {
	b := newBoard(t, 150)
	sweeps, err := TemperatureStudy(context.Background(), b, []float64{50, 80}, Options{Runs: 8, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	cold := sweeps[0].Final().MedianFaults
	hot := sweeps[1].Final().MedianFaults
	if cold == 0 {
		t.Fatal("no faults at 50C")
	}
	if hot >= cold {
		t.Fatalf("ITD violated: 50C=%v 80C=%v", cold, hot)
	}
	ratio := cold / math.Max(hot, 1)
	if ratio < 2 || ratio > 6 {
		t.Fatalf("50->80C fault reduction = %vx, want ~3x on VC707", ratio)
	}
}

func TestOptionsDefaults(t *testing.T) {
	b := newBoard(t, 50)
	o := Options{}.Normalized(b.Platform.Cal)
	if o.Runs != 100 || o.Pattern != 0xFFFF || o.StepV != 0.01 || o.OnBoardC != 50 {
		t.Fatalf("defaults wrong: %+v", o)
	}
	z := Options{ZeroFill: true, PatternName: "16'h0000"}.Normalized(b.Platform.Cal)
	if z.Pattern != 0 {
		t.Fatal("ZeroFill must force all-zeros")
	}
	r := Options{RandomFill: true}.Normalized(b.Platform.Cal)
	if r.PatternName != "random-50%" {
		t.Fatalf("random name = %q", r.PatternName)
	}
}
