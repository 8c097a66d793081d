package engine

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/board"
	"repro/internal/characterize"
	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/platform"
)

// testFleet mints 8 small boards spanning all four platforms: the reference
// sample of each, plus a second derived-serial replica of each — the mixed
// fleet the paper's chip-to-chip argument calls for.
func testFleet(t *testing.T, opts Options) *Fleet {
	t.Helper()
	var ps []platform.Platform
	for _, p := range platform.All() {
		ps = append(ps, p.Scaled(24).Replicas(2)...)
	}
	if len(ps) != 8 {
		t.Fatalf("expected 8 boards, got %d", len(ps))
	}
	return NewFleet(ps, opts)
}

func fastSweep() characterize.Options {
	return characterize.Options{Runs: 4, Workers: 2}
}

func TestCampaignAcrossPlatforms(t *testing.T) {
	f := testFleet(t, Options{Workers: 4})
	events := make(chan Event, 64)
	res, err := f.RunCampaign(context.Background(), Campaign{
		Kind: Characterization, Sweep: fastSweep(), Events: events,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Agg.Completed != 8 || res.Agg.Failed != 0 {
		t.Fatalf("completed=%d failed=%d, want 8/0", res.Agg.Completed, res.Agg.Failed)
	}
	seen := map[string]bool{}
	for i, r := range res.Boards {
		if r.Board != i {
			t.Fatalf("result %d carries board index %d", i, r.Board)
		}
		if r.Err != nil {
			t.Fatalf("board %d (%s/%s): %v", i, r.Platform, r.Serial, r.Err)
		}
		if r.Sweep == nil || r.FVM == nil {
			t.Fatalf("board %d: missing sweep or FVM", i)
		}
		if r.Serial != r.FVM.Serial {
			t.Fatalf("board %d: FVM serial %q != board serial %q", i, r.FVM.Serial, r.Serial)
		}
		seen[r.Platform] = true
	}
	if len(seen) != 4 {
		t.Fatalf("expected all 4 platforms, saw %v", seen)
	}
	// Cross-chip spread: 8 distinct dies must not all report the same rate,
	// and the spread fields must be populated.
	if res.Agg.FaultsPerMbit.N != 8 {
		t.Fatalf("aggregate over %d boards, want 8", res.Agg.FaultsPerMbit.N)
	}
	if res.Agg.FaultsPerMbit.Min == res.Agg.FaultsPerMbit.Max {
		t.Fatal("cross-chip fault rates are identical; die variation is missing")
	}
	if res.Agg.SpreadRatio <= 1 {
		t.Fatalf("spread ratio %.2f, want > 1", res.Agg.SpreadRatio)
	}
	if res.Agg.ObservedVcrash.N != 8 || res.Agg.ObservedVmin.N != 8 {
		t.Fatal("Vmin/Vcrash spread not aggregated over the fleet")
	}
	if res.Agg.ObservedVmin.Min < res.Agg.ObservedVcrash.Min {
		t.Fatalf("observed Vmin %.2f below observed Vcrash %.2f",
			res.Agg.ObservedVmin.Min, res.Agg.ObservedVcrash.Min)
	}
	// Every board announced itself and finished.
	close(events)
	starts, dones := 0, 0
	for ev := range events {
		switch ev.Kind {
		case EventBoardStart:
			starts++
		case EventBoardDone:
			dones++
		case EventBoardFailed:
			t.Fatalf("unexpected failure event: %+v", ev)
		}
	}
	if starts != 8 || dones != 8 {
		t.Fatalf("events: %d starts, %d dones, want 8/8", starts, dones)
	}
}

func TestCampaignCacheHit(t *testing.T) {
	f := testFleet(t, Options{Workers: 4})
	ctx := context.Background()
	c := Campaign{Kind: Characterization, Sweep: fastSweep()}

	first, err := f.RunCampaign(ctx, c)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Characterizations(); got != 8 {
		t.Fatalf("first campaign ran %d characterizations, want 8", got)
	}
	if first.Agg.CacheHits != 0 {
		t.Fatalf("first campaign reported %d cache hits, want 0", first.Agg.CacheHits)
	}

	second, err := f.RunCampaign(ctx, c)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Characterizations(); got != 8 {
		t.Fatalf("repeated campaign re-characterized: %d total sweeps, want 8", got)
	}
	if second.Agg.CacheHits != 8 {
		t.Fatalf("repeated campaign hit cache %d times, want 8", second.Agg.CacheHits)
	}
	for i := range second.Boards {
		if !second.Boards[i].FromCache {
			t.Fatalf("board %d not served from cache", i)
		}
		if second.Boards[i].Sweep != first.Boards[i].Sweep {
			t.Fatalf("board %d: cached sweep is not the memoized object", i)
		}
	}
	cs := f.CacheStats()
	if cs.Hits != 8 || cs.Len != 8 {
		t.Fatalf("cache stats %+v, want 8 hits and 8 entries", cs)
	}

	// Different sweep options are a different key: no false sharing.
	third, err := f.RunCampaign(ctx, Campaign{
		Kind: Characterization, Sweep: characterize.Options{Runs: 5, Workers: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if third.Agg.CacheHits != 0 {
		t.Fatalf("changed options still hit cache %d times", third.Agg.CacheHits)
	}
	if got := f.Characterizations(); got != 16 {
		t.Fatalf("after third campaign %d sweeps, want 16", got)
	}

	// SkipCache forces fresh sweeps even on a warm cache.
	fourth, err := f.RunCampaign(ctx, Campaign{Kind: Characterization, Sweep: fastSweep(), SkipCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if fourth.Agg.CacheHits != 0 {
		t.Fatalf("SkipCache campaign reported %d cache hits", fourth.Agg.CacheHits)
	}
	if got := f.Characterizations(); got != 24 {
		t.Fatalf("after SkipCache campaign %d sweeps, want 24", got)
	}
}

func TestCampaignCancellation(t *testing.T) {
	// Big pools and many runs: uncancelled this campaign takes many seconds.
	var ps []platform.Platform
	for _, p := range platform.All() {
		ps = append(ps, p.Scaled(400).Replicas(4)...)
	}
	f := NewFleet(ps, Options{Workers: 4})
	events := make(chan Event, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	type outcome struct {
		res *CampaignResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := f.RunCampaign(ctx, Campaign{
			Kind:  Characterization,
			Sweep: characterize.Options{Runs: 300, Workers: 2},
			// Events deliberately starves (capacity 1, read once): a stalled
			// consumer must not defeat cancellation.
			Events: events,
		})
		done <- outcome{res, err}
	}()

	<-events // first board is underway
	cancel()
	select {
	case o := <-done:
		if !errors.Is(o.err, context.Canceled) {
			t.Fatalf("RunCampaign returned (%v, %v), want context.Canceled", o.res, o.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("campaign did not stop promptly after cancellation")
	}
}

func TestCampaignDeadline(t *testing.T) {
	f := testFleet(t, Options{Workers: 2})
	ctx, cancel := context.WithTimeout(context.Background(), -time.Second)
	defer cancel()
	_, err := f.RunCampaign(ctx, Campaign{Kind: Characterization, Sweep: fastSweep()})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline returned %v, want context.DeadlineExceeded", err)
	}
	if got := f.Characterizations(); got != 0 {
		t.Fatalf("expired campaign still ran %d sweeps", got)
	}
}

func TestFleetMatchesSerialReference(t *testing.T) {
	// A fleet of one must reproduce byte-for-byte what a plain serial
	// characterize.Run of the same board yields: the engine adds
	// orchestration, not physics.
	p := platform.VC707().Scaled(24)
	opts := fastSweep()

	ref, err := characterize.Run(context.Background(), board.New(p), opts)
	if err != nil {
		t.Fatal(err)
	}

	f := NewFleet([]platform.Platform{p}, Options{})
	res, err := f.RunCampaign(context.Background(), Campaign{Kind: Characterization, Sweep: opts})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Boards[0].Sweep
	if len(got.Levels) != len(ref.Levels) {
		t.Fatalf("fleet swept %d levels, reference %d", len(got.Levels), len(ref.Levels))
	}
	for i := range ref.Levels {
		if got.Levels[i].V != ref.Levels[i].V ||
			got.Levels[i].MedianFaults != ref.Levels[i].MedianFaults ||
			got.Levels[i].FaultsPerMbit != ref.Levels[i].FaultsPerMbit {
			t.Fatalf("level %d diverges: fleet {V:%.2f faults:%.1f} vs reference {V:%.2f faults:%.1f}",
				i, got.Levels[i].V, got.Levels[i].MedianFaults,
				ref.Levels[i].V, ref.Levels[i].MedianFaults)
		}
	}
	if agg := res.Agg.FaultsPerMbit; agg.Median != ref.Final().FaultsPerMbit {
		t.Fatalf("aggregate median %.2f != reference final %.2f", agg.Median, ref.Final().FaultsPerMbit)
	}
	if vmin := ObservedVmin(ref); res.Agg.ObservedVmin.Median != vmin {
		t.Fatalf("aggregate Vmin %.2f != reference %.2f", res.Agg.ObservedVmin.Median, vmin)
	}
}

func TestTemperatureCampaign(t *testing.T) {
	ps := platform.VC707().Scaled(24).Replicas(2)
	f := NewFleet(ps, Options{Workers: 2})
	res, err := f.RunCampaign(context.Background(), Campaign{
		Kind:  TemperatureStudy,
		Sweep: fastSweep(),
		Temps: []float64{50, 80},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res.Boards {
		if r.Err != nil {
			t.Fatalf("board %d: %v", i, r.Err)
		}
		if len(r.TempSweeps) != 2 {
			t.Fatalf("board %d swept %d temperatures, want 2", i, len(r.TempSweeps))
		}
		// ITD: the hot sweep must see fewer faults at Vcrash (Fig. 8).
		cold, hot := r.TempSweeps[0].Final(), r.TempSweeps[1].Final()
		if hot.FaultsPerMbit >= cold.FaultsPerMbit {
			t.Fatalf("board %d: %g faults/Mbit at 80C not below %g at 50C",
				i, hot.FaultsPerMbit, cold.FaultsPerMbit)
		}
	}
	if res.Agg.Completed != 2 {
		t.Fatalf("completed=%d, want 2", res.Agg.Completed)
	}
}

func TestInferenceCampaign(t *testing.T) {
	ds := dataset.MNISTLike(dataset.Options{
		TrainSamples: 600, TestSamples: 150, Features: 196, Classes: 10,
	})
	net, err := nn.New([]int{196, 32, 10}, "engine-test")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Train(ds.TrainX, ds.TrainY, nn.TrainOptions{Epochs: 4, LearnRate: 0.3, Workers: 4}); err != nil {
		t.Fatal(err)
	}
	q := nn.Quantize(net)

	ps := platform.VC707().Scaled(80).Replicas(2)
	f := NewFleet(ps, Options{Workers: 2})
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
		if len(r.Inference) == 0 {
			t.Fatalf("board %d: no inference levels", i)
		}
	}
	if res.Agg.InferenceError.N != 2 {
		t.Fatalf("inference error aggregated over %d boards, want 2", res.Agg.InferenceError.N)
	}

	// Missing inputs are rejected before any board spins up.
	if _, err := f.RunCampaign(context.Background(), Campaign{Kind: NNInference}); err == nil {
		t.Fatal("campaign without a network was accepted")
	}
	if _, err := f.RunCampaign(context.Background(), Campaign{Kind: NNInference, Net: q, TestX: ds.TestX}); err == nil {
		t.Fatal("campaign with misaligned test set was accepted")
	}
}

func TestCacheKeyNormalization(t *testing.T) {
	p := platform.VC707().Scaled(24)
	// Zero-valued options and the explicit paper defaults are the same
	// measurement and must share a cache entry.
	explicit := characterize.Options{
		Runs: 100, Pattern: 0xFFFF,
		VStart: p.Cal.Vmin, VStop: p.Cal.Vcrash, StepV: 0.01,
		OnBoardC: 50, Workers: 7,
	}
	if a, b := cacheKey(p, characterize.Options{}), cacheKey(p, explicit); a != b {
		t.Fatalf("defaulted and explicit paper options key differently:\n%+v\n%+v", a, b)
	}
	// A display label must not mask a different effective fill.
	a := cacheKey(p, characterize.Options{PatternName: "custom", Pattern: 0xAAAA})
	b := cacheKey(p, characterize.Options{PatternName: "custom", Pattern: 0x5555})
	if a == b {
		t.Fatalf("different fills share a key: %+v", a)
	}
	// A labeled random fill is not the labeled 0xFFFF default.
	c := cacheKey(p, characterize.Options{PatternName: "random-50%"})
	d := cacheKey(p, characterize.Options{RandomFill: true})
	if c == d {
		t.Fatalf("random fill collides with the label-only default: %+v", c)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewFVMCache(2)
	k := func(serial string) CacheKey { return CacheKey{Platform: "VC707", Serial: serial} }
	s := &characterize.Sweep{}
	c.Put(k("a"), s, nil)
	c.Put(k("b"), s, nil)
	if _, _, ok := c.Get(k("a")); !ok { // touch "a": "b" becomes LRU
		t.Fatal("entry a missing")
	}
	c.Put(k("c"), s, nil) // evicts "b"
	if _, _, ok := c.Get(k("b")); ok {
		t.Fatal("LRU entry b survived eviction")
	}
	if _, _, ok := c.Get(k("a")); !ok {
		t.Fatal("recently used entry a was evicted")
	}
	if _, _, ok := c.Get(k("c")); !ok {
		t.Fatal("new entry c missing")
	}
	cs := c.Stats()
	if cs.Len != 2 || cs.Cap != 2 {
		t.Fatalf("stats %+v, want len=2 cap=2", cs)
	}
	if cs.HitRate() <= 0 || cs.HitRate() >= 1 {
		t.Fatalf("hit rate %.2f out of (0,1)", cs.HitRate())
	}
}

func TestReplicasMintDistinctDies(t *testing.T) {
	ps := platform.KC705A().Scaled(24).Replicas(3)
	if ps[0].Serial != platform.KC705A().Serial {
		t.Fatalf("first replica lost the reference serial: %q", ps[0].Serial)
	}
	serials := map[string]bool{}
	for _, p := range ps {
		serials[p.Serial] = true
	}
	if len(serials) != 3 {
		t.Fatalf("replicas share serials: %v", serials)
	}
	// Distinct serials must produce distinct fault populations.
	ctx := context.Background()
	a, err := characterize.Run(ctx, board.New(ps[0]), fastSweep())
	if err != nil {
		t.Fatal(err)
	}
	b, err := characterize.Run(ctx, board.New(ps[1]), fastSweep())
	if err != nil {
		t.Fatal(err)
	}
	if a.Final().MedianFaults == b.Final().MedianFaults {
		t.Fatal("derived-serial replica has the reference die's fault count")
	}
}

// TestOversubscribedFleetMatchesSerial proves read concurrency is scheduling
// only: 4 boards in flight, each asking for 4 readers, return board results
// identical to a fleet that runs one board at a time.
func TestOversubscribedFleetMatchesSerial(t *testing.T) {
	sweep := characterize.Options{Runs: 4, Workers: 4}
	run := func(workers int) []BoardResult {
		res, err := testFleet(t, Options{Workers: workers}).RunCampaign(context.Background(),
			Campaign{Kind: Characterization, Sweep: sweep})
		if err != nil {
			t.Fatal(err)
		}
		if res.Agg.Completed != 8 || res.Agg.Failed != 0 {
			t.Fatalf("Workers %d: completed=%d failed=%d, want 8/0", workers, res.Agg.Completed, res.Agg.Failed)
		}
		return res.Boards
	}
	want := run(1)
	if got := run(4); !reflect.DeepEqual(got, want) {
		t.Fatal("fleet Workers 4 board results differ from fleet Workers 1")
	}
}

// TestAggregateSamplesMatchesAggregate pins the federation merge contract:
// folding per-board Sample()s through the exported AggregateSamples must
// reproduce the in-process fleet aggregate bit for bit.
func TestAggregateSamplesMatchesAggregate(t *testing.T) {
	f := testFleet(t, Options{Workers: 4})
	res, err := f.RunCampaign(context.Background(), Campaign{
		Kind: Characterization, Sweep: fastSweep(),
	})
	if err != nil {
		t.Fatal(err)
	}
	samples := make([]BoardSample, len(res.Boards))
	for i := range res.Boards {
		samples[i] = res.Boards[i].Sample()
	}
	if got := AggregateSamples(samples); !reflect.DeepEqual(got, res.Agg) {
		t.Fatalf("AggregateSamples diverged from the engine aggregate:\n got %+v\nwant %+v", got, res.Agg)
	}
}
