package engine

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/characterize"
	"repro/internal/fvm"
	"repro/internal/platform"
	"repro/internal/store"
)

// newStore opens a Disk store in a fresh temp dir, closed in cleanup.
func newStore(t *testing.T) *store.Disk {
	t.Helper()
	st, err := store.OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// storeLen counts the records st lists.
func storeLen(t *testing.T, st store.Store) int {
	t.Helper()
	metas, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	return len(metas)
}

// TestFleetSurvivesRestart is the durability acceptance test: a campaign run
// through a fleet backed by the disk store, then re-run after a simulated
// process restart (a brand-new Fleet and a re-opened store over the same
// directory), must be served entirely from disk — zero new
// characterizations, all boards reported as cache hits.
func TestFleetSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	var ps []platform.Platform
	for _, p := range platform.All() {
		ps = append(ps, p.Scaled(24).Replicas(2)...)
	}
	c := Campaign{Kind: Characterization, Sweep: fastSweep()}
	ctx := context.Background()

	st1, err := store.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	f1 := NewFleet(ps, Options{Workers: 4, Store: st1})
	first, err := f1.RunCampaign(ctx, c)
	if err != nil {
		t.Fatal(err)
	}
	if got := f1.Characterizations(); got != 8 {
		t.Fatalf("cold fleet ran %d characterizations, want 8", got)
	}
	if first.Agg.CacheHits != 0 {
		t.Fatalf("cold fleet reported %d cache hits", first.Agg.CacheHits)
	}
	if cs := f1.CacheStats(); cs.StoreErrors != 0 {
		t.Fatalf("write-through recorded %d store errors", cs.StoreErrors)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": nothing carries over except the store directory.
	st2, err := store.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	f2 := NewFleet(ps, Options{Workers: 4, Store: st2})
	second, err := f2.RunCampaign(ctx, c)
	if err != nil {
		t.Fatal(err)
	}
	if got := f2.Characterizations(); got != 0 {
		t.Fatalf("restarted fleet re-ran %d characterizations, want 0", got)
	}
	if second.Agg.CacheHits != 8 {
		t.Fatalf("restarted fleet reported %d cache hits, want 8", second.Agg.CacheHits)
	}
	cs := f2.CacheStats()
	if cs.StoreHits != 8 || cs.Hits != 8 || cs.Misses != 0 {
		t.Fatalf("restarted cache stats %+v, want 8 store hits, 8 hits, 0 misses", cs)
	}
	for i := range second.Boards {
		r := &second.Boards[i]
		if !r.FromCache {
			t.Fatalf("board %d not served from the store", i)
		}
		if r.Sweep == nil || r.FVM == nil {
			t.Fatalf("board %d: store hit missing sweep or FVM", i)
		}
		if r.FVM.Serial != r.Serial {
			t.Fatalf("board %d: restored FVM serial %q != %q", i, r.FVM.Serial, r.Serial)
		}
	}
	// The restored physics must match the original measurement bit for bit.
	for i := range first.Boards {
		a, b := first.Boards[i].Sweep, second.Boards[i].Sweep
		if len(a.Levels) != len(b.Levels) {
			t.Fatalf("board %d: %d levels before restart, %d after", i, len(a.Levels), len(b.Levels))
		}
		for l := range a.Levels {
			if a.Levels[l].V != b.Levels[l].V || a.Levels[l].MedianFaults != b.Levels[l].MedianFaults {
				t.Fatalf("board %d level %d diverged across restart", i, l)
			}
		}
	}

	// A third campaign on the same fleet is a pure memory hit: the store is
	// not consulted again.
	if _, err := f2.RunCampaign(ctx, c); err != nil {
		t.Fatal(err)
	}
	if cs := f2.CacheStats(); cs.StoreHits != 8 {
		t.Fatalf("memory-warm campaign went back to the store: %+v", cs)
	}
}

// TestSharedCacheSingleflight covers the service's concurrent-jobs shape:
// two fleets sharing one cache run the same campaign simultaneously, and
// every board must still be measured exactly once — the loser of each
// per-key race waits for the winner instead of re-sweeping.
func TestSharedCacheSingleflight(t *testing.T) {
	st := newStore(t)
	shared := NewFVMCache(0)
	shared.SetBacking(st)
	var ps []platform.Platform
	for _, p := range platform.All() {
		ps = append(ps, p.Scaled(24).Replicas(2)...)
	}
	c := Campaign{Kind: Characterization, Sweep: fastSweep()}

	f1 := NewFleet(ps, Options{Workers: 4, Cache: shared})
	f2 := NewFleet(ps, Options{Workers: 4, Cache: shared})
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for _, f := range []*Fleet{f1, f2} {
		wg.Add(1)
		go func(f *Fleet) {
			defer wg.Done()
			res, err := f.RunCampaign(context.Background(), c)
			if err == nil && res.Agg.Completed != 8 {
				err = fmt.Errorf("completed %d boards, want 8", res.Agg.Completed)
			}
			errs <- err
		}(f)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if total := f1.Characterizations() + f2.Characterizations(); total != 8 {
		t.Fatalf("two concurrent campaigns ran %d sweeps, want 8 (one per die)", total)
	}
	if storeLen(t, st) != 8 {
		t.Fatalf("store holds %d records, want 8", storeLen(t, st))
	}
}

// TestGetOrComputeRetriesAfterFailedFlight: a waiter must not inherit the
// computer's failure (e.g. a cancelled sibling campaign); it re-runs the
// computation itself.
func TestGetOrComputeRetriesAfterFailedFlight(t *testing.T) {
	c := NewFVMCache(0)
	key := CacheKey{Platform: "VC707", Serial: "x"}
	computing := make(chan struct{})
	release := make(chan struct{})
	go func() {
		c.GetOrCompute(context.Background(), key, func() (*characterize.Sweep, *fvm.Map, error) {
			close(computing)
			<-release
			return nil, nil, context.Canceled // the computer's campaign died
		})
	}()
	<-computing

	waiterDone := make(chan struct{})
	go func() {
		defer close(waiterDone)
		s, _, fromCache, err := c.GetOrCompute(context.Background(), key, func() (*characterize.Sweep, *fvm.Map, error) {
			return &characterize.Sweep{Platform: "VC707"}, nil, nil
		})
		if err != nil || s == nil || s.Platform != "VC707" {
			t.Errorf("waiter got (%v, fromCache=%v, err=%v), want a fresh result", s, fromCache, err)
		}
	}()
	// Let the waiter (very likely) join the in-progress flight, then fail
	// the computer. Either interleaving asserts the same contract: the
	// waiter ends with a good result of its own, never the alien error.
	time.Sleep(10 * time.Millisecond)
	close(release)
	select {
	case <-waiterDone:
	case <-time.After(10 * time.Second):
		t.Fatal("waiter never recovered from the failed flight")
	}
	if s, _, ok := c.Get(key); !ok || s.Platform != "VC707" {
		t.Fatalf("retried result not in cache (ok=%v)", ok)
	}
}

// TestFleetStoreSharedAcrossFleets covers the service shape: two live fleets
// (two concurrent jobs) over one store share characterization work.
func TestFleetStoreSharedAcrossFleets(t *testing.T) {
	st := newStore(t)
	ps := platform.VC707().Scaled(24).Replicas(3)
	c := Campaign{Kind: Characterization, Sweep: fastSweep()}
	ctx := context.Background()

	fa := NewFleet(ps, Options{Store: st})
	if _, err := fa.RunCampaign(ctx, c); err != nil {
		t.Fatal(err)
	}
	fb := NewFleet(ps, Options{Store: st})
	res, err := fb.RunCampaign(ctx, c)
	if err != nil {
		t.Fatal(err)
	}
	if got := fb.Characterizations(); got != 0 {
		t.Fatalf("second fleet re-ran %d sweeps, want 0", got)
	}
	if res.Agg.CacheHits != 3 {
		t.Fatalf("second fleet reported %d cache hits, want 3", res.Agg.CacheHits)
	}
}

// TestCacheKeyIncludesGeometry: a scaled pool is a different simulated die,
// so campaigns differing only in pool size must never share a cache entry —
// over a shared store, a collision would serve a 24-site FVM to a 48-BRAM
// fleet.
func TestCacheKeyIncludesGeometry(t *testing.T) {
	small := platform.VC707().Scaled(24)
	big := platform.VC707().Scaled(48)
	if cacheKey(small, characterize.Options{}) == cacheKey(big, characterize.Options{}) {
		t.Fatal("different pool sizes share a cache key")
	}

	st := newStore(t)
	ctx := context.Background()
	c := Campaign{Kind: Characterization, Sweep: fastSweep()}
	f1 := NewFleet([]platform.Platform{small}, Options{Store: st})
	if _, err := f1.RunCampaign(ctx, c); err != nil {
		t.Fatal(err)
	}
	f2 := NewFleet([]platform.Platform{big}, Options{Store: st})
	res, err := f2.RunCampaign(ctx, c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Agg.CacheHits != 0 {
		t.Fatal("48-BRAM fleet was served the 24-BRAM characterization")
	}
	if got := res.Boards[0].FVM.NumSites(); got != 48 {
		t.Fatalf("FVM has %d sites, want 48", got)
	}
	if storeLen(t, st) != 2 {
		t.Fatalf("store holds %d records, want 2 distinct geometries", storeLen(t, st))
	}
}

// TestFleetSkipCacheStillWritesThrough: SkipCache forces a fresh sweep but
// the fresh result must still land in the store.
func TestFleetSkipCacheStillWritesThrough(t *testing.T) {
	st := newStore(t)
	ps := platform.ZC702().Scaled(24).Replicas(1)
	f := NewFleet(ps, Options{Store: st})
	ctx := context.Background()
	if _, err := f.RunCampaign(ctx, Campaign{Kind: Characterization, Sweep: fastSweep(), SkipCache: true}); err != nil {
		t.Fatal(err)
	}
	if storeLen(t, st) != 1 {
		t.Fatalf("store holds %d records after SkipCache campaign, want 1", storeLen(t, st))
	}
}
