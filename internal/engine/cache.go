package engine

import (
	"context"
	"sync"

	"repro/internal/characterize"
	"repro/internal/fvm"
	"repro/internal/store"
)

// CacheKey identifies one characterization product: a board (platform +
// serial + pool geometry) swept under a specific temperature, run count,
// and sweep window. Fault locations are deterministic per chip (Section
// II-C), so two sweeps with the same key produce the same FVM — the whole
// point of memoizing. The geometry fields matter because Platform.Scaled
// mints a different simulated die from the same serial: a 120-BRAM and a
// 200-BRAM VC707 are distinct measurements and must never share an entry.
// It is the store's key itself, so the memory level and the backing store
// can never disagree about what "the same characterization" is.
type CacheKey = store.Key

// CacheStats reports cache effectiveness over the fleet's lifetime. Hits
// counts lookups served by either cache level; StoreHits is the subset that
// came from the backing store (a warm disk after a restart shows pure
// StoreHits). Misses are full misses that forced a real characterization.
type CacheStats struct {
	Hits        uint64
	Misses      uint64
	StoreHits   uint64 // hits served by the backing store, not memory
	StoreErrors uint64 // backing store failures (reads and writes)
	Len         int    // entries currently held
	Cap         int
}

// HitRate returns the fraction of lookups served from cache.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

type cacheEntry struct {
	sweep *characterize.Sweep
	fvm   *fvm.Map
	used  uint64 // logical clock of the last touch, for LRU eviction
}

// FVMCache memoizes characterization sweeps and their Fault Variation Maps
// with least-recently-used eviction. It is safe for concurrent use by the
// campaign workers.
//
// With a backing store attached it becomes the first level of a two-level
// cache: Get falls through to the store on a memory miss (promoting what it
// finds), and Put writes through, so every characterization is durable the
// moment it completes. Store failures never fail a campaign — the result in
// hand is still correct — they are only counted in CacheStats.
type FVMCache struct {
	mu      sync.Mutex
	cap     int
	tick    uint64
	entries map[CacheKey]*cacheEntry
	flights map[CacheKey]*flight
	hits    uint64
	misses  uint64

	backing   store.Store
	storeHits uint64
	storeErrs uint64
}

// flight is one in-progress characterization other lookups of the same key
// wait on instead of measuring in parallel. Results are published before
// done is closed.
type flight struct {
	done  chan struct{}
	sweep *characterize.Sweep
	fvm   *fvm.Map
	err   error
}

// DefaultCacheCapacity bounds a fleet's private cache, and any cache built
// with a capacity <= 0.
const DefaultCacheCapacity = 64

// NewFVMCache returns an empty cache holding at most capacity entries
// (DefaultCacheCapacity when capacity <= 0).
func NewFVMCache(capacity int) *FVMCache {
	if capacity <= 0 {
		capacity = DefaultCacheCapacity
	}
	return &FVMCache{
		cap:     capacity,
		entries: make(map[CacheKey]*cacheEntry),
		flights: make(map[CacheKey]*flight),
	}
}

// SetBacking attaches a durable second level. Call before the cache sees
// traffic (NewFleet does); the store itself must be concurrency-safe.
func (c *FVMCache) SetBacking(s store.Store) {
	c.mu.Lock()
	c.backing = s
	c.mu.Unlock()
}

// Invalidate drops k's entry from the memory level. Callers use it after
// deleting the backing record, so a GC'd or admin-deleted characterization
// is not resurrected from RAM on the next lookup. An in-flight
// characterization of the same key is unaffected — it will re-populate
// both levels when it lands, which is the correct outcome for a
// measurement that was still wanted.
func (c *FVMCache) Invalidate(k CacheKey) {
	c.mu.Lock()
	delete(c.entries, k)
	c.mu.Unlock()
}

// memGetLocked is the memory-level lookup with its hit bookkeeping and LRU
// touch; callers hold c.mu. Get and GetOrCompute share it so the two entry
// points cannot drift in cache discipline.
func (c *FVMCache) memGetLocked(k CacheKey) (*characterize.Sweep, *fvm.Map, bool) {
	e, ok := c.entries[k]
	if !ok {
		return nil, nil, false
	}
	c.hits++
	c.tick++
	e.used = c.tick
	return e.sweep, e.fvm, true
}

// Get returns the memoized sweep and map for k, if present in memory or in
// the backing store. Store hits are promoted into the memory level.
func (c *FVMCache) Get(k CacheKey) (*characterize.Sweep, *fvm.Map, bool) {
	c.mu.Lock()
	if s, m, ok := c.memGetLocked(k); ok {
		c.mu.Unlock()
		return s, m, true
	}
	backing := c.backing
	if backing == nil {
		c.misses++
		c.mu.Unlock()
		return nil, nil, false
	}
	c.mu.Unlock()

	// Second level. The store read happens outside the lock — it is I/O —
	// so concurrent lookups of different keys overlap. A racing promotion
	// of the same key is harmless: insertLocked overwrites idempotently.
	rec, ok, err := backing.Get(k)
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		// A torn or unreadable blob behaves like a miss: the campaign
		// re-characterizes and the write-through replaces the bad record.
		c.storeErrs++
		c.misses++
		return nil, nil, false
	}
	if !ok || rec.Sweep == nil {
		c.misses++
		return nil, nil, false
	}
	c.hits++
	c.storeHits++
	c.insertLocked(k, rec.Sweep, rec.FVM)
	return rec.Sweep, rec.FVM, true
}

// GetOrCompute returns the characterization for k, computing it via compute
// at most once across all concurrent callers of this cache: losers of the
// registration race wait for the winner's result instead of re-measuring —
// fault locations are deterministic per chip, so the duplicate sweep would
// only burn CPU to produce identical numbers. fromCache reports whether the
// caller was served without running compute itself. When the computer fails
// (e.g. its campaign was cancelled), waiters retry rather than inherit an
// error that belongs to someone else's context.
func (c *FVMCache) GetOrCompute(ctx context.Context, k CacheKey, compute func() (*characterize.Sweep, *fvm.Map, error)) (*characterize.Sweep, *fvm.Map, bool, error) {
	for {
		c.mu.Lock()
		if s, m, ok := c.memGetLocked(k); ok {
			c.mu.Unlock()
			return s, m, true, nil
		}
		if fl, ok := c.flights[k]; ok {
			c.mu.Unlock()
			select {
			case <-fl.done:
			case <-ctx.Done():
				return nil, nil, false, ctx.Err()
			}
			if fl.err == nil {
				c.mu.Lock()
				c.hits++
				c.mu.Unlock()
				return fl.sweep, fl.fvm, true, nil
			}
			continue
		}
		// Not in memory and nobody measuring: this caller takes the flight.
		// The flight is registered before the store lookup, so concurrent
		// callers wait on one disk read instead of issuing N.
		fl := &flight{done: make(chan struct{})}
		c.flights[k] = fl
		backing := c.backing
		c.mu.Unlock()

		if backing != nil {
			rec, ok, err := backing.Get(k)
			c.mu.Lock()
			if err != nil {
				c.storeErrs++
			} else if ok && rec.Sweep != nil {
				c.hits++
				c.storeHits++
				c.insertLocked(k, rec.Sweep, rec.FVM)
				c.mu.Unlock()
				c.finishFlight(k, fl, rec.Sweep, rec.FVM, nil)
				return rec.Sweep, rec.FVM, true, nil
			}
			c.mu.Unlock()
		}

		// Full miss: measure. Only this path is a miss per the CacheStats
		// contract — flight-served waiters above count as hits, not misses.
		c.mu.Lock()
		c.misses++
		c.mu.Unlock()
		s, m, err := compute()
		if err == nil {
			c.Put(k, s, m)
		}
		c.finishFlight(k, fl, s, m, err)
		return s, m, false, err
	}
}

// finishFlight publishes a flight's outcome and releases its waiters.
func (c *FVMCache) finishFlight(k CacheKey, fl *flight, s *characterize.Sweep, m *fvm.Map, err error) {
	fl.sweep, fl.fvm, fl.err = s, m, err
	c.mu.Lock()
	delete(c.flights, k)
	c.mu.Unlock()
	close(fl.done)
}

// Put stores the sweep and map under k, evicting the least recently used
// entry when the cache is full, and writes through to the backing store.
func (c *FVMCache) Put(k CacheKey, s *characterize.Sweep, m *fvm.Map) {
	c.mu.Lock()
	c.insertLocked(k, s, m)
	backing := c.backing
	c.mu.Unlock()
	if backing == nil {
		return
	}
	rec := &store.Record{Key: k, Sweep: s, FVM: m}
	if err := backing.Put(rec); err != nil {
		c.mu.Lock()
		c.storeErrs++
		c.mu.Unlock()
	}
}

// insertLocked places the entry in the memory level; callers hold c.mu.
func (c *FVMCache) insertLocked(k CacheKey, s *characterize.Sweep, m *fvm.Map) {
	c.tick++
	if e, ok := c.entries[k]; ok {
		e.sweep, e.fvm, e.used = s, m, c.tick
		return
	}
	if len(c.entries) >= c.cap {
		var lruKey CacheKey
		lruUsed := c.tick + 1
		for key, e := range c.entries {
			if e.used < lruUsed {
				lruKey, lruUsed = key, e.used
			}
		}
		delete(c.entries, lruKey)
	}
	c.entries[k] = &cacheEntry{sweep: s, fvm: m, used: c.tick}
}

// Stats returns a snapshot of the cache counters.
func (c *FVMCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits: c.hits, Misses: c.misses,
		StoreHits: c.storeHits, StoreErrors: c.storeErrs,
		Len: len(c.entries), Cap: c.cap,
	}
}
