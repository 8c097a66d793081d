// Package engine is the fleet campaign orchestrator: it runs
// characterization sweeps, temperature studies, and NN-inference sweeps
// across N simulated boards concurrently, streams per-board progress events,
// aggregates cross-chip variation statistics, and memoizes Fault Variation
// Maps so repeated campaigns skip re-characterization.
//
// The paper's central observation — undervolting behavior varies
// chip-to-chip (its two "identical" KC705 samples differ 4.1× in fault
// rate) and platform-to-platform — only becomes operational at fleet scale:
// a deployment that wants to undervolt safely must characterize every board
// it owns and steer by the spread, not by one golden sample. The engine is
// that layer. A Fleet is an inventory of platforms (any mix of models and
// serials); a Campaign is one study executed across the whole inventory by
// a bounded worker pool; the Aggregate is the paper's Table II / Fig. 7
// story told across the fleet: min/median/max faults per Mbit, Vmin and
// Vcrash spread, and the max/min spread ratio.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/accel"
	"repro/internal/board"
	"repro/internal/characterize"
	"repro/internal/fvm"
	"repro/internal/nn"
	"repro/internal/platform"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/voltage"
)

// CampaignKind selects the study a campaign runs on every board.
type CampaignKind int

// The fleet studies.
const (
	// Characterization runs the Listing 1 sweep and extracts each board's
	// FVM. Results are memoized in the fleet's FVM cache.
	Characterization CampaignKind = iota
	// TemperatureStudy runs a full sweep at each requested on-board
	// temperature (the Fig. 8 procedure, fleet-wide).
	TemperatureStudy
	// NNInference deploys a quantized network on every board and sweeps
	// inference accuracy from Vmin to Vcrash (the Fig. 11 curve, per chip).
	NNInference
	// KindPattern runs the Fig. 4 data-pattern study on every board: each
	// requested fill is measured at a fixed voltage (default Vcrash).
	KindPattern
	// KindThresholds runs Fig. 1 threshold discovery on every board,
	// locating both rails' Vmin and Vcrash boundaries.
	KindThresholds
	// KindMitigation sweeps VCCBRAM from nominal to Vcrash on every board
	// and compares undervolting-fault mitigation arms — unprotected, ECC,
	// ICBP placement, and the DVFS guardband baseline — at each level
	// (the arXiv:1903.12514 evaluation, fleet-wide).
	KindMitigation
)

// String names the campaign kind.
func (k CampaignKind) String() string {
	switch k {
	case Characterization:
		return "characterization"
	case TemperatureStudy:
		return "temperature-study"
	case NNInference:
		return "nn-inference"
	case KindPattern:
		return "pattern-study"
	case KindThresholds:
		return "threshold-discovery"
	case KindMitigation:
		return "mitigation"
	}
	return "unknown"
}

// Kinds returns every campaign kind, in declaration order — the one list
// KindByName and campaign validation both derive from.
func Kinds() []CampaignKind {
	return []CampaignKind{Characterization, TemperatureStudy, NNInference, KindPattern, KindThresholds, KindMitigation}
}

// KindByName resolves a campaign kind from its String form.
func KindByName(name string) (CampaignKind, error) {
	for _, k := range Kinds() {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("engine: unknown campaign kind %q", name)
}

// EventKind tags a progress event.
type EventKind int

// The per-board lifecycle events a campaign streams.
const (
	EventBoardStart EventKind = iota
	EventBoardDone
	EventBoardFailed
	// EventLevel marks one completed voltage level of a mitigation sweep:
	// the board is still running, V carries the level's voltage and Faults
	// the unprotected faults/Mbit observed there.
	EventLevel
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EventBoardStart:
		return "start"
	case EventBoardDone:
		return "done"
	case EventBoardFailed:
		return "failed"
	case EventLevel:
		return "level"
	}
	return "unknown"
}

// Event is one per-board progress notification. Events are streamed to
// Campaign.Events while the campaign runs; the channel receives no further
// sends once RunCampaign returns (the engine never closes it — the caller
// owns it).
type Event struct {
	Kind      EventKind
	Board     int // fleet index
	Platform  string
	Serial    string
	FromCache bool    // done: the result was served from the FVM cache
	Faults    float64 // done: faults/Mbit at the deepest level (when known)
	// V is the voltage of a mitigation level event (level events only).
	V float64
	// InferError is the board's classification error at the deepest
	// inference level (done events of NNInference campaigns only).
	InferError float64
	Err        error // failed: what went wrong
	// Progress is the campaign-level completion percentage (0..100) at the
	// moment the event was emitted: finished boards over the fleet, each
	// board weighted by how many sweep steps its study costs, so a
	// temperature ladder counts for more than a single sweep and platforms
	// with wider voltage windows count for more than narrow ones.
	Progress float64
}

// BoardResult is one board's outcome within a campaign. Exactly one of the
// payload fields is populated, matching the campaign kind; Err is set when
// the board failed (the rest of the fleet still completes).
type BoardResult struct {
	Board     int
	Platform  string
	Serial    string
	FromCache bool

	Sweep          *characterize.Sweep          // Characterization
	FVM            *fvm.Map                     // Characterization
	TempSweeps     []*characterize.Sweep        // TemperatureStudy, aligned with Campaign.Temps
	Inference      []accel.InferenceResult      // NNInference, Vmin..Vcrash order
	Patterns       []characterize.PatternResult // KindPattern, in Campaign.Patterns order
	BRAMThresholds *characterize.Thresholds     // KindThresholds: VCCBRAM boundaries
	IntThresholds  *characterize.Thresholds     // KindThresholds: VCCINT boundaries
	Mitigation     []MitigationArm              // KindMitigation, in requested-arm order

	Err error
}

// finalSweep returns the sweep whose deepest level feeds the cross-chip
// aggregation: the characterization sweep, or the last (hottest) temperature
// sweep.
func (r *BoardResult) finalSweep() *characterize.Sweep {
	if r.Sweep != nil {
		return r.Sweep
	}
	if n := len(r.TempSweeps); n > 0 {
		return r.TempSweeps[n-1]
	}
	return nil
}

// Aggregate is the fleet-wide cross-chip variation summary.
type Aggregate struct {
	Boards    int // fleet size
	Completed int
	Failed    int
	CacheHits int

	// Spread of the per-board faults/Mbit at the deepest measured level —
	// the fleet-scale version of Table II's chip column and Fig. 7's 4.1×
	// die-to-die gap.
	FaultsPerMbit stats.Summary
	// SpreadRatio is max/min of the per-board faults/Mbit (minimum clamped
	// to 1 fault/Mbit so a lucky zero-fault chip doesn't blow it up).
	SpreadRatio float64
	// ObservedVmin / ObservedVcrash summarize where each board's fault-free
	// window ends and where its sweep bottomed out.
	ObservedVmin   stats.Summary
	ObservedVcrash stats.Summary
	// ZeroFaultShare summarizes the per-board fraction of never-faulting
	// BRAMs (38.9% on the paper's VC707).
	ZeroFaultShare stats.Summary
	// InferenceError summarizes the per-board classification error at the
	// deepest inference level (NNInference campaigns only).
	InferenceError stats.Summary
	// Mitigation compares the arms of a KindMitigation campaign across the
	// fleet, in canonical arm order (only arms at least one board ran).
	Mitigation []MitigationAggregate
}

// Campaign describes one fleet-wide study.
type Campaign struct {
	Kind CampaignKind

	// Sweep tunes the per-board characterization (all kinds; zero value
	// means paper defaults).
	Sweep characterize.Options

	// Temps lists the on-board temperatures of a TemperatureStudy
	// (default: the paper's 50..80 °C ladder).
	Temps []float64

	// Net, TestX, TestY drive an NNInference campaign: the quantized
	// network deployed on every board and the test set it classifies.
	Net   *nn.Quantized
	TestX [][]float64
	TestY []int
	// Seed is the placement seed for the inference build (default 1).
	Seed uint64

	// Patterns lists the fills a KindPattern campaign measures (default:
	// the paper's five — 0xFFFF, 0xAAAA, 0x5555, random, all-zeros).
	Patterns []characterize.Options
	// PatternV fixes the voltage of a KindPattern campaign (0 → each
	// platform's Vcrash, the paper's Fig. 4 operating point).
	PatternV float64

	// ProbeRuns tunes KindThresholds' per-level fault probe (0 → 3).
	ProbeRuns int

	// MitArms selects the arms of a KindMitigation campaign (subset of
	// MitigationArms(); empty → all four, canonical order).
	MitArms []string
	// MitVoltages fixes the mitigation ladder (strictly descending; empty →
	// each platform's nominal..Vcrash at the standard step).
	MitVoltages []float64
	// MitIsoEnergy makes the DVFS arm search for the guardbanded voltage
	// whose energy matches each level's undervolted energy (iso-energy
	// comparison) instead of scaling frequency at the level's own voltage.
	MitIsoEnergy bool

	// Events optionally receives per-board progress. The engine stops
	// sending when RunCampaign returns and never closes the channel; an
	// unread channel stalls only the sending worker, and campaign
	// cancellation unblocks it.
	Events chan<- Event

	// SkipCache forces re-characterization even on a warm cache.
	SkipCache bool
}

// CampaignResult is a completed campaign: per-board outcomes (fleet order)
// plus the cross-chip aggregate.
type CampaignResult struct {
	Kind   CampaignKind
	Boards []BoardResult
	Agg    Aggregate
}

// Options tunes a fleet.
type Options struct {
	// Workers bounds how many boards run concurrently
	// (0 → min(GOMAXPROCS, fleet size)).
	Workers int
	// Store, when set, backs the FVM cache with a durable second level:
	// characterizations write through as they complete and cache misses
	// fall back to it, so a fleet built over a warm store never re-runs a
	// sweep the process — or any earlier process — already paid for.
	Store store.Store
	// Cache, when set, is shared with other fleets instead of building a
	// private one — the shape a service wants, so concurrent jobs
	// characterizing the same board collapse into one sweep. Store is then
	// ignored; the shared cache's own capacity and backing govern.
	Cache *FVMCache
}

// Fleet is a pool of simulated boards campaigns run across. Boards are
// assembled on demand (a *board.Board is stateful and single-campaign), but
// their characterization products are memoized in the FVM cache, so a fleet
// behaves like a rack of once-characterized physical boards.
type Fleet struct {
	platforms  []platform.Platform
	workers    int
	cache      *FVMCache
	placements *PlacementCache

	characterizations atomic.Uint64 // real sweeps executed (cache misses)
}

// NewFleet assembles a fleet over the given board inventory. The slice is
// copied; an empty inventory yields an empty fleet whose campaigns complete
// trivially.
func NewFleet(platforms []platform.Platform, opts Options) *Fleet {
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > len(platforms) && len(platforms) > 0 {
		w = len(platforms)
	}
	cache := opts.Cache
	if cache == nil {
		cache = NewFVMCache(DefaultCacheCapacity)
		if opts.Store != nil {
			cache.SetBacking(opts.Store)
		}
	}
	return &Fleet{
		platforms:  append([]platform.Platform(nil), platforms...),
		workers:    w,
		cache:      cache,
		placements: NewPlacementCache(),
	}
}

// Size returns the number of boards in the fleet.
func (f *Fleet) Size() int { return len(f.platforms) }

// Platforms returns a copy of the fleet inventory in campaign order.
func (f *Fleet) Platforms() []platform.Platform {
	return append([]platform.Platform(nil), f.platforms...)
}

// CacheStats snapshots the FVM cache counters.
func (f *Fleet) CacheStats() CacheStats { return f.cache.Stats() }

// PlacementStats snapshots the placement cache counters.
func (f *Fleet) PlacementStats() PlacementStats { return f.placements.Stats() }

// Characterizations returns how many real (non-cached) characterization
// sweeps the fleet has executed since construction.
func (f *Fleet) Characterizations() uint64 { return f.characterizations.Load() }

// RunCampaign executes the campaign across every board with the fleet's
// bounded worker pool. Per-board failures are recorded in their BoardResult
// and do not stop the rest of the fleet; cancelling the context stops all
// workers promptly and returns ctx.Err().
func (f *Fleet) RunCampaign(ctx context.Context, c Campaign) (*CampaignResult, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	// Split the CPU budget between fleet- and board-level parallelism: each
	// sweep otherwise defaults to GOMAXPROCS readers on top of f.workers
	// concurrent boards, oversubscribing the machine workers²-fold. This
	// split is the only bound on read concurrency: with defaults a fleet
	// runs at most GOMAXPROCS scan workers, and each serial reader
	// (threshold probes, mitigation scans, NN readback) is one board worker.
	if c.Sweep.Workers == 0 && f.workers > 0 {
		c.Sweep.Workers = max(1, runtime.GOMAXPROCS(0)/f.workers)
	}
	pm := newProgressMeter()
	for _, p := range f.platforms {
		pm.grow(c.boardWeight(p))
	}
	results := make([]BoardResult, len(f.platforms))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < f.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				results[i] = f.runBoard(ctx, c, pm, i, f.platforms[i])
			}
		}()
	}
feed:
	for i := range f.platforms {
		select {
		case next <- i:
		case <-ctx.Done():
			// Unfed boards record the cancellation so the slice stays
			// index-aligned with the fleet.
			for j := i; j < len(f.platforms); j++ {
				if results[j].Platform == "" {
					results[j] = BoardResult{
						Board: j, Platform: f.platforms[j].Name,
						Serial: f.platforms[j].Serial, Err: ctx.Err(),
					}
				}
			}
			break feed
		}
	}
	close(next)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return &CampaignResult{Kind: c.Kind, Boards: results, Agg: aggregate(results)}, nil
}

// validate rejects campaigns whose required inputs are missing before any
// board spins up.
func (c Campaign) validate() error {
	if !slices.Contains(Kinds(), c.Kind) {
		return fmt.Errorf("engine: unknown campaign kind %d", c.Kind)
	}
	if c.Kind == NNInference {
		if c.Net == nil {
			return fmt.Errorf("engine: NNInference campaign needs a quantized network")
		}
		if len(c.TestX) == 0 || len(c.TestX) != len(c.TestY) {
			return fmt.Errorf("engine: NNInference campaign needs an aligned test set (%d inputs, %d labels)",
				len(c.TestX), len(c.TestY))
		}
	}
	if c.Kind == KindMitigation {
		if err := ValidateMitigation(c.MitArms, c.MitVoltages); err != nil {
			return err
		}
	}
	return nil
}

// defaultPatterns returns the Fig. 4 fill set a KindPattern campaign runs
// when none is given.
func defaultPatterns() []characterize.Options {
	return []characterize.Options{
		{Pattern: 0xFFFF},
		{Pattern: 0xAAAA},
		{Pattern: 0x5555},
		{RandomFill: true},
		{ZeroFill: true, PatternName: "16'h0000"},
	}
}

// progressMeter tracks weighted campaign completion. It is shared by the
// board workers; total is fixed before the first board starts.
type progressMeter struct {
	mu    sync.Mutex
	total float64
	done  float64
}

func newProgressMeter() *progressMeter { return &progressMeter{} }

// grow enlarges the campaign's total weight (called once per board, before
// the workers start).
func (pm *progressMeter) grow(w float64) {
	pm.mu.Lock()
	pm.total += w
	pm.mu.Unlock()
}

// percent returns current completion in [0, 100].
func (pm *progressMeter) percent() float64 {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	return pm.percentLocked()
}

func (pm *progressMeter) percentLocked() float64 {
	if pm.total <= 0 {
		return 100
	}
	p := 100 * pm.done / pm.total
	if p > 100 {
		p = 100
	}
	return p
}

// add credits w units of finished work and returns the updated percentage.
func (pm *progressMeter) add(w float64) float64 {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	pm.done += w
	return pm.percentLocked()
}

// boardWeight estimates how many sweep steps the campaign costs on one
// board, so progress weights a temperature ladder heavier than one sweep and
// a wide voltage window heavier than a narrow one. Only relative magnitudes
// matter; the estimate intentionally ignores per-level run counts, which are
// uniform across the fleet.
func (c Campaign) boardWeight(p platform.Platform) float64 {
	o := c.Sweep.Normalized(p.Cal)
	levels := float64(len(voltage.SweepDown(o.VStart, o.VStop, o.StepV)))
	switch c.Kind {
	case Characterization:
		return levels
	case TemperatureStudy:
		n := len(c.Temps)
		if n == 0 {
			n = 4 // the default 50..80 °C ladder
		}
		return levels * float64(n)
	case NNInference:
		return float64(len(voltage.SweepDown(p.Cal.Vmin, p.Cal.Vcrash, voltage.Step)))
	case KindPattern:
		n := len(c.Patterns)
		if n == 0 {
			n = len(defaultPatterns())
		}
		return float64(n)
	case KindThresholds:
		// Both rails sweep from nominal toward the discovery floor.
		return 2 * float64(len(voltage.SweepDown(p.Cal.Vnom, 0.40, voltage.Step)))
	case KindMitigation:
		return float64(len(c.mitigationLadder(p)))
	}
	return 1
}

// emit streams a progress event without ever outliving the campaign: a full
// channel blocks only until the consumer reads or the context dies.
func (c Campaign) emit(ctx context.Context, ev Event) {
	if c.Events == nil {
		return
	}
	select {
	case c.Events <- ev:
	case <-ctx.Done():
	}
}

// runBoard executes the campaign's study on one fleet member.
func (f *Fleet) runBoard(ctx context.Context, c Campaign, pm *progressMeter, idx int, p platform.Platform) BoardResult {
	res := BoardResult{Board: idx, Platform: p.Name, Serial: p.Serial}
	// The feeder's select can hand out work in the same instant the context
	// dies; re-check here so no sweep starts post-cancellation.
	if err := ctx.Err(); err != nil {
		res.Err = err
		return res
	}
	c.emit(ctx, Event{Kind: EventBoardStart, Board: idx, Platform: p.Name, Serial: p.Serial,
		Progress: pm.percent()})

	var err error
	switch c.Kind {
	case Characterization:
		err = f.characterizeBoard(ctx, c, p, &res)
	case TemperatureStudy:
		err = f.temperatureBoard(ctx, c, p, &res)
	case NNInference:
		err = f.inferenceBoard(ctx, c, p, &res)
	case KindPattern:
		err = f.patternBoard(ctx, c, p, &res)
	case KindThresholds:
		err = f.thresholdsBoard(ctx, c, p, &res)
	case KindMitigation:
		err = f.mitigationBoard(ctx, c, pm, idx, p, &res)
	default:
		err = fmt.Errorf("engine: unknown campaign kind %d", c.Kind)
	}
	// The board's weight is credited whether it succeeded or failed —
	// either way that share of the campaign is no longer outstanding.
	progress := pm.add(c.boardWeight(p))
	if err != nil {
		res.Err = err
		c.emit(ctx, Event{Kind: EventBoardFailed, Board: idx, Platform: p.Name, Serial: p.Serial,
			Err: err, Progress: progress})
		return res
	}
	done := Event{Kind: EventBoardDone, Board: idx, Platform: p.Name, Serial: p.Serial,
		FromCache: res.FromCache, Progress: progress}
	if s := res.finalSweep(); s != nil && len(s.Levels) > 0 {
		done.Faults = s.Final().FaultsPerMbit
	}
	if n := len(res.Inference); n > 0 {
		done.InferError = res.Inference[n-1].Error
	}
	// A mitigation study has no characterization sweep; its done event
	// reports the unprotected arm's deepest-level fault rate.
	if done.Faults == 0 && len(res.Mitigation) > 0 {
		if pts := res.Mitigation[0].Levels; len(pts) > 0 {
			done.Faults = pts[len(pts)-1].FaultsPerMbit
		}
	}
	c.emit(ctx, done)
	return res
}

// cacheKey derives the board's memoization key for the campaign's sweep.
// Options resolve through characterize's own default normalization first, so
// an explicit paper-default sweep and a zero-valued one share an entry and
// the key can never drift from what the sweep actually measures.
func cacheKey(p platform.Platform, o characterize.Options) CacheKey {
	o = o.Normalized(p.Cal)
	return CacheKey{
		Platform: p.Name,
		Serial:   p.Serial,
		BRAMs:    p.NumBRAMs,
		GridCols: p.Geometry.GridCols,
		GridRows: p.Geometry.GridRows,
		TempC:    o.OnBoardC,
		Runs:     o.Runs,
		Options:  o.Fingerprint(),
	}
}

// characterizeBoard runs (or recalls) the board's characterization sweep
// and FVM. Concurrent campaigns (same fleet or fleets sharing the cache)
// that race on one key collapse into a single measurement.
func (f *Fleet) characterizeBoard(ctx context.Context, c Campaign, p platform.Platform, res *BoardResult) error {
	key := cacheKey(p, c.Sweep)
	if c.SkipCache {
		s, m, err := f.measureBoard(ctx, c, p)
		if err != nil {
			return err
		}
		res.Sweep, res.FVM = s, m
		f.cache.Put(key, s, m)
		return nil
	}
	s, m, fromCache, err := f.cache.GetOrCompute(ctx, key, func() (*characterize.Sweep, *fvm.Map, error) {
		return f.measureBoard(ctx, c, p)
	})
	if err != nil {
		return err
	}
	res.Sweep, res.FVM, res.FromCache = s, m, fromCache
	return nil
}

// measureBoard executes one real characterization sweep and extracts its
// FVM.
func (f *Fleet) measureBoard(ctx context.Context, c Campaign, p platform.Platform) (*characterize.Sweep, *fvm.Map, error) {
	b := board.New(p)
	f.characterizations.Add(1)
	s, err := characterize.Run(ctx, b, c.Sweep)
	if err != nil {
		return nil, nil, err
	}
	m, err := fvm.FromSweep(b.Platform, s)
	if err != nil {
		return nil, nil, err
	}
	return s, m, nil
}

// temperatureBoard runs the Fig. 8 ladder on one board.
func (f *Fleet) temperatureBoard(ctx context.Context, c Campaign, p platform.Platform, res *BoardResult) error {
	temps := c.Temps
	if len(temps) == 0 {
		temps = []float64{50, 60, 70, 80}
	}
	b := board.New(p)
	f.characterizations.Add(uint64(len(temps)))
	sweeps, err := characterize.TemperatureStudy(ctx, b, temps, c.Sweep)
	if err != nil {
		return err
	}
	res.TempSweeps = sweeps
	return nil
}

// inferenceBoard deploys the campaign's network and sweeps inference
// accuracy on one board. The compiled placement is memoized fleet-wide:
// boards sharing a floorplan assemble the same bitstream instead of each
// re-running place and route.
func (f *Fleet) inferenceBoard(ctx context.Context, c Campaign, p platform.Platform, res *BoardResult) error {
	seed := c.Seed
	if seed == 0 {
		seed = 1
	}
	d, bs, _, err := f.placements.getOrBuild(p, c.Net, seed)
	if err != nil {
		return err
	}
	b := board.New(p)
	a, err := accel.Assemble(b, c.Net, d, bs)
	if err != nil {
		return err
	}
	rs, err := a.Sweep(ctx, c.TestX, c.TestY, 0)
	if err != nil {
		return err
	}
	res.Inference = rs
	return nil
}

// patternBoard measures each requested fill at the campaign's fixed voltage
// on one board (Fig. 4, fleet-wide). The campaign's on-board temperature and
// per-board worker count are threaded into every fill that does not set its
// own — otherwise a temp_c=80 pattern study would silently measure at each
// pattern's 50 °C default, and every fill would start GOMAXPROCS readers on
// each of the fleet's concurrent boards.
func (f *Fleet) patternBoard(ctx context.Context, c Campaign, p platform.Platform, res *BoardResult) error {
	// Clone before patching the fills: every board worker sees the same
	// backing array, and the caller's Campaign must not be mutated.
	pats := slices.Clone(c.Patterns)
	if len(pats) == 0 {
		pats = defaultPatterns()
	}
	o := c.Sweep.Normalized(p.Cal)
	for i := range pats {
		if pats[i].OnBoardC == 0 {
			pats[i].OnBoardC = o.OnBoardC
		}
		if pats[i].Workers == 0 {
			pats[i].Workers = o.Workers
		}
	}
	v := c.PatternV
	if v == 0 {
		v = p.Cal.Vcrash
	}
	b := board.New(p)
	f.characterizations.Add(uint64(len(pats)))
	rs, err := characterize.RunPatternStudy(ctx, b, v, pats, o.Runs)
	if err != nil {
		return err
	}
	res.Patterns = rs
	return nil
}

// thresholdsBoard discovers both rails' operating boundaries on one board
// (Fig. 1, fleet-wide) at the campaign's on-board temperature.
func (f *Fleet) thresholdsBoard(ctx context.Context, c Campaign, p platform.Platform, res *BoardResult) error {
	b := board.New(p)
	b.SetOnBoardTemp(c.Sweep.Normalized(p.Cal).OnBoardC)
	f.characterizations.Add(2)
	thB, err := characterize.DiscoverBRAMThresholds(ctx, b, c.ProbeRuns)
	if err != nil {
		return err
	}
	thI, err := characterize.DiscoverIntThresholds(ctx, b)
	if err != nil {
		return err
	}
	res.BRAMThresholds, res.IntThresholds = &thB, &thI
	return nil
}

// ObservedVmin returns the lowest voltage level of the sweep that stayed
// fault-free — the board's empirical Vmin. When even the first level faults,
// the top of the window is returned. The definition lives in the store
// layer so index summaries and fleet aggregates can never disagree.
func ObservedVmin(s *characterize.Sweep) float64 { return store.SweepVmin(s) }

// BoardSample is one board's scalar contribution to the fleet aggregate —
// the campaign-kind payload of a BoardResult boiled down to the numbers
// Aggregate summarizes. It exists so a result that crossed a process
// boundary (a federation shard, say) can still be folded into the same
// fleet summary the in-process engine computes: callers rebuild samples
// from the wire form and hand them to AggregateSamples.
//
// Each metric is a slice because a board may legitimately contribute zero
// values to a given summary (a pattern study has no Vmin) and, per metric,
// order within the board is preserved by the fold.
type BoardSample struct {
	Failed    bool
	FromCache bool

	Faults     []float64 // faults/Mbit at the deepest measured level
	Vmins      []float64 // observed Vmin (sweeps, BRAM thresholds)
	Vcrashes   []float64 // observed Vcrash
	ZeroShares []float64 // fraction of never-faulting BRAMs
	InferErrs  []float64 // classification error at the deepest level

	// Mitigation carries the board's per-arm scalar outcomes (mitigation
	// campaigns only), in the board's arm order.
	Mitigation []MitigationSample
}

// Sample reduces the board's outcome to its aggregate contribution.
func (r *BoardResult) Sample() BoardSample {
	s := BoardSample{Failed: r.Err != nil, FromCache: r.FromCache}
	if s.Failed {
		return s
	}
	if sw := r.finalSweep(); sw != nil && len(sw.Levels) > 0 {
		s.Faults = append(s.Faults, sw.Final().FaultsPerMbit)
		s.Vmins = append(s.Vmins, ObservedVmin(sw))
		s.Vcrashes = append(s.Vcrashes, sw.Final().V)
	}
	// Pattern studies contribute their worst-case fill, so the fleet
	// spread reflects the most pessimistic data pattern per chip.
	if len(r.Patterns) > 0 {
		worst := r.Patterns[0].FaultsPerMbit
		for _, pr := range r.Patterns[1:] {
			if pr.FaultsPerMbit > worst {
				worst = pr.FaultsPerMbit
			}
		}
		s.Faults = append(s.Faults, worst)
	}
	// Threshold discovery contributes the BRAM rail's boundaries to the
	// fleet's Vmin/Vcrash spread.
	if r.BRAMThresholds != nil {
		s.Vmins = append(s.Vmins, r.BRAMThresholds.Vmin)
		s.Vcrashes = append(s.Vcrashes, r.BRAMThresholds.Vcrash)
	}
	if r.FVM != nil {
		s.ZeroShares = append(s.ZeroShares, r.FVM.ZeroShare())
	}
	if n := len(r.Inference); n > 0 {
		s.InferErrs = append(s.InferErrs, r.Inference[n-1].Error)
	}
	for i := range r.Mitigation {
		arm := &r.Mitigation[i]
		s.Mitigation = append(s.Mitigation, MitigationSample{
			Arm: arm.Arm, MinSafeV: arm.MinSafeV, EnergySavings: arm.EnergySavings,
		})
		// The unprotected arm's deepest level doubles as the board's
		// contribution to the fleet's faults/Mbit spread.
		if arm.Arm == ArmUnprotected && len(arm.Levels) > 0 {
			s.Faults = append(s.Faults, arm.Levels[len(arm.Levels)-1].FaultsPerMbit)
		}
	}
	return s
}

// AggregateSamples folds per-board samples into the fleet summary. The fold
// is order-preserving and purely a function of the samples, so shards
// aggregated remotely and merged here are bit-identical to a single-process
// run over the same boards in the same order.
func AggregateSamples(samples []BoardSample) Aggregate {
	agg := Aggregate{Boards: len(samples)}
	var faults, vmins, vcrashes, zeros, inferr []float64
	for i := range samples {
		s := &samples[i]
		if s.Failed {
			agg.Failed++
			continue
		}
		agg.Completed++
		if s.FromCache {
			agg.CacheHits++
		}
		faults = append(faults, s.Faults...)
		vmins = append(vmins, s.Vmins...)
		vcrashes = append(vcrashes, s.Vcrashes...)
		zeros = append(zeros, s.ZeroShares...)
		inferr = append(inferr, s.InferErrs...)
	}
	agg.FaultsPerMbit = stats.Summarize(faults)
	agg.ObservedVmin = stats.Summarize(vmins)
	agg.ObservedVcrash = stats.Summarize(vcrashes)
	agg.ZeroFaultShare = stats.Summarize(zeros)
	agg.InferenceError = stats.Summarize(inferr)
	agg.Mitigation = aggregateMitigation(samples)
	if len(faults) > 0 {
		minF := agg.FaultsPerMbit.Min
		if minF < 1 {
			minF = 1
		}
		agg.SpreadRatio = agg.FaultsPerMbit.Max / minF
	}
	return agg
}

// aggregate folds per-board outcomes into the fleet summary.
func aggregate(results []BoardResult) Aggregate {
	samples := make([]BoardSample, len(results))
	for i := range results {
		samples[i] = results[i].Sample()
	}
	return AggregateSamples(samples)
}
