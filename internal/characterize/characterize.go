// Package characterize implements the paper's experimental methodology for
// BRAM undervolting (Section II, Listing 1): initialize the BRAM pool with a
// data pattern, lower VCCBRAM in 10 mV steps, and at every level read the
// whole pool back ~100 times, analyzing fault rate, location, and polarity
// on the host. The reported value per level is the median across runs, as in
// the paper.
//
// The same harness drives the derived studies: threshold discovery (Fig. 1),
// the fault/power trade-off curves (Fig. 3), the data-pattern study
// (Fig. 4), run-to-run stability (Table II), and the heat-chamber
// temperature study (Fig. 8).
package characterize

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/board"
	"repro/internal/prng"
	"repro/internal/silicon"
	"repro/internal/stats"
	"repro/internal/voltage"
)

// Options tunes a sweep. The zero value means "paper defaults": 100 runs per
// level, pattern 0xFFFF, the platform's [Vmin, Vcrash] window, 10 mV steps,
// 50 °C, and all CPUs.
type Options struct {
	Runs        int     // read passes per voltage level (paper: 100)
	Pattern     uint16  // initial BRAM content (paper default: 0xFFFF)
	PatternName string  // label for reports; defaults to hex of Pattern
	ZeroFill    bool    // force the all-zeros pattern (Pattern 0 alone means "default")
	RandomFill  bool    // fill with a seeded random pattern instead (Fig. 4's 50% case)
	VStart      float64 // highest level of the sweep (0 → platform Vmin)
	VStop       float64 // lowest level (0 → platform Vcrash)
	StepV       float64 // sweep step (0 → 10 mV)
	OnBoardC    float64 // on-board temperature (0 → 50 °C)
	Workers     int     // concurrent readers (0 → GOMAXPROCS)
}

// Normalized resolves every zero field to its paper default under the given
// silicon calibration (the sweep window tops out at the platform's Vmin and
// bottoms out at its Vcrash). It is the single source of truth for option
// defaulting: the sweep itself and any cache keyed on options both resolve
// through here, so they cannot drift apart.
func (o Options) Normalized(cal silicon.Calibration) Options {
	if o.Runs <= 0 {
		o.Runs = 100
	}
	if o.ZeroFill {
		o.Pattern = 0
	} else if o.Pattern == 0 && !o.RandomFill && o.PatternName == "" {
		o.Pattern = 0xFFFF
	}
	if o.PatternName == "" {
		if o.RandomFill {
			o.PatternName = "random-50%"
		} else {
			o.PatternName = fmt.Sprintf("16'h%04X", o.Pattern)
		}
	}
	if o.VStart == 0 {
		o.VStart = cal.Vmin
	}
	if o.VStop == 0 {
		o.VStop = cal.Vcrash
	}
	if o.StepV == 0 {
		o.StepV = voltage.Step
	}
	if o.OnBoardC == 0 {
		o.OnBoardC = 50
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// Fingerprint returns a stable identity for the measurement-relevant knobs:
// the silicon model version, effective data fill, sweep window, and step.
// Worker count and PatternName are excluded — the first only changes
// scheduling, the second is a display label; what fill() actually
// writes is what identifies the measurement. The model version rides along
// so FVMs persisted under an older weak-cell model miss the cache and are
// re-measured rather than silently mixed with current-model results. Call it
// on Normalized options, so defaulted and explicit paper options collide,
// which is what a memoization key wants.
func (o Options) Fingerprint() string {
	fill := fmt.Sprintf("%04X", o.Pattern)
	if o.RandomFill {
		fill = "random" // seeded per serial, which the cache keys separately
	}
	return fmt.Sprintf("model=%d|fill=%s|win=%.3f..%.3f|step=%.3f",
		silicon.ModelVersion, fill, o.VStart, o.VStop, o.StepV)
}

// Level is the analysis of one voltage step.
type Level struct {
	V             float64
	RunTotals     []int         // chip-wide fault count of each run
	Stats         stats.Summary // summary of RunTotals (Table II columns)
	MedianFaults  float64
	FaultsPerMbit float64 // median, normalized per Mbit (the paper's unit)
	PerBRAM       []float64
	Flip10        int64 // "1"→"0" observations across runs
	Flip01        int64 // "0"→"1" observations across runs
	BRAMPowerW    float64
	MeterPowerW   float64
}

// Flip10Share returns the fraction of observed flips that were 1→0.
func (l Level) Flip10Share() float64 {
	total := l.Flip10 + l.Flip01
	if total == 0 {
		return 0
	}
	return float64(l.Flip10) / float64(total)
}

// Sweep is the result of one full undervolting characterization.
type Sweep struct {
	Platform    string
	Serial      string
	PatternName string
	OnBoardC    float64
	Levels      []Level
}

// LevelAt returns the level measured at voltage v (within half a step).
func (s *Sweep) LevelAt(v float64) (Level, bool) {
	for _, l := range s.Levels {
		if diff := l.V - v; diff < 0.005 && diff > -0.005 {
			return l, true
		}
	}
	return Level{}, false
}

// Final returns the deepest measured level (normally Vcrash).
func (s *Sweep) Final() Level {
	if len(s.Levels) == 0 {
		return Level{}
	}
	return s.Levels[len(s.Levels)-1]
}

// PerBRAMMedian returns the per-BRAM median fault counts at the deepest
// level, the input to clustering and FVM extraction.
func (s *Sweep) PerBRAMMedian() []float64 { return s.Final().PerBRAM }

// Run executes the sweep of Listing 1 on the board and restores nominal
// voltage afterwards. The context is checked between voltage levels and
// between read passes, so a cancelled sweep stops promptly; the rail is
// restored to nominal before the cancellation error is returned.
func Run(ctx context.Context, b *board.Board, opts Options) (*Sweep, error) {
	o := opts.Normalized(b.Platform.Cal)
	b.SetOnBoardTemp(o.OnBoardC)
	fill(b, o)

	sweep := &Sweep{
		Platform:    b.Platform.Name,
		Serial:      b.Platform.Serial,
		PatternName: o.PatternName,
		OnBoardC:    o.OnBoardC,
	}
	for _, v := range voltage.SweepDown(o.VStart, o.VStop, o.StepV) {
		if err := ctx.Err(); err != nil {
			return nil, b.RestoreVCCBRAM(err)
		}
		if err := b.SetVCCBRAM(v); err != nil {
			return nil, b.RestoreVCCBRAM(err)
		}
		if !b.Operating() {
			break // crash region reached; DONE dropped
		}
		b.SoftReset()
		level, err := measureLevel(ctx, b, o, v)
		if err != nil {
			return nil, b.RestoreVCCBRAM(err)
		}
		sweep.Levels = append(sweep.Levels, level)
	}
	if err := b.SetVCCBRAM(b.Platform.Cal.Vnom); err != nil {
		return nil, err
	}
	return sweep, nil
}

// fill initializes the pool with the requested pattern.
func fill(b *board.Board, o Options) {
	if !o.RandomFill {
		b.FillAll(o.Pattern)
		return
	}
	src := prng.NewKeyed("characterize-random-fill:" + b.Platform.Serial)
	b.FillAllFunc(func(site, row int) uint16 { return uint16(src.Uint64()) })
}

// measureLevel performs o.Runs full-pool read passes at the current voltage
// and aggregates host-side analysis. The context is checked before every
// read pass.
func measureLevel(ctx context.Context, b *board.Board, o Options, v float64) (Level, error) {
	nSites := b.Pool.Len()
	level := Level{V: v}
	// Every site's count of every run, site-major: site s's runs are
	// siteRuns[s*o.Runs : (s+1)*o.Runs], so its median is taken in place.
	siteRuns := make([]int, nSites*o.Runs)

	// The paper validates link fidelity at each level with a full wire-path
	// transfer before the measurement runs. The probe reads under the
	// reserved LinkProbeRun index so it can never alias the jitter draw of a
	// numbered BeginRun() measurement pass.
	if _, err := b.StreamBRAM(0, board.LinkProbeRun); err != nil {
		return Level{}, err
	}

	for run := 0; run < o.Runs; run++ {
		if err := ctx.Err(); err != nil {
			return Level{}, err
		}
		runIdx := b.BeginRun()
		total, f10, f01, err := scanPool(b, o, siteRuns, run, runIdx)
		if err != nil {
			return Level{}, err
		}
		level.RunTotals = append(level.RunTotals, total)
		level.Flip10 += f10
		level.Flip01 += f01
	}

	level.Stats = stats.SummarizeInts(level.RunTotals)
	level.MedianFaults = level.Stats.Median
	level.FaultsPerMbit = level.MedianFaults / b.Pool.TotalMbits()
	level.PerBRAM = make([]float64, nSites)
	for s := range level.PerBRAM {
		level.PerBRAM[s] = stats.MedianIntsInPlace(siteRuns[s*o.Runs : (s+1)*o.Runs])
	}
	level.BRAMPowerW = b.BRAMPowerW()
	level.MeterPowerW = b.MeasureTotalPowerW(10)
	return level, nil
}

// claimBlock is how many consecutive sites a scan worker claims at a time:
// the shared counter is touched once per block, not once per site, and the
// last blocks still spread over the workers.
const claimBlock = 32

// scanPool surveys every BRAM once (one "run") on one board.Pass, fanned out
// over at most o.Workers readers that claim claimBlock sites at a time from
// a shared counter. It rides the count-only read path, so no 2 KB snapshot
// is copied and no 1024-row compare runs per BRAM; the full-readout path
// remains where contents are actually needed (pattern-of-content studies,
// accel.ReadParameters, link-fidelity frames). Each site's count lands at
// siteRuns[site*o.Runs+run].
func scanPool(b *board.Board, o Options, siteRuns []int, run int, runIdx uint64) (total int, f10, f01 int64, err error) {
	pass, err := b.Pass(runIdx)
	if err != nil {
		return 0, 0, 0, err
	}
	nSites := b.Pool.Len()
	workers := min(o.Workers, (nSites+claimBlock-1)/claimBlock)
	var next atomic.Int64
	var wg sync.WaitGroup
	var mu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var scratch []silicon.Fault
			var localTotal int
			var local10, local01 int64
			for {
				lo := int(next.Add(claimBlock)) - claimBlock
				if lo >= nSites {
					break
				}
				for site := lo; site < min(lo+claimBlock, nSites); site++ {
					var n, n10, n01 int
					scratch, n, n10, n01 = pass.Count(scratch, site)
					siteRuns[site*o.Runs+run] = n
					localTotal += n
					local10 += int64(n10)
					local01 += int64(n01)
				}
			}
			mu.Lock()
			total += localTotal
			f10 += local10
			f01 += local01
			mu.Unlock()
		}()
	}
	wg.Wait()
	return total, f10, f01, nil
}

// Thresholds holds the discovered operating boundaries of one rail (Fig. 1).
type Thresholds struct {
	Vnom   float64
	Vmin   float64 // lowest fault-free level observed
	Vcrash float64 // lowest operating level observed
}

// GuardbandFrac returns (Vnom-Vmin)/Vnom.
func (t Thresholds) GuardbandFrac() float64 {
	if t.Vnom == 0 {
		return 0
	}
	return (t.Vnom - t.Vmin) / t.Vnom
}

// DiscoverBRAMThresholds sweeps VCCBRAM downward from nominal until the
// design crashes, recording where faults first appear (Vmin) and the lowest
// operating level (Vcrash). A short probe (probeRuns read passes over the
// pool) detects faults at each level. The board is reconfigured and restored
// to nominal before returning.
func DiscoverBRAMThresholds(ctx context.Context, b *board.Board, probeRuns int) (Thresholds, error) {
	if probeRuns <= 0 {
		probeRuns = 3
	}
	cal := b.Platform.Cal
	th := Thresholds{Vnom: cal.Vnom, Vmin: cal.Vnom, Vcrash: cal.Vnom}
	b.FillAll(0xFFFF)
	sawFault := false
	for _, v := range voltage.SweepDown(cal.Vnom, 0.40, voltage.Step) {
		if err := ctx.Err(); err != nil {
			return th, b.RestoreVCCBRAM(err)
		}
		if err := b.SetVCCBRAM(v); err != nil {
			return th, b.RestoreVCCBRAM(err)
		}
		if !b.Operating() {
			break
		}
		th.Vcrash = v
		// The probe only asks "any faults at this level?", so it rides the
		// count-only path (bit granularity instead of the old word
		// granularity — zero iff zero either way).
		faults, err := probeLevel(b, probeRuns)
		if err != nil {
			return th, b.RestoreVCCBRAM(err)
		}
		if faults == 0 && !sawFault {
			th.Vmin = v
		} else {
			sawFault = true
		}
	}
	if err := b.SetVCCBRAM(cal.Vnom); err != nil {
		return th, err
	}
	b.Configure()
	return th, nil
}

// probeLevel counts faults across probeRuns read passes at the current
// voltage.
func probeLevel(b *board.Board, probeRuns int) (int, error) {
	faults := 0
	for r := 0; r < probeRuns; r++ {
		n, _, _, err := b.CountFaultsInto(nil, b.BeginRun())
		if err != nil {
			return 0, err
		}
		faults += n
	}
	return faults, nil
}

// DiscoverIntThresholds locates the VCCINT boundaries (Fig. 1b) using the
// design's logic self-test as the fault signal.
func DiscoverIntThresholds(ctx context.Context, b *board.Board) (Thresholds, error) {
	cal := b.Platform.Cal
	th := Thresholds{Vnom: cal.Vnom, Vmin: cal.Vnom, Vcrash: cal.Vnom}
	sawFault := false
	for _, v := range voltage.SweepDown(cal.Vnom, 0.40, voltage.Step) {
		if err := ctx.Err(); err != nil {
			// The cancellation cause stays visible (errors.Is keeps
			// matching); a failed restore rides along joined.
			if rerr := b.SetVCCINT(cal.Vnom); rerr != nil {
				return th, errors.Join(err, rerr)
			}
			return th, err
		}
		if err := b.SetVCCINT(v); err != nil {
			return th, err
		}
		if !b.Operating() {
			break
		}
		th.Vcrash = v
		errs, err := b.LogicSelfTestErrors(b.BeginRun())
		if err != nil {
			return th, err
		}
		if errs == 0 && !sawFault {
			th.Vmin = v
		} else {
			sawFault = true
		}
	}
	if err := b.SetVCCINT(cal.Vnom); err != nil {
		return th, err
	}
	b.Configure()
	return th, nil
}

// PatternStudy measures the fault rate of each pattern at a fixed voltage
// (Fig. 4 uses Vcrash on VC707). Returned rates are medians in faults/Mbit,
// keyed in input order.
type PatternResult struct {
	Name          string
	FaultsPerMbit float64
	Flip10Share   float64
}

// RunPatternStudy sweeps nothing: it fixes the voltage and measures each
// pattern with opts.Runs passes.
func RunPatternStudy(ctx context.Context, b *board.Board, v float64, patterns []Options, runs int) ([]PatternResult, error) {
	var out []PatternResult
	for _, p := range patterns {
		if err := ctx.Err(); err != nil {
			return nil, b.RestoreVCCBRAM(err)
		}
		p.Runs = runs
		p.VStart = v
		p.VStop = v
		o := p.Normalized(b.Platform.Cal)
		b.SetOnBoardTemp(o.OnBoardC)
		fill(b, o)
		if err := b.SetVCCBRAM(v); err != nil {
			return nil, b.RestoreVCCBRAM(err)
		}
		if !b.Operating() {
			return nil, b.RestoreVCCBRAM(board.ErrNotOperating)
		}
		b.SoftReset()
		level, err := measureLevel(ctx, b, o, v)
		if err != nil {
			return nil, b.RestoreVCCBRAM(err)
		}
		out = append(out, PatternResult{
			Name:          o.PatternName,
			FaultsPerMbit: level.FaultsPerMbit,
			Flip10Share:   level.Flip10Share(),
		})
	}
	if err := b.SetVCCBRAM(b.Platform.Cal.Vnom); err != nil {
		return nil, err
	}
	return out, nil
}

// TemperatureStudy runs the Fig. 8 experiment: a full voltage sweep at each
// on-board temperature, returning one Sweep per temperature in input order.
func TemperatureStudy(ctx context.Context, b *board.Board, temps []float64, opts Options) ([]*Sweep, error) {
	var out []*Sweep
	for _, tC := range temps {
		o := opts
		o.OnBoardC = tC
		s, err := Run(ctx, b, o)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	b.SetOnBoardTemp(50)
	return out, nil
}
