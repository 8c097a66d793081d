// Package board assembles the full experimental rig of Fig. 2: the FPGA chip
// (BRAM pool + silicon fault model), the PMBus-controlled UCD9248 voltage
// regulator, the serial readout link, the JTAG configuration port with its
// DONE pin, the heat chamber, and the external power meter.
//
// The host side of every experiment talks to a Board exactly the way the
// paper's host talks to its platforms: PMBus commands to move VCCBRAM,
// serial frames to retrieve BRAM contents, the DONE pin to detect crash.
package board

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/bram"
	"repro/internal/platform"
	"repro/internal/pmbus"
	"repro/internal/power"
	"repro/internal/silicon"
	"repro/internal/thermal"
	"repro/internal/voltage"
)

// PMBus pages of the regulator rails, fixed across the studied boards.
const (
	PageVCCINT  = 0
	PageVCCBRAM = 1
	PageVCCAUX  = 2
)

// RegulatorAddr is the PMBus address of the UCD9248 on the studied boards.
const RegulatorAddr = 0x34

// LinkProbeRun is the reserved run index link-fidelity probes read under.
// BeginRun hands out 1, 2, 3, …, so a probe on this index can never alias
// the jitter and ripple draws of a numbered measurement pass.
const LinkProbeRun = ^uint64(0)

// ErrNotOperating is returned when the design is not running: the board is
// unconfigured, crashed (DONE unset), or a rail sits below its crash level.
var ErrNotOperating = errors.New("board: design not operating (DONE unset)")

// Board is one assembled test platform.
type Board struct {
	Platform platform.Platform
	Die      *silicon.Die
	Pool     *bram.Pool
	Reg      *voltage.Regulator
	Bus      *pmbus.Bus
	Ctl      *pmbus.Controller
	Chamber  *thermal.Chamber
	Link     *Link
	Meter    *power.Meter
	PowerMod power.Model

	thermals      thermal.BoardThermals
	onBoardTarget float64 // closed-loop chamber setpoint for the sensor
	configured    bool
	crashed       bool
	runCounter    uint64
	jitterScale   float64
	scratch       []silicon.Fault
	counts        []siteCounts // per-site observable-fault prefix sums
	eval          evalMemo     // ReadBRAMInto's pass-evaluation memo

	// env caches the electrical snapshot reads run under; it is refreshed on
	// every rail/chamber change, so resolving a pass's conditions queries
	// neither the regulator nor the chamber.
	env silicon.Conditions
}

// New assembles a board for the given platform, configured with the
// characterization design and all rails at nominal.
func New(p platform.Platform) *Board {
	sites := p.Sites()
	b := &Board{
		Platform: p,
		Die:      silicon.NewDie(p.Cal, p.Serial, sites),
		Pool:     bram.NewPool(sites),
		Reg: voltage.NewRegulator(p.Serial,
			voltage.Rail{Name: "VCCINT", Nominal: p.Cal.Vnom, Min: 0.40, Max: 1.10},
			voltage.Rail{Name: "VCCBRAM", Nominal: p.Cal.Vnom, Min: 0.40, Max: 1.10},
			voltage.Rail{Name: "VCCAUX", Nominal: 1.80, Min: 1.60, Max: 2.00},
		),
		Bus:         pmbus.NewBus(),
		Chamber:     thermal.NewChamber(thermal.DefaultOnBoardC - 5),
		Link:        NewLink(921600),
		Meter:       power.NewMeter(p.Name+":"+p.Serial, p.MeterOverheadW, 0.01),
		PowerMod:    power.DefaultModel(),
		thermals:    thermal.BoardThermals{ThetaJA: p.ThetaJA},
		jitterScale: 1.0,
	}
	b.counts = make([]siteCounts, len(sites))
	b.Bus.Attach(RegulatorAddr, b.Reg)
	b.Ctl = pmbus.NewController(b.Bus, RegulatorAddr)
	b.Reg.BindSensors(b.OnBoardTempC, func(page int) float64 {
		return b.railPowerW(page)
	})
	// Hold the default on-board temperature of 50 degC.
	b.onBoardTarget = thermal.DefaultOnBoardC
	b.Configure()
	b.refreshEnv()
	return b
}

// refreshEnv re-trims the chamber to hold the on-board setpoint at the
// current power draw (a real heat chamber regulates in closed loop — without
// this, undervolting would cool the die and the ITD response would shift
// every critical voltage), then recomputes the cached read-path conditions.
func (b *Board) refreshEnv() {
	b.Chamber.SetTarget(b.thermals.AirForOnBoard(b.onBoardTarget, b.chipPowerW()))
	b.env = silicon.Conditions{
		V:           b.VCCBRAM(),
		TempC:       b.OnBoardTempC(),
		JitterScale: b.jitterScale,
	}
}

// Configure loads the characterization bitstream over JTAG: BRAMs are
// zeroed, the DONE pin rises, and the crash latch clears.
func (b *Board) Configure() {
	b.Pool.FillAll(0)
	b.configured = true
	b.crashed = false
	b.runCounter = 0
}

// SoftReset clears the run counter without reloading the bitstream — the
// "soft reset" between voltage steps in Listing 1.
func (b *Board) SoftReset() { b.runCounter = 0 }

// Done reports the JTAG DONE pin: high only when a bitstream is loaded and
// the chip has not crashed. Below Vcrash the paper observes DONE unset.
func (b *Board) Done() bool {
	b.refreshCrashLatch()
	return b.configured && !b.crashed
}

// Operating reports whether the design is currently running.
func (b *Board) Operating() bool { return b.Done() }

// refreshCrashLatch trips the crash latch when either on-chip rail sits
// below its crash level. The latch is sticky: recovery requires raising the
// rails and reconfiguring, as on the real boards.
func (b *Board) refreshCrashLatch() {
	if b.VCCBRAM() < b.Platform.Cal.Vcrash-1e-9 || b.VCCINT() < b.Platform.Cal.VcrashInt-1e-9 {
		b.crashed = true
	}
}

// VCCBRAM returns the current BRAM rail setpoint.
func (b *Board) VCCBRAM() float64 { return b.Reg.Setpoint(PageVCCBRAM) }

// VCCINT returns the current internal-logic rail setpoint.
func (b *Board) VCCINT() float64 { return b.Reg.Setpoint(PageVCCINT) }

// SetVCCBRAM programs the BRAM rail through the full PMBus path.
func (b *Board) SetVCCBRAM(v float64) error {
	if err := b.Ctl.SetVout(PageVCCBRAM, v); err != nil {
		return err
	}
	b.refreshCrashLatch()
	b.refreshEnv()
	return nil
}

// RestoreVCCBRAM raises the BRAM rail back to nominal on an abnormal exit
// and returns cause. The cause always stays visible (errors.Is keeps
// matching it); a failed restore — the board left undervolted — is joined
// onto it rather than swallowed.
func (b *Board) RestoreVCCBRAM(cause error) error {
	if err := b.SetVCCBRAM(b.Platform.Cal.Vnom); err != nil {
		return errors.Join(cause, err)
	}
	return cause
}

// SetVCCINT programs the internal rail through the full PMBus path.
func (b *Board) SetVCCINT(v float64) error {
	if err := b.Ctl.SetVout(PageVCCINT, v); err != nil {
		return err
	}
	b.refreshCrashLatch()
	b.refreshEnv()
	return nil
}

// SetOnBoardTemp programs the heat chamber's closed-loop setpoint: the
// chamber holds the on-board sensor at the requested temperature across
// rail changes (the Fig. 8 procedure).
func (b *Board) SetOnBoardTemp(tempC float64) {
	b.onBoardTarget = tempC
	b.refreshEnv()
}

// OnBoardTempC returns the true on-board temperature (the PMBus sensor adds
// its 0.5 degC quantization on top).
func (b *Board) OnBoardTempC() float64 {
	return b.thermals.OnBoardC(b.Chamber.AirC(), b.chipPowerW())
}

// SetEnvironmentNoise scales the read-jitter band; >1 models the paper's
// "more noisy and harsh environments", which can surface faults above the
// quiet-lab Vmin.
func (b *Board) SetEnvironmentNoise(scale float64) {
	if scale <= 0 {
		scale = 1
	}
	b.jitterScale = scale
	b.refreshEnv()
}

// FillAll writes the given pattern into every BRAM (host-side
// initialization; the write path at nominal voltage is reliable).
func (b *Board) FillAll(pattern uint16) { b.Pool.FillAll(pattern) }

// FillAllFunc writes pattern(site, row) into every BRAM.
func (b *Board) FillAllFunc(pattern func(site, row int) uint16) {
	for i := 0; i < b.Pool.Len(); i++ {
		blk := b.Pool.Block(i)
		site := i
		blk.FillFunc(func(row int) uint16 { return pattern(site, row) })
	}
}

// conditions returns the cached electrical environment stamped with the run
// index. The cache is refreshed by every rail/chamber mutation, so reads are
// cheap.
func (b *Board) conditions(run uint64) silicon.Conditions {
	c := b.env
	c.Run = run
	return c
}

// BeginRun starts a new read pass and returns its run index; all BRAM reads
// within one pass share the same marginal-cell jitter draw, like one
// iteration of Listing 1's inner loop.
func (b *Board) BeginRun() uint64 {
	b.runCounter++
	return b.runCounter
}

// ReadBRAMInto reads one BRAM's contents under the current voltage and
// temperature into dst (length bram.Rows) — the fast host path used by
// full-chip sweeps. It fails when the design is not operating.
func (b *Board) ReadBRAMInto(dst []uint16, site int, run uint64) error {
	if !b.Done() {
		return ErrNotOperating
	}
	if len(dst) < bram.Rows {
		return fmt.Errorf("board: dst holds %d rows, need %d", len(dst), bram.Rows)
	}
	var err error
	b.scratch, err = readFaulty(b, b.eval.evaluator(b, run), dst, site, b.scratch)
	return err
}

// evalMemo caches a pass evaluation environment (ripple draw, jitter sigma):
// all reads of one run share them, so ReadBRAMInto, called once per site,
// resolves them once per (conditions, run) instead of once per site.
type evalMemo struct {
	eval silicon.Eval
	cond silicon.Conditions
	ok   bool
}

// evaluator returns the memoized pass evaluation for the given run.
func (m *evalMemo) evaluator(b *Board, run uint64) silicon.Eval {
	cond := b.conditions(run)
	if !m.ok || cond != m.cond {
		m.eval = b.Die.Evaluator(cond)
		m.cond = cond
		m.ok = true
	}
	return m.eval
}

// readFaulty snapshots a block and applies the active fault overlay, reusing
// the provided scratch slice. The caller has already verified Done().
func readFaulty(b *Board, eval silicon.Eval, dst []uint16, site int, scratch []silicon.Fault) ([]silicon.Fault, error) {
	b.Pool.Block(site).Snapshot(dst)
	scratch = eval.AppendActive(scratch[:0], site)
	for _, f := range scratch {
		bit := uint16(1) << f.Col
		if f.Flip01 {
			dst[f.Row] |= bit
		} else {
			dst[f.Row] &^= bit
		}
	}
	return scratch, nil
}

// siteCounts caches one site's prefix sums of observable-fault polarity over
// the die's descending-Vc weak-cell order: p10[i]/p01[i] count how many of
// the first i cells would, when active, manifest as a 1→0 / 0→1 flip against
// the block's *current* contents. The cache is keyed to the block's content
// generation and refreshed lazily after any write, so the count-only read
// path resolves the whole definitely-faulty prefix with two array lookups
// and consults stored words only inside the marginal band.
//
// A refresh is a content delta, not a rebuild, whenever the block can name
// the rows written since the last pass (its dirty feed): only the weak cells
// on those rows are re-examined, and the prefix sums are patched with one
// suffix pass from the first changed cell. Bulk fills and feed overflow fall
// back to the full O(weak cells) rebuild.
//
// Entries are written without synchronization: goroutines counting on one
// Pass never share a site, and passes are serialized by the caller, matching
// the Pass contract that the board's state does not change while a pass is
// in use.
type siteCounts struct {
	gen      uint64
	p10, p01 []int32
	obs      []uint8 // per weak cell: 1 if observable against current contents
	byRow    []int32 // weak-cell indices sorted by row, built on first delta
	chg      []int32 // scratch: changed cell indices of one delta
}

// countsFor returns the site's up-to-date prefix sums, patching or rebuilding
// them if the block's contents changed since the last pass.
func (b *Board) countsFor(site int) *siteCounts {
	sc := &b.counts[site]
	blk := b.Pool.Block(site)
	gen := blk.Gen()
	if sc.gen == gen && sc.p10 != nil {
		return sc
	}
	cells := b.Die.WeakCells(site)
	rows, partial := blk.TakeDirty()
	if sc.p10 != nil && partial {
		sc.applyDelta(blk, cells, rows)
		sc.gen = gen
		return sc
	}
	if cap(sc.p10) < len(cells)+1 {
		sc.p10 = make([]int32, len(cells)+1)
		sc.p01 = make([]int32, len(cells)+1)
		sc.obs = make([]uint8, len(cells))
	}
	sc.p10, sc.p01 = sc.p10[:len(cells)+1], sc.p01[:len(cells)+1]
	sc.obs = sc.obs[:len(cells)]
	sc.p10[0], sc.p01[0] = 0, 0
	var c10, c01 int32
	for i, c := range cells {
		bit := blk.ReadRaw(int(c.Row)) >> c.Col & 1
		sc.obs[i] = 0
		if c.Flip01 {
			if bit == 0 {
				c01++
				sc.obs[i] = 1
			}
		} else if bit == 1 {
			c10++
			sc.obs[i] = 1
		}
		sc.p10[i+1], sc.p01[i+1] = c10, c01
	}
	sc.gen = gen
	return sc
}

// applyDelta patches the prefix sums after single-word writes: re-examine
// only the weak cells on the written rows, then fold the observability flips
// into p10/p01 with one suffix pass starting at the first changed cell —
// O(cells on written rows + suffix) instead of O(all weak cells), and no
// block reads outside the written rows.
func (sc *siteCounts) applyDelta(blk *bram.Block, cells []silicon.WeakCell, rows []uint16) {
	if len(rows) == 0 {
		return
	}
	if sc.byRow == nil {
		sc.byRow = make([]int32, len(cells))
		for i := range sc.byRow {
			sc.byRow[i] = int32(i)
		}
		sort.Slice(sc.byRow, func(a, b int) bool {
			return cells[sc.byRow[a]].Row < cells[sc.byRow[b]].Row
		})
	}
	sc.chg = sc.chg[:0]
	sort.Slice(rows, func(a, b int) bool { return rows[a] < rows[b] })
	prev := -1
	for _, r := range rows {
		row := int(r)
		if row == prev {
			continue // the feed may repeat a row; one examination suffices
		}
		prev = row
		lo := sort.Search(len(sc.byRow), func(i int) bool {
			return int(cells[sc.byRow[i]].Row) >= row
		})
		for k := lo; k < len(sc.byRow) && int(cells[sc.byRow[k]].Row) == row; k++ {
			idx := sc.byRow[k]
			c := cells[idx]
			bit := blk.ReadRaw(row) >> c.Col & 1
			var now uint8
			if c.Flip01 {
				if bit == 0 {
					now = 1
				}
			} else if bit == 1 {
				now = 1
			}
			if now != sc.obs[idx] {
				sc.obs[idx] = now
				sc.chg = append(sc.chg, idx)
			}
		}
	}
	if len(sc.chg) == 0 {
		return
	}
	sort.Slice(sc.chg, func(a, b int) bool { return sc.chg[a] < sc.chg[b] })
	var d10, d01 int32
	ci := 0
	for i := int(sc.chg[0]); i < len(cells); i++ {
		for ci < len(sc.chg) && int(sc.chg[ci]) == i {
			var d int32 = 1
			if sc.obs[i] == 0 {
				d = -1
			}
			if cells[i].Flip01 {
				d01 += d
			} else {
				d10 += d
			}
			ci++
		}
		sc.p10[i+1] += d10
		sc.p01[i+1] += d01
	}
}

// Pass is one read pass over the pool, taken as a snapshot of the board:
// the operating state is checked and the pass's silicon evaluation (ripple
// draw, jitter band) resolved once, when the pass is opened. Goroutines may
// then count distinct sites on it at the same time, each with its own
// scratch. The board's rails, temperature and contents must not change
// while a pass is in use.
type Pass struct {
	b    *Board
	eval silicon.Eval
}

// Pass opens a read pass under the given run index. It fails with
// ErrNotOperating when the design is not running.
func (b *Board) Pass(run uint64) (Pass, error) {
	if !b.Done() {
		return Pass{}, ErrNotOperating
	}
	return Pass{b: b, eval: b.Die.Evaluator(b.conditions(run))}, nil
}

// Count counts one site's observable mismatches without materializing its
// contents: the definitely-active prefix comes from the cached prefix sums,
// and only the marginal band, materialized into scratch, consults the stored
// words. It returns scratch for the caller's next site.
func (p *Pass) Count(scratch []silicon.Fault, site int) (out []silicon.Fault, total, flip10, flip01 int) {
	band, def := p.eval.ActiveBand(scratch[:0], site)
	sc := p.b.countsFor(site)
	flip10, flip01 = int(sc.p10[def]), int(sc.p01[def])
	if len(band) > 0 {
		_, b10, b01 := p.b.Pool.Block(site).CountFaults(band)
		flip10 += b10
		flip01 += b01
	}
	return band, flip10 + flip01, flip10, flip01
}

// CountFaultsInto counts the observable mismatches a read pass over the whole
// pool would see, without materializing any contents: it counts every site
// on one Pass, so SAFE-region and near-Vmin passes are near-no-ops. When
// perSite is non-nil it must hold Pool.Len() entries and receives each
// site's count. The returned totals are exactly what ReadBRAMInto plus a
// row-by-row compare would report.
func (b *Board) CountFaultsInto(perSite []int, run uint64) (total int, flip10, flip01 int64, err error) {
	p, err := b.Pass(run)
	if err != nil {
		return 0, 0, 0, err
	}
	if perSite != nil && len(perSite) < b.Pool.Len() {
		return 0, 0, 0, fmt.Errorf("board: perSite holds %d sites, need %d", len(perSite), b.Pool.Len())
	}
	for site := 0; site < b.Pool.Len(); site++ {
		var n, f10, f01 int
		b.scratch, n, f10, f01 = p.Count(b.scratch, site)
		if perSite != nil {
			perSite[site] = n
		}
		total += n
		flip10 += int64(f10)
		flip01 += int64(f01)
	}
	return total, flip10, flip01, nil
}

// StreamBRAM reads one BRAM and ships it through the full serial-link wire
// path (encode, CRC, decode), returning the host-side frame. Experiments use
// it to verify link fidelity at every voltage level, as the paper did.
func (b *Board) StreamBRAM(site int, run uint64) (Frame, error) {
	buf := make([]uint16, bram.Rows)
	if err := b.ReadBRAMInto(buf, site, run); err != nil {
		return Frame{}, err
	}
	wire := b.Link.Encode(Frame{Site: uint16(site), Rows: buf})
	return b.Link.Decode(wire)
}

// LogicSelfTestErrors models the observable fault signal used to locate the
// VCCINT Vmin in Fig. 1b: the readout design runs a self-check whose error
// count is zero in the SAFE region and grows exponentially below VminInt.
func (b *Board) LogicSelfTestErrors(run uint64) (int, error) {
	if !b.Done() {
		return 0, ErrNotOperating
	}
	v := b.VCCINT()
	cal := b.Platform.Cal
	if v >= cal.VminInt {
		return 0, nil
	}
	span := cal.VminInt - cal.VcrashInt
	if span <= 0 {
		return 1, nil
	}
	// ~1 error at VminInt falling edge, a few hundred at crash.
	depth := (cal.VminInt - v) / span
	n := int(0.5 + 400*pow(depth, 3))
	if n < 1 {
		n = 1
	}
	return n, nil
}

func pow(x float64, n int) float64 {
	r := 1.0
	for i := 0; i < n; i++ {
		r *= x
	}
	return r
}

// chipPowerW returns the true on-chip power of the characterization design
// at the current rails and chamber air temperature. (Uses the chamber air
// rather than the closed-loop on-board temperature to keep the model
// explicit and loop-free; the difference is a second-order leakage term.)
func (b *Board) chipPowerW() float64 {
	comps := []power.Component{
		b.Platform.BRAMComponent(1.0),
		b.Platform.LogicComponent(),
	}
	volts := map[string]float64{
		"VCCBRAM": b.VCCBRAM(),
		"VCCINT":  b.VCCINT(),
	}
	return b.PowerMod.Evaluate(comps, volts, b.Chamber.AirC()).Total()
}

// railPowerW reports per-rail power for PMBus READ_POUT.
func (b *Board) railPowerW(page int) float64 {
	switch page {
	case PageVCCBRAM:
		return b.PowerMod.Power(b.Platform.BRAMComponent(1.0), b.VCCBRAM(), b.Chamber.AirC())
	case PageVCCINT:
		return b.PowerMod.Power(b.Platform.LogicComponent(), b.VCCINT(), b.Chamber.AirC())
	default:
		return 0.05 // auxiliary housekeeping
	}
}

// BRAMPowerW returns the BRAM pool's power at current conditions — the
// quantity Fig. 3 plots (the paper extracts the BRAM contribution via XPE).
func (b *Board) BRAMPowerW() float64 {
	return b.railPowerW(PageVCCBRAM)
}

// MeasureTotalPowerW samples the external power meter (chip + board
// overhead + measurement noise), averaged over n readings.
func (b *Board) MeasureTotalPowerW(n int) float64 {
	return b.Meter.SampleN(b.chipPowerW(), n)
}
