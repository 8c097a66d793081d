// Package accel simulates the paper's FPGA-based NN accelerator
// (Section III, Table III): the trained, quantized network's weights and
// biases live in on-chip BRAMs; inputs stream through the datapath; and when
// VCCBRAM is underscaled, weight reads pass through the same fault overlay
// the characterization study measured. VCCINT stays at nominal, as in the
// paper — only the memories are undervolted.
//
// The accelerator owns the logical→physical BRAM mapping (a compiled
// bitstream), so placement policy — default vs ICBP — determines which
// physical fault populations the weight bits are exposed to.
package accel

import (
	"context"
	"fmt"

	"repro/internal/bitstream"
	"repro/internal/board"
	"repro/internal/bram"
	"repro/internal/fixed"
	"repro/internal/nn"
	"repro/internal/placement"
	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/xdc"
)

// Accelerator is one compiled-and-loaded NN design on a board.
type Accelerator struct {
	Board  *board.Board
	Net    *nn.Quantized
	Design *bitstream.Design
	BS     *bitstream.Bitstream

	blocks [][]int // per layer: physical block indices in cell order
}

// Build compiles the design (placing with the given constraints and seed)
// and loads the quantized parameters into the placed BRAMs.
func Build(b *board.Board, q *nn.Quantized, cs *xdc.ConstraintSet, seed uint64) (*Accelerator, error) {
	d := placement.BuildDesign("nn", q)
	bs, err := bitstream.Place(d, b.Platform.Sites(), cs, seed)
	if err != nil {
		return nil, err
	}
	if err := bs.Validate(b.Platform.Sites(), cs); err != nil {
		return nil, err
	}
	return Assemble(b, q, d, bs)
}

// Assemble loads an already-compiled design onto a board: it resolves every
// placed cell to the board's physical BRAM pool and writes the parameters.
// Placement is a function of the floorplan, not the die, so one compiled
// (design, bitstream) pair can be assembled onto any board whose platform
// shares the geometry the bitstream was placed for — the fleet engine's
// placement cache relies on this to deploy one compile across N boards.
func Assemble(b *board.Board, q *nn.Quantized, d *bitstream.Design, bs *bitstream.Bitstream) (*Accelerator, error) {
	a := &Accelerator{Board: b, Net: q, Design: d, BS: bs}
	for j := range q.Words {
		cells := d.CellsInGroup(placement.LayerGroup(j))
		var idxs []int
		for _, cell := range cells {
			site, ok := bs.Placement.SiteOf(cell)
			if !ok {
				return nil, fmt.Errorf("accel: cell %q unplaced", cell)
			}
			blk := b.Pool.At(site)
			if blk == nil {
				return nil, fmt.Errorf("accel: no BRAM at %+v", site)
			}
			idxs = append(idxs, blk.Index())
		}
		a.blocks = append(a.blocks, idxs)
	}
	a.LoadParameters()
	return a, nil
}

// LoadParameters writes the quantized words into the placed physical BRAMs
// (done at configuration time, i.e. at nominal voltage: writes are safe).
func (a *Accelerator) LoadParameters() {
	for j, words := range a.Net.Words {
		for k, blkIdx := range a.blocks[j] {
			blk := a.Board.Pool.Block(blkIdx)
			base := k * bram.Rows
			for row := 0; row < bram.Rows; row++ {
				addr := base + row
				if addr < len(words) {
					blk.Write(row, uint16(words[addr]))
				} else {
					blk.Write(row, 0)
				}
			}
		}
	}
}

// BRAMUtilization returns the share of the pool the design occupies
// (Table III: 70.8% on VC707 for the paper topology).
func (a *Accelerator) BRAMUtilization() float64 {
	used := 0
	for _, idxs := range a.blocks {
		used += len(idxs)
	}
	return float64(used) / float64(a.Board.Pool.Len())
}

// ReadParameters reads every parameter word back through the undervolted
// read path and also returns the number of faulty bits observed relative to
// the stored words — the "fault rate in BRAMs filled with NN weights" axis
// of Fig. 11.
func (a *Accelerator) ReadParameters(run uint64) ([][]fixed.Word, int, error) {
	out := make([][]fixed.Word, len(a.Net.Words))
	faultBits := 0
	buf := make([]uint16, bram.Rows)
	for j, words := range a.Net.Words {
		got := make([]fixed.Word, len(words))
		for k, blkIdx := range a.blocks[j] {
			if err := a.Board.ReadBRAMInto(buf, blkIdx, run); err != nil {
				return nil, 0, err
			}
			blk := a.Board.Pool.Block(blkIdx)
			base := k * bram.Rows
			for row := 0; row < bram.Rows; row++ {
				addr := base + row
				if addr >= len(words) {
					break
				}
				w := fixed.Word(buf[row])
				got[addr] = w
				if diff := buf[row] ^ blk.ReadRaw(row); diff != 0 {
					faultBits += popcount16(diff)
				}
			}
		}
		out[j] = got
	}
	return out, faultBits, nil
}

func popcount16(v uint16) int {
	n := 0
	for v != 0 {
		v &= v - 1
		n++
	}
	return n
}

// InferenceResult is one classification evaluation under voltage.
type InferenceResult struct {
	V           float64
	Error       float64 // classification error rate
	WeightFault int     // faulty parameter bits observed during the read
}

// EvaluateAt sets VCCBRAM to v, streams the test set through the
// accelerator (reading parameters through the faulty path once — fault
// locations are deterministic, so one read pass defines the epoch's
// effective weights), and returns the classification error. The rail is
// restored to nominal afterwards, on every exit. The context is checked
// before the voltage moves, so a cancelled campaign never leaves the rail
// underscaled.
func (a *Accelerator) EvaluateAt(ctx context.Context, v float64, xs [][]float64, ys []int, workers int) (InferenceResult, error) {
	cal := a.Board.Platform.Cal
	if err := ctx.Err(); err != nil {
		return InferenceResult{}, err
	}
	if err := a.Board.SetVCCBRAM(v); err != nil {
		return InferenceResult{}, a.Board.RestoreVCCBRAM(err)
	}
	if !a.Board.Operating() {
		return InferenceResult{}, a.Board.RestoreVCCBRAM(board.ErrNotOperating)
	}
	words, faults, err := a.ReadParameters(a.Board.BeginRun())
	if err != nil {
		return InferenceResult{}, a.Board.RestoreVCCBRAM(err)
	}
	if err := a.Board.SetVCCBRAM(cal.Vnom); err != nil {
		return InferenceResult{}, err
	}
	net, err := a.Net.Dequantize(words)
	if err != nil {
		return InferenceResult{}, err
	}
	return InferenceResult{
		V:           v,
		Error:       net.Evaluate(xs, ys, workers),
		WeightFault: faults,
	}, nil
}

// Sweep evaluates the accelerator at every voltage level from the
// platform's Vmin to Vcrash in 10 mV steps (Fig. 11 / Fig. 14 curves).
func (a *Accelerator) Sweep(ctx context.Context, xs [][]float64, ys []int, workers int) ([]InferenceResult, error) {
	cal := a.Board.Platform.Cal
	var out []InferenceResult
	for v := cal.Vmin; v > cal.Vcrash-0.005; v -= 0.01 {
		r, err := a.EvaluateAt(ctx, v, xs, ys, workers)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// ComponentsFor returns the NN design's on-chip power budget for a given
// BRAM utilization on a platform: the BRAM share scales with utilization;
// the datapath (DSP/logic/routing/clocking) sits on VCCINT, which the
// Section III experiments keep at nominal. The non-BRAM budget is calibrated
// so the paper topology on VC707 (70.8% utilization) reproduces Fig. 10's
// 24.1% total on-chip reduction when VCCBRAM drops to Vmin.
func ComponentsFor(p platform.Platform, utilization float64) []power.Component {
	scale := p.BRAMPowerNom / 2.8 // keep proportions when platforms shrink
	return []power.Component{
		p.BRAMComponent(utilization),
		{Name: "DSP", DynNom: 1.10 * scale, StatNom: 0.30 * scale, Rail: "VCCINT"},
		{Name: "LUT+FF", DynNom: 1.50 * scale, StatNom: 0.70 * scale, Rail: "VCCINT"},
		{Name: "Routing", DynNom: 0.90 * scale, StatNom: 0.30 * scale, Rail: "VCCINT"},
		{Name: "Clocking", DynNom: 0.70 * scale, StatNom: 0.05 * scale, Rail: "VCCINT"},
	}
}

// Components returns the power budget of this compiled design.
func (a *Accelerator) Components() []power.Component {
	return ComponentsFor(a.Board.Platform, a.BRAMUtilization())
}

// PowerBreakdown evaluates the design's on-chip power with VCCBRAM at v and
// VCCINT at nominal — the bars of Fig. 10.
func (a *Accelerator) PowerBreakdown(v float64) power.Breakdown {
	return a.Board.PowerMod.Evaluate(a.Components(), map[string]float64{
		"VCCBRAM": v,
		"VCCINT":  a.Board.Platform.Cal.Vnom,
	}, a.Board.OnBoardTempC())
}

// LayerFaultCounts reads parameters at voltage v and attributes faulty bits
// to layers — the #faults bars of Fig. 13. As in EvaluateAt, the rail is
// restored to nominal on every exit.
func (a *Accelerator) LayerFaultCounts(ctx context.Context, v float64) ([]int, error) {
	cal := a.Board.Platform.Cal
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := a.Board.SetVCCBRAM(v); err != nil {
		return nil, a.Board.RestoreVCCBRAM(err)
	}
	if !a.Board.Operating() {
		return nil, a.Board.RestoreVCCBRAM(board.ErrNotOperating)
	}
	run := a.Board.BeginRun()
	counts := make([]int, len(a.Net.Words))
	buf := make([]uint16, bram.Rows)
	for j, words := range a.Net.Words {
		for k, blkIdx := range a.blocks[j] {
			if err := a.Board.ReadBRAMInto(buf, blkIdx, run); err != nil {
				return nil, a.Board.RestoreVCCBRAM(err)
			}
			blk := a.Board.Pool.Block(blkIdx)
			base := k * bram.Rows
			for row := 0; row < bram.Rows; row++ {
				if base+row >= len(words) {
					break
				}
				if diff := buf[row] ^ blk.ReadRaw(row); diff != 0 {
					counts[j] += popcount16(diff)
				}
			}
		}
	}
	if err := a.Board.SetVCCBRAM(cal.Vnom); err != nil {
		return nil, err
	}
	return counts, nil
}
