// Mitigation campaigns: the arXiv:1903.12514 evaluation as a fleet
// workload. Per board, one job sweeps VCCBRAM from nominal toward Vcrash
// and, at every level, compares how far each mitigation arm lets the rail
// drop before data integrity (or timing closure) gives out:
//
//   - unprotected: the raw undervolted memory — faults appear below Vmin.
//   - ecc: every word carried in a (22,16) SECDED codeword; single-bit
//     upsets are corrected, double-bit upsets detected, and triple-bit
//     upsets may silently miscorrect. Costs 6/16 storage (and energy)
//     overhead per word.
//   - icbp: intelligently-constrained BRAM placement — the design's
//     payload is placed away from the high-vulnerability k-means cluster
//     (the paper's Fig. 5 structure), free at run time.
//   - dvfs: the conventional guardband baseline — instead of tolerating
//     faults, scale frequency with the alpha-power delay law (optionally
//     searching the guardbanded voltage whose energy matches the
//     undervolted point, the iso-energy comparison).
//
// Determinism: all arms at one level derive from the same read pass
// (one Board run index, one memoized silicon.Eval), so arm deltas are
// exactly the mitigation's effect — never read-jitter noise.

package engine

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/board"
	"repro/internal/bram"
	"repro/internal/cluster"
	"repro/internal/dvfs"
	"repro/internal/ecc"
	"repro/internal/platform"
	"repro/internal/silicon"
	"repro/internal/stats"
	"repro/internal/voltage"
)

// The mitigation arms, by wire name.
const (
	ArmUnprotected = "unprotected"
	ArmECC         = "ecc"
	ArmICBP        = "icbp"
	ArmDVFS        = "dvfs"
)

// MitigationArms returns every arm in canonical order — the order results
// and aggregates are reported in, whatever order a request names them.
func MitigationArms() []string {
	return []string{ArmUnprotected, ArmECC, ArmICBP, ArmDVFS}
}

// MitigationPoint is one arm's outcome at one voltage level.
type MitigationPoint struct {
	V float64
	// FaultsPerMbit is the arm's residual (post-mitigation) flipped bits
	// per Mbit of payload data at this level.
	FaultsPerMbit float64
	// WordErrors counts payload words that read back wrong after the arm's
	// protection was applied.
	WordErrors int
	// Accuracy is the word-level accuracy proxy: the fraction of payload
	// words that survived intact (1 when the level is clean; 0 for a DVFS
	// point that cannot close timing).
	Accuracy float64
	// EnergyJ is the arm's energy for the fixed reference workload at this
	// level; FreqScale is the clock scale the arm runs at (1 for the
	// voltage-tolerant arms, the alpha-power-law scale for DVFS).
	EnergyJ   float64
	FreqScale float64
	// Corrected/Detected/Silent break down the ECC arm's decode outcomes:
	// words corrected, words flagged uncorrectable, and words that decoded
	// wrong without detection (miscorrections). Zero for other arms.
	Corrected int
	Detected  int
	Silent    int
}

// MitigationArm is one arm's full sweep on one board.
type MitigationArm struct {
	Arm    string
	Levels []MitigationPoint
	// MinSafeV is the deepest voltage of the top-down run of clean levels
	// (0 when even the first level was unsafe).
	MinSafeV float64
	// EnergySavings is the arm's energy saving at MinSafeV relative to the
	// nominal guardbanded point (0 when no level was safe).
	EnergySavings float64
}

// MitigationSample is one arm's scalar contribution to the fleet
// aggregate.
type MitigationSample struct {
	Arm           string
	MinSafeV      float64
	EnergySavings float64
}

// MitigationAggregate summarizes one arm across the fleet.
type MitigationAggregate struct {
	Arm           string
	Boards        int // boards that ran this arm
	MinSafeV      stats.Summary
	EnergySavings stats.Summary
}

// ValidateMitigation rejects malformed arm selections and ladders before
// any board spins up — shared by campaign validation and the API front
// door, so a bad request is a 400 there and never a failed job here.
func ValidateMitigation(arms []string, voltages []float64) error {
	canon := MitigationArms()
	for i, a := range arms {
		if !slices.Contains(canon, a) {
			return fmt.Errorf("engine: unknown mitigation arm %q (have %v)", a, canon)
		}
		if slices.Contains(arms[:i], a) {
			return fmt.Errorf("engine: duplicate mitigation arm %q", a)
		}
	}
	if len(voltages) > 64 {
		return fmt.Errorf("engine: mitigation ladder has %d levels, max 64", len(voltages))
	}
	for i, v := range voltages {
		if v <= 0 || v > 2.0 {
			return fmt.Errorf("engine: mitigation voltage %g out of range (0, 2.0]", v)
		}
		if i > 0 && v >= voltages[i-1] {
			return fmt.Errorf("engine: mitigation voltages must be strictly descending (%g after %g)",
				v, voltages[i-1])
		}
	}
	return nil
}

// normalizeMitArms resolves the requested arm set to canonical order
// (empty → all four).
func normalizeMitArms(arms []string) []string {
	if len(arms) == 0 {
		return MitigationArms()
	}
	out := make([]string, 0, len(arms))
	for _, a := range MitigationArms() {
		if slices.Contains(arms, a) {
			out = append(out, a)
		}
	}
	return out
}

// mitigationLadder resolves the campaign's voltage ladder on one platform:
// the explicit ladder, or nominal..Vcrash at the standard step.
func (c Campaign) mitigationLadder(p platform.Platform) []float64 {
	if len(c.MitVoltages) > 0 {
		return slices.Clone(c.MitVoltages)
	}
	return voltage.SweepDown(p.Cal.Vnom, p.Cal.Vcrash, voltage.Step)
}

// mitigationBoard runs the four-arm comparison on one board.
func (f *Fleet) mitigationBoard(ctx context.Context, c Campaign, pm *progressMeter, idx int, p platform.Platform, res *BoardResult) error {
	arms := normalizeMitArms(c.MitArms)
	o := c.Sweep.Normalized(p.Cal)
	pattern := o.Pattern
	ladder := c.mitigationLadder(p)

	b := board.New(p)
	b.SetOnBoardTemp(o.OnBoardC)
	b.FillAll(pattern)
	f.characterizations.Add(1)

	// The payload occupies half the chip's BRAM sites — room for ICBP to
	// choose *which* half. The default placement is the naive one: the
	// first K sites in site order.
	k := b.Pool.Len() / 2
	if k < 1 {
		k = 1
	}
	defSites := make([]int, k)
	for i := range defSites {
		defSites[i] = i
	}
	icbpSites := defSites
	if slices.Contains(arms, ArmICBP) {
		s, err := icbpPlacement(b, p, pattern, ladder, k)
		if err != nil {
			return err
		}
		icbpSites = s
	}

	cmp := dvfs.NewComparator(p.BRAMComponent(1.0), p.Cal)
	cmp.TempC = o.OnBoardC
	nominal := cmp.Nominal()

	payloadWords := k * bram.Rows
	payloadBits := k * silicon.BRAMBits
	perMbit := func(flipped int) float64 {
		return float64(flipped) / float64(payloadBits) * silicon.BitsPerMbit
	}

	curves := make(map[string]*MitigationArm, len(arms))
	out := make([]MitigationArm, len(arms))
	for i, a := range arms {
		out[i] = MitigationArm{Arm: a}
		curves[a] = &out[i]
	}

	needDef := curves[ArmUnprotected] != nil || curves[ArmECC] != nil
	buf := make([]uint16, bram.Rows)
	// scan reads the payload sites under the given run and returns the
	// total flipped bits plus one XOR mask per faulty word.
	scan := func(run uint64, sites []int) (flipped int, masks []uint16, err error) {
		for _, site := range sites {
			if err := b.ReadBRAMInto(buf, site, run); err != nil {
				return 0, nil, err
			}
			for _, w := range buf {
				if m := w ^ pattern; m != 0 {
					flipped += bits.OnesCount16(m)
					masks = append(masks, m)
				}
			}
		}
		return flipped, masks, nil
	}

	for _, v := range ladder {
		if err := ctx.Err(); err != nil {
			return err
		}
		if v > p.Cal.Vnom+1e-9 {
			continue // above nominal: outside the study
		}
		if v < p.Cal.Vcrash-1e-9 {
			break // below Vcrash the chip latches a crash; stop cleanly
		}
		if err := b.SetVCCBRAM(v); err != nil {
			return err
		}
		if !b.Operating() {
			break
		}
		// One run index per level: every arm's readout shares the same
		// memoized pass evaluation, so arm deltas are noise-free.
		run := b.BeginRun()

		var defFlipped int
		var defMasks []uint16
		if needDef {
			var err error
			defFlipped, defMasks, err = scan(run, defSites)
			if err != nil {
				return err
			}
		}

		levelFaults := 0.0
		if arm := curves[ArmUnprotected]; arm != nil {
			pt := MitigationPoint{
				V:             v,
				FaultsPerMbit: perMbit(defFlipped),
				WordErrors:    len(defMasks),
				Accuracy:      1 - float64(len(defMasks))/float64(payloadWords),
				EnergyJ:       cmp.AtUndervolt(v).EnergyJ,
				FreqScale:     1,
			}
			arm.Levels = append(arm.Levels, pt)
			levelFaults = pt.FaultsPerMbit
		}
		if arm := curves[ArmECC]; arm != nil {
			eU := cmp.AtUndervolt(v).EnergyJ
			pt := eccPoint(v, pattern, defMasks, eU, perMbit, payloadWords)
			arm.Levels = append(arm.Levels, pt)
			if levelFaults == 0 {
				levelFaults = perMbit(defFlipped)
			}
		}
		if arm := curves[ArmICBP]; arm != nil {
			flipped, masks, err := scan(run, icbpSites)
			if err != nil {
				return err
			}
			pt := MitigationPoint{
				V:             v,
				FaultsPerMbit: perMbit(flipped),
				WordErrors:    len(masks),
				Accuracy:      1 - float64(len(masks))/float64(payloadWords),
				EnergyJ:       cmp.AtUndervolt(v).EnergyJ,
				FreqScale:     1,
			}
			arm.Levels = append(arm.Levels, pt)
			if levelFaults == 0 {
				levelFaults = pt.FaultsPerMbit
			}
		}
		if arm := curves[ArmDVFS]; arm != nil {
			op := cmp.AtDVFS(v)
			if c.MitIsoEnergy {
				op = isoEnergyPoint(cmp, v)
			}
			acc := 0.0
			if op.FreqScale > 0 {
				acc = 1
			}
			arm.Levels = append(arm.Levels, MitigationPoint{
				V: v, Accuracy: acc, EnergyJ: op.EnergyJ, FreqScale: op.FreqScale,
			})
		}
		c.emit(ctx, Event{Kind: EventLevel, Board: idx, Platform: p.Name, Serial: p.Serial,
			V: v, Faults: levelFaults, Progress: pm.percent()})
	}

	for i := range out {
		finishMitigationArm(&out[i], nominal)
	}
	res.Mitigation = out
	return nil
}

// eccPoint replays one level's fault masks through the SECDED code: the
// payload's faulty words (check bits are stored in hardened flops and
// modeled fault-free) are re-encoded, corrupted at their observed data-bit
// positions, and scrubbed. Clean words decode clean, so scrubbing only the
// faulty words gives exact corrected/detected/silent accounting.
func eccPoint(v float64, pattern uint16, masks []uint16, undervoltJ float64, perMbit func(int) float64, payloadWords int) MitigationPoint {
	base := ecc.Encode(pattern)
	cws := make([]ecc.Codeword, len(masks))
	for i, m := range masks {
		cw := base
		for col := 0; col < ecc.DataBits; col++ {
			if m&(1<<col) != 0 {
				cw ^= 1 << ecc.DataPosition(col)
			}
		}
		cws[i] = cw
	}
	decoded, st := ecc.Scrub(cws)
	bad, residual := 0, 0
	for _, d := range decoded {
		if d != pattern {
			bad++
			residual += bits.OnesCount16(d ^ pattern)
		}
	}
	// A decode that comes back wrong was either flagged (Detected) or a
	// silent miscorrection; corrected words decode clean by construction.
	silent := bad - st.Detected
	if silent < 0 {
		silent = 0
	}
	return MitigationPoint{
		V:             v,
		FaultsPerMbit: perMbit(residual),
		WordErrors:    bad,
		Accuracy:      1 - float64(bad)/float64(payloadWords),
		EnergyJ:       undervoltJ * (1 + ecc.Overhead()),
		FreqScale:     1,
		Corrected:     st.Corrected,
		Detected:      st.Detected,
		Silent:        silent,
	}
}

// finishMitigationArm derives the arm's min-safe voltage and energy saving
// from its level curve. Levels run top-down; the min-safe voltage is the
// deepest level of the initial clean run.
func finishMitigationArm(arm *MitigationArm, nominal dvfs.OperatingPoint) {
	for i := range arm.Levels {
		pt := &arm.Levels[i]
		if pt.WordErrors > 0 || pt.FreqScale <= 0 {
			break
		}
		arm.MinSafeV = pt.V
		if nominal.EnergyJ > 0 {
			arm.EnergySavings = 1 - pt.EnergyJ/nominal.EnergyJ
		}
	}
	if arm.MinSafeV == 0 {
		arm.EnergySavings = 0
	}
}

// icbpPlacement probes per-site vulnerability at the ladder's deepest safe
// level, clusters it (k-means, k=3 — the Fig. 5 structure), and places the
// payload on the k sites of the lowest-vulnerability clusters, breaking
// ties by vulnerability then site order. The probe uses its own run index;
// the board returns to nominal before the study begins.
func icbpPlacement(b *board.Board, p platform.Platform, pattern uint16, ladder []float64, k int) ([]int, error) {
	deep := p.Cal.Vcrash
	if n := len(ladder); n > 0 && ladder[n-1] > deep {
		deep = ladder[n-1]
	}
	if err := b.SetVCCBRAM(deep); err != nil {
		return nil, err
	}
	vuln := make([]float64, b.Pool.Len())
	if b.Operating() {
		run := b.BeginRun()
		buf := make([]uint16, bram.Rows)
		for site := 0; site < b.Pool.Len(); site++ {
			if err := b.ReadBRAMInto(buf, site, run); err != nil {
				return nil, err
			}
			n := 0
			for _, w := range buf {
				n += bits.OnesCount16(w ^ pattern)
			}
			vuln[site] = float64(n)
		}
	}
	if err := b.SetVCCBRAM(p.Cal.Vnom); err != nil {
		return nil, err
	}
	cl, err := cluster.KMeans1D(vuln, 3, "icbp:"+p.Name+":"+p.Serial)
	if err != nil {
		return nil, err
	}
	order := make([]int, len(vuln))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, c int) bool {
		sa, sc := order[a], order[c]
		if cl.Assign[sa] != cl.Assign[sc] {
			return cl.Assign[sa] < cl.Assign[sc]
		}
		if vuln[sa] != vuln[sc] {
			return vuln[sa] < vuln[sc]
		}
		return sa < sc
	})
	sites := append([]int(nil), order[:k]...)
	sort.Ints(sites)
	return sites, nil
}

// isoEnergyPoint finds the guardbanded DVFS point whose energy best
// matches the undervolted energy at v — the paper's iso-energy framing of
// the DVFS baseline.
func isoEnergyPoint(cmp *dvfs.Comparator, v float64) dvfs.OperatingPoint {
	target := cmp.AtUndervolt(v).EnergyJ
	var best dvfs.OperatingPoint
	bestD := math.Inf(1)
	found := false
	for _, g := range voltage.SweepDown(cmp.Cal.Vnom, 0.40, voltage.Step) {
		op := cmp.AtDVFS(g)
		if op.FreqScale <= 0 {
			continue
		}
		if d := math.Abs(op.EnergyJ - target); d < bestD-1e-15 {
			bestD, best, found = d, op, true
		}
	}
	if !found {
		return cmp.AtDVFS(v)
	}
	return best
}

// aggregateMitigation folds per-board mitigation samples into per-arm
// fleet summaries, canonical arm order, skipping arms no board ran. Like
// AggregateSamples it is order-preserving and purely a function of the
// samples, so federated shards merge bit-identically.
func aggregateMitigation(samples []BoardSample) []MitigationAggregate {
	var out []MitigationAggregate
	for _, arm := range MitigationArms() {
		var minVs, savings []float64
		for i := range samples {
			s := &samples[i]
			if s.Failed {
				continue
			}
			for j := range s.Mitigation {
				if s.Mitigation[j].Arm == arm {
					minVs = append(minVs, s.Mitigation[j].MinSafeV)
					savings = append(savings, s.Mitigation[j].EnergySavings)
				}
			}
		}
		if len(minVs) == 0 {
			continue
		}
		out = append(out, MitigationAggregate{
			Arm:           arm,
			Boards:        len(minVs),
			MinSafeV:      stats.Summarize(minVs),
			EnergySavings: stats.Summarize(savings),
		})
	}
	return out
}
