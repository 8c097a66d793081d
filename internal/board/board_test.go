package board

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"
	"testing"

	"repro/internal/bram"
	"repro/internal/platform"
	"repro/internal/prng"
	"repro/internal/silicon"
	"repro/internal/thermal"
)

// testBoard returns a scaled-down VC707 for fast tests.
func testBoard() *Board {
	return New(platform.VC707().Scaled(120))
}

func TestNewBoardDefaults(t *testing.T) {
	b := testBoard()
	if !b.Operating() || !b.Done() {
		t.Fatal("fresh board should be operating")
	}
	if b.VCCBRAM() != 1.0 || b.VCCINT() != 1.0 {
		t.Fatalf("rails not nominal: %v / %v", b.VCCBRAM(), b.VCCINT())
	}
	if got := b.OnBoardTempC(); math.Abs(got-thermal.DefaultOnBoardC) > 0.5 {
		t.Fatalf("default on-board temp = %v, want ~50", got)
	}
}

func TestPMBusRoundTripOnRails(t *testing.T) {
	b := testBoard()
	if err := b.SetVCCBRAM(0.61); err != nil {
		t.Fatal(err)
	}
	got, err := b.Ctl.ReadVout(PageVCCBRAM)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.61) > 0.001 {
		t.Fatalf("ReadVout = %v", got)
	}
}

func TestNoFaultsInSafeRegion(t *testing.T) {
	b := testBoard()
	b.FillAll(0xFFFF)
	buf := make([]uint16, bram.Rows)
	for _, v := range []float64{1.0, 0.80, b.Platform.Cal.Vmin} {
		if err := b.SetVCCBRAM(v); err != nil {
			t.Fatal(err)
		}
		run := b.BeginRun()
		for site := 0; site < b.Pool.Len(); site++ {
			if err := b.ReadBRAMInto(buf, site, run); err != nil {
				t.Fatal(err)
			}
			for r, w := range buf {
				if w != 0xFFFF {
					t.Fatalf("fault at %v V, site %d row %d: %#x", v, site, r, w)
				}
			}
		}
	}
}

func TestFaultsAppearBelowVmin(t *testing.T) {
	b := testBoard()
	b.FillAll(0xFFFF)
	if err := b.SetVCCBRAM(b.Platform.Cal.Vcrash); err != nil {
		t.Fatal(err)
	}
	run := b.BeginRun()
	buf := make([]uint16, bram.Rows)
	faults := 0
	for site := 0; site < b.Pool.Len(); site++ {
		if err := b.ReadBRAMInto(buf, site, run); err != nil {
			t.Fatal(err)
		}
		for _, w := range buf {
			if w != 0xFFFF {
				for i := 0; i < 16; i++ {
					if w&(1<<i) == 0 {
						faults++
					}
				}
			}
		}
	}
	if faults == 0 {
		t.Fatal("no faults at Vcrash with all-ones pattern")
	}
}

func TestStoredDataUnaffected(t *testing.T) {
	// Undervolting corrupts reads, not storage: raising the rail back must
	// return clean data with no reconfiguration.
	b := testBoard()
	b.FillAll(0xFFFF)
	if err := b.SetVCCBRAM(b.Platform.Cal.Vcrash); err != nil {
		t.Fatal(err)
	}
	_ = b.BeginRun()
	if err := b.SetVCCBRAM(1.0); err != nil {
		t.Fatal(err)
	}
	buf := make([]uint16, bram.Rows)
	run := b.BeginRun()
	for site := 0; site < b.Pool.Len(); site++ {
		if err := b.ReadBRAMInto(buf, site, run); err != nil {
			t.Fatal(err)
		}
		for _, w := range buf {
			if w != 0xFFFF {
				t.Fatal("stored data was corrupted by undervolting")
			}
		}
	}
}

func TestCrashLatchAndReconfigure(t *testing.T) {
	b := testBoard()
	crash := b.Platform.Cal.Vcrash
	if err := b.SetVCCBRAM(crash - 0.02); err != nil {
		t.Fatal(err)
	}
	if b.Done() {
		t.Fatal("DONE should drop below Vcrash")
	}
	buf := make([]uint16, bram.Rows)
	if err := b.ReadBRAMInto(buf, 0, 1); err == nil {
		t.Fatal("reads must fail when crashed")
	}
	// Raising voltage alone is not enough: the latch is sticky.
	if err := b.SetVCCBRAM(1.0); err != nil {
		t.Fatal(err)
	}
	if b.Done() {
		t.Fatal("crash latch should persist until reconfiguration")
	}
	b.Configure()
	if !b.Done() {
		t.Fatal("reconfiguration should restore DONE")
	}
}

func TestVCCINTCrashAlsoLatches(t *testing.T) {
	b := testBoard()
	if err := b.SetVCCINT(b.Platform.Cal.VcrashInt - 0.02); err != nil {
		t.Fatal(err)
	}
	if b.Done() {
		t.Fatal("VCCINT crash should drop DONE")
	}
}

func TestStreamBRAMWirePath(t *testing.T) {
	b := testBoard()
	b.FillAll(0xA5A5)
	fr, err := b.StreamBRAM(3, b.BeginRun())
	if err != nil {
		t.Fatal(err)
	}
	if fr.Site != 3 || len(fr.Rows) != bram.Rows {
		t.Fatalf("frame shape: site=%d rows=%d", fr.Site, len(fr.Rows))
	}
	for _, w := range fr.Rows {
		if w != 0xA5A5 {
			t.Fatalf("wire corrupted word %#x", w)
		}
	}
	if b.Link.FramesMoved != 1 || b.Link.BytesMoved == 0 {
		t.Fatal("link accounting missing")
	}
}

func TestLinkReliableUnderUndervolting(t *testing.T) {
	// The paper validates the serial interface is unaffected by VCCBRAM
	// undervolting: frames must decode cleanly at any level.
	b := testBoard()
	b.FillAll(0x0000)
	if err := b.SetVCCBRAM(b.Platform.Cal.Vcrash); err != nil {
		t.Fatal(err)
	}
	if _, err := b.StreamBRAM(0, b.BeginRun()); err != nil {
		t.Fatalf("link failed under undervolting: %v", err)
	}
}

func TestLogicSelfTest(t *testing.T) {
	b := testBoard()
	n, err := b.LogicSelfTestErrors(1)
	if err != nil || n != 0 {
		t.Fatalf("errors at nominal = %d, %v", n, err)
	}
	if err := b.SetVCCINT(b.Platform.Cal.VminInt - 0.02); err != nil {
		t.Fatal(err)
	}
	mid, err := b.LogicSelfTestErrors(1)
	if err != nil || mid <= 0 {
		t.Fatalf("errors below VminInt = %d, %v", mid, err)
	}
	if err := b.SetVCCINT(b.Platform.Cal.VcrashInt); err != nil {
		t.Fatal(err)
	}
	deep, err := b.LogicSelfTestErrors(1)
	if err != nil || deep <= mid {
		t.Fatalf("errors must grow toward crash: %d -> %d", mid, deep)
	}
}

func TestPowerDropsWithVoltage(t *testing.T) {
	b := testBoard()
	pNom := b.BRAMPowerW()
	if err := b.SetVCCBRAM(b.Platform.Cal.Vmin); err != nil {
		t.Fatal(err)
	}
	pMin := b.BRAMPowerW()
	if pNom/pMin < 10 {
		t.Fatalf("BRAM power reduction = %.1fx, want >10x", pNom/pMin)
	}
	meterNom := b.MeasureTotalPowerW(50)
	if meterNom <= 0 {
		t.Fatal("meter reading not positive")
	}
}

func TestSetOnBoardTemp(t *testing.T) {
	b := testBoard()
	for _, want := range []float64{50, 60, 70, 80} {
		b.SetOnBoardTemp(want)
		if got := b.OnBoardTempC(); math.Abs(got-want) > 0.75 {
			t.Fatalf("on-board temp = %v, want %v", got, want)
		}
	}
}

func TestTemperatureReducesObservedFaults(t *testing.T) {
	b := testBoard()
	b.FillAll(0xFFFF)
	if err := b.SetVCCBRAM(b.Platform.Cal.Vcrash); err != nil {
		t.Fatal(err)
	}
	count := func() int {
		buf := make([]uint16, bram.Rows)
		run := b.BeginRun()
		n := 0
		for site := 0; site < b.Pool.Len(); site++ {
			if err := b.ReadBRAMInto(buf, site, run); err != nil {
				t.Fatal(err)
			}
			for _, w := range buf {
				if w != 0xFFFF {
					n++
				}
			}
		}
		return n
	}
	b.SetOnBoardTemp(50)
	cold := count()
	b.SetOnBoardTemp(80)
	hot := count()
	if cold == 0 {
		t.Fatal("no faults at 50C")
	}
	if hot >= cold {
		t.Fatalf("ITD violated on board path: cold=%d hot=%d", cold, hot)
	}
}

func TestHarshEnvironmentFaultsAboveVmin(t *testing.T) {
	// Section II-B: "repeating these tests in more noisy and harsh
	// environments can cause observable faults above observed Vmin".
	// Cranking the environment-noise scale widens both the per-cell jitter
	// band and the rail ripple, surfacing faults at the quiet-lab Vmin.
	b := testBoard()
	b.FillAll(0xFFFF)
	if err := b.SetVCCBRAM(b.Platform.Cal.Vmin); err != nil {
		t.Fatal(err)
	}
	count := func() int {
		buf := make([]uint16, bram.Rows)
		n := 0
		for run := 0; run < 10; run++ {
			r := b.BeginRun()
			for site := 0; site < b.Pool.Len(); site++ {
				if err := b.ReadBRAMInto(buf, site, r); err != nil {
					t.Fatal(err)
				}
				for _, w := range buf {
					if w != 0xFFFF {
						n++
					}
				}
			}
		}
		return n
	}
	quiet := count()
	if quiet != 0 {
		t.Fatalf("quiet lab shows %d faults at Vmin", quiet)
	}
	b.SetEnvironmentNoise(60)
	if harsh := count(); harsh == 0 {
		t.Fatal("harsh environment produced no faults at Vmin")
	}
	// Restore sanity.
	b.SetEnvironmentNoise(1)
	if again := count(); again != 0 {
		t.Fatalf("noise scale did not restore: %d faults", again)
	}
}

func TestPassMatchesBoardRead(t *testing.T) {
	// A pass read from several goroutines must return byte-identical data
	// to the serial board path under identical conditions.
	b := testBoard()
	b.FillAll(0xFFFF)
	if err := b.SetVCCBRAM(b.Platform.Cal.Vcrash); err != nil {
		t.Fatal(err)
	}
	run := b.BeginRun()
	var sites []int
	want := map[int][]uint16{}
	for site := 0; site < b.Pool.Len(); site += 7 {
		a := make([]uint16, bram.Rows)
		if err := b.ReadBRAMInto(a, site, run); err != nil {
			t.Fatal(err)
		}
		sites = append(sites, site)
		want[site] = a
	}
	p, err := b.Pass(run)
	if err != nil {
		t.Fatal(err)
	}
	const readers = 3
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := make([]uint16, bram.Rows)
			var scratch []silicon.Fault
			for i := r; i < len(sites); i += readers {
				site := sites[i]
				scratch, _ = readFaulty(b, p.eval, c, site, scratch)
				a := want[site]
				for row := range a {
					if a[row] != c[row] {
						t.Errorf("site %d row %d: board %#x pass %#x", site, row, a[row], c[row])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

func TestReadBRAMIntoShortBuffer(t *testing.T) {
	b := testBoard()
	if err := b.ReadBRAMInto(make([]uint16, 10), 0, 1); err == nil {
		t.Fatal("short buffer should error")
	}
}

func TestFrameCodecDetectsCorruption(t *testing.T) {
	l := NewLink(0)
	wire := l.Encode(Frame{Site: 7, Rows: []uint16{1, 2, 3}})
	if _, err := l.Decode(wire); err != nil {
		t.Fatalf("clean frame rejected: %v", err)
	}
	wire[5] ^= 0x40
	if _, err := l.Decode(wire); err == nil {
		t.Fatal("corrupted frame accepted")
	}
	if _, err := l.Decode(wire[:4]); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

func TestTransferSeconds(t *testing.T) {
	l := NewLink(921600)
	sec := l.TransferSeconds(921600)
	if math.Abs(sec-10) > 1e-9 {
		t.Fatalf("transfer time = %v, want 10s (10 bits/byte)", sec)
	}
}

// countViaReadout is the reference for the count-only path: a full readout
// plus row-by-row compare, exactly what scanPool did before the count path.
func countViaReadout(t *testing.T, b *Board, site int, run uint64) (total, f10, f01 int) {
	t.Helper()
	buf := make([]uint16, bram.Rows)
	if err := b.ReadBRAMInto(buf, site, run); err != nil {
		t.Fatal(err)
	}
	blk := b.Pool.Block(site)
	for row := 0; row < bram.Rows; row++ {
		stored := blk.ReadRaw(row)
		got := buf[row]
		f10 += bits.OnesCount16(stored &^ got)
		f01 += bits.OnesCount16(got &^ stored)
	}
	return f10 + f01, f10, f01
}

// fillBoard applies one of the equivalence-test fill patterns.
func fillBoard(b *Board, name string) {
	switch name {
	case "uniform-ffff":
		b.FillAll(0xFFFF)
	case "uniform-0000":
		// Adversarial for 1→0 faults: none can manifest on stored zeros.
		b.FillAll(0x0000)
	case "random":
		src := prng.NewKeyed("count-equivalence-fill")
		b.FillAllFunc(func(site, row int) uint16 { return uint16(src.Uint64()) })
	case "mask-all":
		// Fully adversarial: store the non-vulnerable polarity at every weak
		// cell, so every active fault is invisible to a readout compare.
		b.FillAll(0xAAAA)
		for site := 0; site < b.Pool.Len(); site++ {
			blk := b.Pool.Block(site)
			for _, c := range b.Die.WeakCells(site) {
				w := blk.ReadRaw(int(c.Row))
				if c.Flip01 {
					w |= 1 << c.Col // stored 1 hides a 0→1 flip
				} else {
					w &^= 1 << c.Col // stored 0 hides a 1→0 flip
				}
				blk.Write(int(c.Row), w)
			}
		}
	case "expose-all":
		// The inverse: every weak cell stores its vulnerable polarity, so
		// every active fault is observable.
		b.FillAll(0x5555)
		for site := 0; site < b.Pool.Len(); site++ {
			blk := b.Pool.Block(site)
			for _, c := range b.Die.WeakCells(site) {
				w := blk.ReadRaw(int(c.Row))
				if c.Flip01 {
					w &^= 1 << c.Col
				} else {
					w |= 1 << c.Col
				}
				blk.Write(int(c.Row), w)
			}
		}
	}
}

// TestCountPathMatchesReadoutPath proves the count-only read path reports
// exactly the totals a full readout-and-compare observes, for uniform,
// random, and adversarial fills across the whole voltage window.
func TestCountPathMatchesReadoutPath(t *testing.T) {
	fills := []string{"uniform-ffff", "uniform-0000", "random", "mask-all", "expose-all"}
	for _, fill := range fills {
		b := testBoard()
		fillBoard(b, fill)
		cal := b.Platform.Cal
		for _, v := range []float64{cal.Vnom, cal.Vmin, cal.Vmin - 0.02, cal.Vcrash + 0.02, cal.Vcrash} {
			if err := b.SetVCCBRAM(v); err != nil {
				t.Fatal(err)
			}
			run := b.BeginRun()
			perSite := make([]int, b.Pool.Len())
			gotTotal, got10, got01, err := b.CountFaultsInto(perSite, run)
			if err != nil {
				t.Fatal(err)
			}
			pass, err := b.Pass(run)
			if err != nil {
				t.Fatal(err)
			}
			var scratch []silicon.Fault
			wantTotal, want10, want01 := 0, 0, 0
			for site := 0; site < b.Pool.Len(); site++ {
				n, f10, f01 := countViaReadout(t, b, site, run)
				wantTotal += n
				want10 += f10
				want01 += f01
				var cn, c10, c01 int
				scratch, cn, c10, c01 = pass.Count(scratch, site)
				if cn != n || c10 != f10 || c01 != f01 {
					t.Fatalf("fill %s v=%v site %d: Pass.Count (%d,%d,%d) != readout (%d,%d,%d)",
						fill, v, site, cn, c10, c01, n, f10, f01)
				}
				if perSite[site] != n {
					t.Fatalf("fill %s v=%v site %d: perSite %d != readout %d", fill, v, site, perSite[site], n)
				}
			}
			if gotTotal != wantTotal || got10 != int64(want10) || got01 != int64(want01) {
				t.Fatalf("fill %s v=%v: CountFaultsInto (%d,%d,%d) != readout (%d,%d,%d)",
					fill, v, gotTotal, got10, got01, wantTotal, want10, want01)
			}
			if fill == "mask-all" && gotTotal != 0 {
				t.Fatalf("mask-all fill observed %d faults, want 0", gotTotal)
			}
		}
		if err := b.SetVCCBRAM(b.Platform.Cal.Vnom); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCountFaultsIntoErrors covers the not-operating and short-slice paths.
func TestCountFaultsIntoErrors(t *testing.T) {
	b := testBoard()
	if _, _, _, err := b.CountFaultsInto(make([]int, 1), b.BeginRun()); err == nil {
		t.Fatal("short perSite accepted")
	}
	if err := b.SetVCCBRAM(b.Platform.Cal.Vcrash - 0.01); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := b.CountFaultsInto(nil, b.BeginRun()); !errors.Is(err, ErrNotOperating) {
		t.Fatalf("crashed board CountFaultsInto err = %v", err)
	}
	if _, err := b.Pass(1); !errors.Is(err, ErrNotOperating) {
		t.Fatalf("crashed board Pass err = %v", err)
	}
}

// TestCountsDeltaMatchesFullRebuild is the differential test for the
// content-delta prefix-sum path: a board mutated by single-word writes (which
// refresh its fault counts via the dirty-row delta) must report exactly the
// counts of a twin board holding identical contents written in bulk (which
// always rebuilds from scratch), and both must match an independent
// readout-and-compare. The schedule exercises the delta's edge cases: writes
// that flip observability back and forth, rows with no weak cells, dirty-feed
// overflow, and bulk fills interleaved with deltas.
func TestCountsDeltaMatchesFullRebuild(t *testing.T) {
	delta, full := testBoard(), testBoard() // same serial: identical dies
	cal := delta.Platform.Cal
	src := prng.NewKeyed("counts-delta-differential")
	sites := delta.Pool.Len()

	// mirror copies delta's exact contents onto full via the bulk path, so
	// full's next count pass rebuilds its prefix sums from scratch.
	mirror := func() {
		full.FillAllFunc(func(site, row int) uint16 {
			return delta.Pool.Block(site).ReadRaw(row)
		})
	}
	compare := func(step string) {
		t.Helper()
		runD, runF := delta.BeginRun(), full.BeginRun()
		if runD != runF {
			t.Fatalf("%s: run counters diverged (%d vs %d)", step, runD, runF)
		}
		perD := make([]int, sites)
		perF := make([]int, sites)
		dTot, d10, d01, err := delta.CountFaultsInto(perD, runD)
		if err != nil {
			t.Fatal(err)
		}
		fTot, f10, f01, err := full.CountFaultsInto(perF, runF)
		if err != nil {
			t.Fatal(err)
		}
		if dTot != fTot || d10 != f10 || d01 != f01 {
			t.Fatalf("%s: delta path (%d,%d,%d) != full rebuild (%d,%d,%d)",
				step, dTot, d10, d01, fTot, f10, f01)
		}
		for s := range perD {
			if perD[s] != perF[s] {
				t.Fatalf("%s: site %d delta %d != full %d", step, s, perD[s], perF[s])
			}
		}
		// Independent reference on a sampled site: snapshot and compare.
		s := int(src.Uint64() % uint64(sites))
		n, _, _ := countViaReadout(t, delta, s, runD)
		if n != perD[s] {
			t.Fatalf("%s: site %d delta count %d != readout %d", step, s, perD[s], n)
		}
	}

	for _, v := range []float64{cal.Vmin - 0.02, cal.Vcrash + 0.02} {
		if err := delta.SetVCCBRAM(v); err != nil {
			t.Fatal(err)
		}
		if err := full.SetVCCBRAM(v); err != nil {
			t.Fatal(err)
		}
		// Small batches of random single-word writes: the delta path proper.
		for step := 0; step < 8; step++ {
			for i := 0; i < 12; i++ {
				site := int(src.Uint64() % uint64(sites))
				row := int(src.Uint64() % bram.Rows)
				delta.Pool.Block(site).Write(row, uint16(src.Uint64()))
			}
			mirror()
			compare(fmt.Sprintf("v=%.2f batch %d", v, step))
		}
		// Flip one weak cell's stored polarity back and forth so its
		// observability toggles 1→0→1 across refreshes.
		if cells := delta.Die.WeakCells(0); len(cells) > 0 {
			c := cells[0]
			blk := delta.Pool.Block(0)
			for i := 0; i < 2; i++ {
				blk.Write(int(c.Row), blk.ReadRaw(int(c.Row))^(1<<c.Col))
				mirror()
				compare(fmt.Sprintf("v=%.2f weak-cell toggle %d", v, i))
			}
		}
		// A burst past the dirty-feed bound forces the overflow fallback.
		blk := delta.Pool.Block(1 % sites)
		for row := 0; row < 3*bram.Rows/4; row++ {
			blk.Write(row, uint16(src.Uint64()))
		}
		mirror()
		compare(fmt.Sprintf("v=%.2f overflow burst", v))
		// Bulk fill, then more deltas on top of the rebuilt sums.
		delta.FillAll(0xAAAA)
		full.FillAll(0xAAAA)
		for i := 0; i < 12; i++ {
			site := int(src.Uint64() % uint64(sites))
			row := int(src.Uint64() % bram.Rows)
			delta.Pool.Block(site).Write(row, uint16(src.Uint64()))
		}
		mirror()
		compare(fmt.Sprintf("v=%.2f post-fill deltas", v))
	}
}
