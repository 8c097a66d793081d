package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// testEvent fabricates one event record with a payload that identifies it.
func testEvent(seq int, gseq int64) EventRecord {
	payload, _ := json.Marshal(map[string]any{"seq": seq, "gseq": gseq, "type": "board"})
	return EventRecord{Seq: seq, GSeq: gseq, Payload: payload}
}

// appendN appends events [from, from+n) with GSeq = gbase + offset.
func appendN(t *testing.T, s Store, id string, from, n int, gbase int64) {
	t.Helper()
	for i := 0; i < n; i++ {
		ev := testEvent(from+i, gbase+int64(i))
		if err := s.AppendJobEvents(id, []EventRecord{ev}); err != nil {
			t.Fatal(err)
		}
	}
}

// eventLogConformance exercises the event-log contract: append order, range
// reads, stats, firehose paging, and deletion.
func eventLogConformance(t *testing.T, s Store) {
	t.Helper()
	if evs, err := s.ReadJobEvents("job-0001", 0, 0); err != nil || len(evs) != 0 {
		t.Fatalf("empty log read = (%d events, %v), want none", len(evs), err)
	}
	appendN(t, s, "job-0001", 0, 10, 1)
	appendN(t, s, "job-0002", 0, 5, 11)

	evs, err := s.ReadJobEvents("job-0001", 0, 0)
	if err != nil || len(evs) != 10 {
		t.Fatalf("full read = (%d events, %v), want 10", len(evs), err)
	}
	for i, ev := range evs {
		if ev.Seq != i || ev.GSeq != int64(i+1) || ev.Job != "job-0001" {
			t.Fatalf("event %d = {seq %d, gseq %d, job %q}", i, ev.Seq, ev.GSeq, ev.Job)
		}
	}
	if evs, _ := s.ReadJobEvents("job-0001", 7, 0); len(evs) != 3 || evs[0].Seq != 7 {
		t.Fatalf("from=7 read = %+v, want seqs 7..9", evs)
	}
	if evs, _ := s.ReadJobEvents("job-0001", 2, 4); len(evs) != 4 || evs[3].Seq != 5 {
		t.Fatalf("limit read = %+v, want seqs 2..5", evs)
	}

	nextSeq, lastG, err := s.JobEventStats("job-0001")
	if err != nil || nextSeq != 10 || lastG != 10 {
		t.Fatalf("stats = (next %d, lastG %d, %v), want (10, 10)", nextSeq, lastG, err)
	}
	if g, err := s.LastGSeq(); err != nil || g != 15 {
		t.Fatalf("LastGSeq = (%d, %v), want 15", g, err)
	}

	// Firehose paging crosses jobs in global order.
	fh, err := s.ReadFirehose(0, 0)
	if err != nil || len(fh) != 15 {
		t.Fatalf("firehose from 0 = (%d events, %v), want 15", len(fh), err)
	}
	for i, ev := range fh {
		if ev.GSeq != int64(i+1) {
			t.Fatalf("firehose event %d has gseq %d", i, ev.GSeq)
		}
	}
	if fh, _ := s.ReadFirehose(12, 2); len(fh) != 2 || fh[0].GSeq != 13 || fh[1].GSeq != 14 {
		t.Fatalf("firehose page = %+v, want gseq 13,14", fh)
	}
	if fh, _ := s.ReadFirehose(15, 0); len(fh) != 0 {
		t.Fatalf("firehose past end = %d events, want 0", len(fh))
	}

	// Deleting the job removes its events from every view.
	if err := s.DeleteJob("job-0001"); err != nil {
		t.Fatal(err)
	}
	if evs, _ := s.ReadJobEvents("job-0001", 0, 0); len(evs) != 0 {
		t.Fatalf("deleted job still has %d events", len(evs))
	}
	if fh, _ := s.ReadFirehose(0, 0); len(fh) != 5 {
		t.Fatalf("firehose after delete = %d events, want 5", len(fh))
	}

	if err := s.AppendJobEvents("../evil", []EventRecord{testEvent(0, 1)}); err == nil {
		t.Fatal("append with a malformed id must fail")
	}
}

func TestDiskEventLogConformance(t *testing.T) {
	d, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	eventLogConformance(t, d)
}

// TestDiskEventLogCompaction drives the tail past the threshold, forces a
// fold, and asserts reads and reopen agree with the uncompacted truth.
func TestDiskEventLogCompaction(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	d.SetEventLogTuning(16, 32)
	const n = 100
	appendN(t, d, "job-0001", 0, n, 1)
	if err := d.CompactJob("job-0001"); err != nil {
		t.Fatal(err)
	}
	segs, _ := os.ReadDir(d.jobSegsDir("job-0001"))
	if len(segs) == 0 {
		t.Fatal("compaction sealed no segments")
	}
	verify := func(s Store, label string) {
		t.Helper()
		evs, err := s.ReadJobEvents("job-0001", 0, 0)
		if err != nil || len(evs) != n {
			t.Fatalf("%s: read = (%d events, %v), want %d", label, len(evs), err, n)
		}
		for i, ev := range evs {
			if ev.Seq != i || ev.GSeq != int64(i+1) {
				t.Fatalf("%s: event %d = {seq %d, gseq %d}", label, i, ev.Seq, ev.GSeq)
			}
		}
		if evs, _ := s.ReadJobEvents("job-0001", n-3, 0); len(evs) != 3 {
			t.Fatalf("%s: deep-tail read = %d events, want 3", label, len(evs))
		}
		nextSeq, lastG, _ := s.JobEventStats("job-0001")
		if nextSeq != n || lastG != n {
			t.Fatalf("%s: stats = (next %d, lastG %d), want (%d, %d)", label, nextSeq, lastG, n, n)
		}
	}
	verify(d, "compacted")
	// Appends continue cleanly after the tail rewrite.
	appendN(t, d, "job-0001", n, 5, int64(n)+1)
	if evs, _ := d.ReadJobEvents("job-0001", 0, 0); len(evs) != n+5 {
		t.Fatalf("post-compaction append lost events: %d, want %d", len(evs), n+5)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the index is rebuilt from segment names + tail scan alone.
	d2, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if evs, _ := d2.ReadJobEvents("job-0001", 0, 0); len(evs) != n+5 {
		t.Fatalf("reopened read = %d events, want %d", len(evs), n+5)
	}
	nextSeq, lastG, _ := d2.JobEventStats("job-0001")
	if nextSeq != n+5 || lastG != int64(n+5) {
		t.Fatalf("reopened stats = (next %d, lastG %d)", nextSeq, lastG)
	}
}

// TestDiskEventLogCrashMidCompaction reconstructs the exact on-disk state a
// crash between sealing a segment and rewriting the tail leaves behind —
// every sealed event still present in the tail — and asserts no event is
// lost or duplicated, before and after a reopen.
func TestDiskEventLogCrashMidCompaction(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	d.SetEventLogTuning(16, 1<<30) // sealing only via explicit CompactJob
	const n = 40
	appendN(t, d, "job-0001", 0, n, 1)
	tailRaw, err := os.ReadFile(d.jobLogPath("job-0001"))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.CompactJob("job-0001"); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Resurrect the pre-compaction tail: segments now duplicate its prefix,
	// which is exactly the crash window's on-disk state.
	if err := os.WriteFile(filepath.Join(dir, "jobs", "job-0001.log"), tailRaw, 0o644); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	evs, err := d2.ReadJobEvents("job-0001", 0, 0)
	if err != nil || len(evs) != n {
		t.Fatalf("crash-state read = (%d events, %v), want exactly %d", len(evs), err, n)
	}
	for i, ev := range evs {
		if ev.Seq != i {
			t.Fatalf("crash-state event %d has seq %d", i, ev.Seq)
		}
	}
	fh, _ := d2.ReadFirehose(0, 0)
	if len(fh) != n {
		t.Fatalf("crash-state firehose = %d events, want %d", len(fh), n)
	}
	// The next compaction folds the stale prefix away for good.
	if err := d2.CompactJob("job-0001"); err != nil {
		t.Fatal(err)
	}
	if evs, _ := d2.ReadJobEvents("job-0001", 0, 0); len(evs) != n {
		t.Fatalf("post-heal read = %d events, want %d", len(evs), n)
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDiskEventLogTornTailLine asserts a partially-written final line (the
// power-cut-mid-append state) is skipped, not fatal, and that appends after
// reopen continue past it.
func TestDiskEventLogTornTailLine(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, d, "job-0001", 0, 5, 1)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, "jobs", "job-0001.log"), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"job":"job-0001","seq":5,"gs`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	d2, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	evs, err := d2.ReadJobEvents("job-0001", 0, 0)
	if err != nil || len(evs) != 5 {
		t.Fatalf("torn-tail read = (%d events, %v), want 5", len(evs), err)
	}
	nextSeq, _, _ := d2.JobEventStats("job-0001")
	if nextSeq != 5 {
		t.Fatalf("torn-tail nextSeq = %d, want 5", nextSeq)
	}
	appendN(t, d2, "job-0001", 5, 2, 6)
	if evs, _ := d2.ReadJobEvents("job-0001", 0, 0); len(evs) != 7 {
		t.Fatalf("append past torn line = %d events, want 7", len(evs))
	}
}

// TestDiskJournalBytesPerEventFlat is the mechanical O(1) pin behind
// BenchmarkJournalAppend: the journal bytes written per appended event must
// not grow with the length of the log. The old full-document journal wrote
// O(events) bytes per event; here a 20× longer log must stay within 2× on
// bytes/event (compaction rewrites cost a small constant factor, not a
// linear one).
func TestDiskJournalBytesPerEventFlat(t *testing.T) {
	perEvent := func(n int) float64 {
		d, err := OpenDisk(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		start := d.JournalBytes()
		for i := 0; i < n; i++ {
			if err := d.AppendJobEvents("job-0001", []EventRecord{testEvent(i, int64(i+1))}); err != nil {
				t.Fatal(err)
			}
		}
		// Fold everything the background compactor may have left pending, so
		// the measurement includes full compaction cost.
		if err := d.CompactJob("job-0001"); err != nil {
			t.Fatal(err)
		}
		return float64(d.JournalBytes()-start) / float64(n)
	}
	small, large := perEvent(500), perEvent(10000)
	if large > 2*small {
		t.Fatalf("journal bytes/event grew with log length: %d events → %.1f B/event, %d events → %.1f B/event",
			500, small, 10000, large)
	}
	t.Logf("journal bytes/event: n=500 → %.1f, n=10000 → %.1f", small, large)
}

// TestDiskEventLogBackgroundCompactor asserts the compactor actually runs
// on its own once the tail passes the threshold.
func TestDiskEventLogBackgroundCompactor(t *testing.T) {
	d, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.SetEventLogTuning(8, 16)
	appendN(t, d, "job-0001", 0, 64, 1)
	// The fold is asynchronous; poll for a sealed segment.
	deadline := 200
	for ; deadline > 0; deadline-- {
		if des, _ := os.ReadDir(d.jobSegsDir("job-0001")); len(des) > 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if deadline == 0 {
		t.Fatal("background compactor never sealed a segment")
	}
	if evs, _ := d.ReadJobEvents("job-0001", 0, 0); len(evs) != 64 {
		t.Fatalf("background compaction changed visible events: %d, want 64", len(evs))
	}
}

// TestEventRecordDedup pins the reader-side exactly-once rule directly.
func TestEventRecordDedup(t *testing.T) {
	evs := []EventRecord{testEvent(2, 3), testEvent(0, 1), testEvent(2, 3), testEvent(1, 2)}
	out := sortDedupEvents(evs)
	if len(out) != 3 {
		t.Fatalf("dedup kept %d events, want 3", len(out))
	}
	for i, ev := range out {
		if ev.Seq != i {
			t.Fatalf("dedup order wrong at %d: %+v", i, out)
		}
	}
	if got := fmt.Sprint(capEvents(out, 2)[1].Seq); got != "1" {
		t.Fatalf("capEvents broke ordering: %s", got)
	}
}

// trimConformance exercises the retention contract: at least keepLast
// events stay readable, older history may go, and the newest events always
// survive.
func trimConformance(t *testing.T, s Store) {
	t.Helper()
	const n = 100
	appendN(t, s, "job-0001", 0, n, 1)
	if err := s.TrimJobEvents("job-0001", 0); err != nil {
		t.Fatal(err)
	}
	if evs, _ := s.ReadJobEvents("job-0001", 0, 0); len(evs) != n {
		t.Fatalf("keepLast=0 trimmed: %d events left, want %d", len(evs), n)
	}
	if err := s.TrimJobEvents("job-0001", 10); err != nil {
		t.Fatal(err)
	}
	evs, err := s.ReadJobEvents("job-0001", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) < 10 {
		t.Fatalf("trim kept %d events, want at least 10", len(evs))
	}
	for i, ev := range evs {
		if want := n - len(evs) + i; ev.Seq != want {
			t.Fatalf("event %d has seq %d, want %d (suffix must be contiguous)", i, ev.Seq, want)
		}
	}
	if evs[len(evs)-1].Seq != n-1 {
		t.Fatalf("newest event %d lost by trim", n-1)
	}
	// Stats still report the true frontier: trims must never rewind Seq/GSeq
	// allocation.
	nextSeq, lastG, _ := s.JobEventStats("job-0001")
	if nextSeq != n || lastG != int64(n) {
		t.Fatalf("stats after trim = (next %d, lastG %d), want (%d, %d)", nextSeq, lastG, n, n)
	}
	if err := s.TrimJobEvents("no-such-job", 5); err != nil {
		t.Fatalf("trimming an absent job: %v", err)
	}
	if err := s.TrimJobEvents("../evil", 5); err == nil {
		t.Fatal("trim with a malformed id must fail")
	}
}

// TestDiskTrimJobEvents compacts most of the log into sealed segments, trims,
// and asserts old segments are gone from disk while the retained suffix —
// and the index rebuilt by a reopen — stay intact.
func TestDiskTrimJobEvents(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	d.SetEventLogTuning(16, 1<<30) // manual compaction only
	trimConformance(t, d)

	segsBefore, _ := os.ReadDir(d.jobSegsDir("job-0001"))
	if err := d.CompactJob("job-0001"); err != nil {
		t.Fatal(err)
	}
	segsAfter, _ := os.ReadDir(d.jobSegsDir("job-0001"))
	if len(segsAfter) <= len(segsBefore) {
		t.Fatalf("compaction sealed nothing (%d -> %d segments)", len(segsBefore), len(segsAfter))
	}
	if err := d.TrimJobEvents("job-0001", 8); err != nil {
		t.Fatal(err)
	}
	segsTrimmed, _ := os.ReadDir(d.jobSegsDir("job-0001"))
	if len(segsTrimmed) >= len(segsAfter) {
		t.Fatalf("trim removed no segment files (%d -> %d)", len(segsAfter), len(segsTrimmed))
	}
	evs, _ := d.ReadJobEvents("job-0001", 0, 0)
	if len(evs) < 8 || evs[len(evs)-1].Seq != 99 {
		t.Fatalf("trimmed log = %d events ending at seq %d, want >= 8 ending at 99", len(evs), evs[len(evs)-1].Seq)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen rebuilds the index from what survived; the frontier holds.
	d2, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	nextSeq, lastG, _ := d2.JobEventStats("job-0001")
	if nextSeq != 100 || lastG != 100 {
		t.Fatalf("reopened stats = (next %d, lastG %d), want (100, 100)", nextSeq, lastG)
	}
}

// TestLiveSegCap pins the truncation contract for both causes of a dropped
// prefix on one layout: the live sealed-segment cap (compaction drops the
// oldest sealed segments of a still-appending job) and retention
// (TrimJobEvents after a manual compaction). Either way, reads below the
// dropped range lead with the same Truncated marker instead of a silent gap,
// and the truncation edge survives a reopen.
func TestLiveSegCap(t *testing.T) {
	const (
		n        = 40       // seals 10 segments of 4
		keep     = 2 * 4    // both causes keep the newest 2 segments
		minAvail = n - keep // Seqs 0..31 are gone; 32..39 survive
	)
	verify := func(t *testing.T, s Store, label string) {
		t.Helper()
		evs, err := s.ReadJobEvents("job-0001", 0, 0)
		if err != nil {
			t.Fatalf("%s: deep read: %v", label, err)
		}
		if len(evs) != 1+keep {
			t.Fatalf("%s: deep read = %d records, want marker + %d events", label, len(evs), keep)
		}
		// GSeq = Seq+1 here, so the last dropped event's GSeq is minAvail.
		m := evs[0]
		if !m.Truncated || m.Seq != minAvail-1 || m.GSeq != minAvail || m.Job != "job-0001" || len(m.Payload) != 0 {
			t.Fatalf("%s: deep read must lead with a truncation marker at seq %d, got %+v", label, minAvail-1, m)
		}
		for i, ev := range evs[1:] {
			if ev.Truncated || ev.Seq != minAvail+i {
				t.Fatalf("%s: surviving event %d = %+v", label, i, ev)
			}
		}
		// A read at or above the truncation edge sees no marker.
		evs, _ = s.ReadJobEvents("job-0001", minAvail, 0)
		if len(evs) != keep || evs[0].Truncated {
			t.Fatalf("%s: read from %d = %d records (first truncated=%v), want %d plain events",
				label, minAvail, len(evs), len(evs) > 0 && evs[0].Truncated, keep)
		}
		// A deep firehose resume carries the marker before the survivors...
		fh, err := s.ReadFirehose(0, 0)
		if err != nil {
			t.Fatalf("%s: firehose: %v", label, err)
		}
		if len(fh) != 1+keep || !reflect.DeepEqual(fh[0], m) {
			t.Fatalf("%s: firehose from 0 = %d records (first %+v), want the read's marker + %d",
				label, len(fh), fh[0], keep)
		}
		// ...and a resume past the edge streams clean.
		if fh, _ := s.ReadFirehose(fh[0].GSeq, 0); len(fh) != keep || fh[0].Truncated {
			t.Fatalf("%s: firehose past the edge = %d records, want %d plain events", label, len(fh), keep)
		}
		// The frontier never rewinds: new appends continue the sequence.
		nextSeq, lastG, _ := s.JobEventStats("job-0001")
		if nextSeq != n || lastG != int64(n) {
			t.Fatalf("%s: stats = (next %d, lastG %d), want (%d, %d)", label, nextSeq, lastG, n, n)
		}
	}
	for _, tc := range []struct {
		name string
		// drop seals the tail and drops all but the newest 2 segments.
		drop func(d *Disk) error
	}{
		{"live-cap", func(d *Disk) error {
			d.SetLiveSegCap(2)
			return d.CompactJob("job-0001")
		}},
		{"retention", func(d *Disk) error {
			if err := d.CompactJob("job-0001"); err != nil {
				return err
			}
			return d.TrimJobEvents("job-0001", keep)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			d, err := OpenDisk(dir)
			if err != nil {
				t.Fatal(err)
			}
			d.SetEventLogTuning(4, 1<<30) // tiny segments, manual compaction only
			appendN(t, d, "job-0001", 0, n, 1)
			if err := tc.drop(d); err != nil {
				t.Fatal(err)
			}
			segs, _ := os.ReadDir(d.jobSegsDir("job-0001"))
			if len(segs) != 2 {
				t.Fatalf("%d sealed segments left on disk, want 2", len(segs))
			}
			verify(t, d, "live")
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}

			// Reopen: the truncation edge is rederived from the surviving
			// layout.
			d2, err := OpenDisk(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer d2.Close()
			verify(t, d2, "reopened")

			// The log keeps growing: the next drop advances the edge rather
			// than resurrecting history.
			d2.SetEventLogTuning(4, 1<<30)
			appendN(t, d2, "job-0001", n, 8, int64(n)+1)
			if err := tc.drop(d2); err != nil {
				t.Fatal(err)
			}
			evs, _ := d2.ReadJobEvents("job-0001", 0, 0)
			if len(evs) != 1+8 || !evs[0].Truncated || evs[0].Seq != n-1 {
				t.Fatalf("after more appends: %d records, marker seq %d, want marker at %d + 8 events",
					len(evs), evs[0].Seq, n-1)
			}
		})
	}
}

// TestTruncationEdgeSurvivesReopen pins the exact truncation edge across a
// reopen. Two interleaved jobs share the GSeq space (job-a odd, job-b
// even); job-a is trimmed to its last segment. The marker must sit at the
// last dropped event's own (Seq, GSeq) before and after the reopen — a
// GSeq guessed from the first survivor would be job-b's event — so the
// firehose stays strictly increasing. A segment wholly below the edge, left
// by a crash between the edge write and the unlink, is discarded at open.
func TestTruncationEdgeSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	d.SetEventLogTuning(4, 1<<30) // tiny segments, manual compaction only
	for i := 0; i < 20; i++ {
		for j, id := range []string{"job-a", "job-b"} {
			if err := d.AppendJobEvents(id, []EventRecord{testEvent(i, int64(2*i+1+j))}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := d.CompactJob("job-a"); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(d.jobSegsDir("job-a"), segInfo{0, 3, 1, 7}.fileName())
	staleRaw, err := os.ReadFile(stale)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.TrimJobEvents("job-a", 4); err != nil {
		t.Fatal(err)
	}
	check := func(t *testing.T, s *Disk, label string) {
		t.Helper()
		fh, err := s.ReadFirehose(0, 0)
		if err != nil {
			t.Fatalf("%s: firehose: %v", label, err)
		}
		var marker *EventRecord
		for i := range fh {
			if i > 0 && fh[i].GSeq <= fh[i-1].GSeq {
				t.Fatalf("%s: firehose GSeq %d (%s) follows %d (%s)",
					label, fh[i].GSeq, fh[i].Job, fh[i-1].GSeq, fh[i-1].Job)
			}
			if fh[i].Truncated {
				marker = &fh[i]
			}
		}
		if marker == nil || marker.Job != "job-a" || marker.Seq != 15 || marker.GSeq != 31 {
			t.Fatalf("%s: firehose marker = %+v, want job-a at (Seq 15, GSeq 31)", label, marker)
		}
		if len(fh) != 1+4+20 {
			t.Fatalf("%s: firehose = %d records, want marker + 4 + 20", label, len(fh))
		}
	}
	check(t, d, "live")
	d = reopen(t, d)
	check(t, d, "reopened")

	// A crash between the edge write and the unlink leaves a dropped segment
	// behind; the next open discards it instead of serving it.
	if err := os.WriteFile(stale, staleRaw, 0o644); err != nil {
		t.Fatal(err)
	}
	d = reopen(t, d)
	check(t, d, "reopened over a stale segment")
	if _, err := os.Stat(stale); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("segment below the persisted edge survived the open: %v", err)
	}

	// Deleting the job removes its edge with the rest of its log.
	if err := d.DeleteJob("job-a"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "jobs", "job-a.trunc")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("DeleteJob left the truncation edge behind: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFailedTailRewriteServesNothingBelowTheEdge: CompactJob drops segments
// to the live cap before it rewrites the tail, so a failed rewrite leaves
// copies of dropped events in the tail. Reads must still serve the marker
// and only the events at or above the edge, before and after a reopen.
func TestFailedTailRewriteServesNothingBelowTheEdge(t *testing.T) {
	d, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	d.SetEventLogTuning(4, 1<<20) // tiny segments, manual compaction only
	d.SetLiveSegCap(2)
	const id = "job-a"
	appendN(t, d, id, 0, 40, 1) // GSeq = Seq + 1
	injected := errors.New("injected tail rename failure")
	d.SetFaultHooks(&FaultHooks{Rename: func(path string) error {
		if filepath.Ext(path) == ".log" {
			return injected
		}
		return nil
	}})
	if err := d.CompactJob(id); !errors.Is(err, injected) {
		t.Fatalf("CompactJob err = %v, want the injected tail rewrite failure", err)
	}
	d.SetFaultHooks(nil)
	check := func(t *testing.T, s *Disk, label string) {
		t.Helper()
		evs, err := s.ReadJobEvents(id, 0, 0)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		var got []string
		for _, ev := range evs {
			if ev.Truncated {
				got = append(got, fmt.Sprintf("%d:truncated", ev.Seq))
			} else {
				got = append(got, fmt.Sprint(ev.Seq))
			}
		}
		want := []string{"31:truncated", "32", "33", "34", "35", "36", "37", "38", "39"}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: job read = %v, want %v", label, got, want)
		}
		fh, err := s.ReadFirehose(0, 0)
		if err != nil {
			t.Fatalf("%s: firehose: %v", label, err)
		}
		for i := 1; i < len(fh); i++ {
			if fh[i].GSeq <= fh[i-1].GSeq {
				t.Fatalf("%s: firehose GSeq %d (Seq %d) follows %d (Seq %d)",
					label, fh[i].GSeq, fh[i].Seq, fh[i-1].GSeq, fh[i-1].Seq)
			}
		}
	}
	check(t, d, "live")
	d = reopen(t, d)
	check(t, d, "reopened")
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}
