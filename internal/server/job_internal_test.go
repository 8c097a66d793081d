package server

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/store"
)

// newTestTable builds a job table over st with the given history bound.
func newTestTable(t *testing.T, st store.Store, max int) *JobTable {
	t.Helper()
	tbl, err := NewJobTable(context.Background(), Config{Store: st, MaxJobHistory: max}, "job", "restarted")
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// newStore opens a Disk store in a fresh temp dir, closed in cleanup.
func newStore(t testing.TB) *store.Disk {
	t.Helper()
	st, err := store.OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// deleteRecorder records the job ids the journal deletes, in call order.
type deleteRecorder struct {
	store.Store
	deleted []string
}

func (d *deleteRecorder) DeleteJob(id string) error {
	d.deleted = append(d.deleted, id)
	return d.Store.DeleteJob(id)
}

// TestFinishClassifiesCancellation drives Job.finish the way the worker
// does after RunCampaign returns, across the error shapes the engine can
// produce. The regression cases: an error wrapping DeadlineExceeded, and a
// board-level error that stringifies the sentinel without wrapping it —
// both previously landed a deliberately-cancelled job in "failed".
func TestFinishClassifiesCancellation(t *testing.T) {
	cases := []struct {
		name      string
		err       error
		cancelCtx bool
		want      JobState
	}{
		{"success", nil, false, JobDone},
		{"plain sentinel", context.Canceled, true, JobCancelled},
		{"wrapped sentinel", fmt.Errorf("campaign: %w", context.Canceled), true, JobCancelled},
		{"wrapped deadline, live ctx", fmt.Errorf("engine: %w", context.DeadlineExceeded), false, JobCancelled},
		{"non-wrapping board error after cancel",
			fmt.Errorf("board 3: sweep aborted: %v", context.Canceled), true, JobCancelled},
		{"real failure", errors.New("bram row decoder latch-up"), false, JobFailed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			j := newTestTable(t, newStore(t), 0).Create("characterization", 0, nil)
			if !j.SetRunning() {
				t.Fatal("setRunning refused a queued job")
			}
			if tc.cancelCtx {
				j.cancel()
			}
			j.Finish(tc.err, nil)
			if got := j.status(false).State; got != tc.want {
				t.Fatalf("finish(%v) with ctx.Err()=%v classified %q, want %q",
					tc.err, j.ctx.Err(), got, tc.want)
			}
		})
	}
}

// TestEvictOnCompletion pins the other half of the retention bugfix: a
// table that filled past max with live jobs must shrink as soon as they
// finish, not wait for the next submission, and eviction reports the
// dropped ids (oldest first) in one pass.
func TestEvictOnCompletion(t *testing.T) {
	rec := &deleteRecorder{Store: newStore(t)}
	tbl := newTestTable(t, rec, 2)
	var jobs []*Job
	for i := 0; i < 4; i++ {
		jobs = append(jobs, tbl.Create("characterization", 0, nil))
	}
	// All four are live: over max, but nothing may be evicted.
	if got := len(tbl.list()); got != 4 {
		t.Fatalf("table holds %d live jobs, want 4", got)
	}
	for _, j := range jobs {
		j.SetRunning()
		j.Finish(nil, nil)
	}
	evicted := rec.deleted
	if got := tbl.list(); len(got) != 2 ||
		got[0].ID != jobs[2].id || got[1].ID != jobs[3].id {
		t.Fatalf("after completions table lists %+v, want the newest two", got)
	}
	if len(evicted) != 2 || evicted[0] != jobs[0].id || evicted[1] != jobs[1].id {
		t.Fatalf("evictions reported %v, want oldest-first %v", evicted,
			[]string{jobs[0].id, jobs[1].id})
	}
}

// TestFirehoseSequencingAndWindow covers the multiplexer in isolation:
// global sequences are dense and monotonic, since() resumes mid-stream, a
// cursor below the window reports !ok (the handler pages the journal), and
// startAfter() continues the numbering after a (simulated) restart.
func TestFirehoseSequencingAndWindow(t *testing.T) {
	fh := newFirehose(4)
	for i := 0; i < 6; i++ {
		ev := JobEvent{Seq: i, Job: "job-0001", Type: "start"}
		fh.append(&ev)
		if ev.GSeq != int64(i+1) {
			t.Fatalf("event %d stamped gseq %d, want %d", i, ev.GSeq, i+1)
		}
	}
	// The window holds the newest 4 (gseq 3..6); a cursor inside it
	// resumes exactly, one before it must be paged from the journal.
	evs, _, ok := fh.since(4)
	if !ok || len(evs) != 2 || evs[0].GSeq != 5 || evs[1].GSeq != 6 {
		t.Fatalf("since(4) = %+v, ok=%v", evs, ok)
	}
	if lw := fh.lowWater(); lw != 2 {
		t.Fatalf("lowWater = %d, want 2 (gseq 1..2 dropped)", lw)
	}
	if _, _, ok := fh.since(0); ok {
		t.Fatal("cursor below the window must report !ok")
	}
	if evs, _, ok := fh.since(2); !ok || len(evs) != 4 || evs[0].GSeq != 3 {
		t.Fatalf("window-edge cursor replayed %+v, ok=%v, want gseq 3..6", evs, ok)
	}
	if evs, _, ok := fh.since(99); !ok || len(evs) != 0 {
		t.Fatalf("future cursor replayed %+v, ok=%v", evs, ok)
	}

	// A fresh firehose resumed past journaled history continues the counter
	// and pages everything older from the journal.
	fh2 := newFirehose(16)
	fh2.startAfter(7)
	ev := JobEvent{Job: "job-0002", Type: "start"}
	fh2.append(&ev)
	if ev.GSeq != 8 {
		t.Fatalf("post-restart append stamped gseq %d, want 8", ev.GSeq)
	}
	if _, _, ok := fh2.since(2); ok {
		t.Fatal("pre-restart cursor must page from the journal, not the window")
	}
	if evs, _, ok := fh2.since(7); !ok || len(evs) != 1 || evs[0].GSeq != 8 {
		t.Fatalf("live-edge resume = %+v, ok=%v", evs, ok)
	}
}

// TestDecodeTruncationMarker pins the journal's handling of the store's
// synthetic Truncated records: they decode to a payload-free "truncated"
// event carrying the drop edge, and ordinary records around them still
// decode from their payloads.
func TestDecodeTruncationMarker(t *testing.T) {
	recs := []store.EventRecord{
		{Job: "job-0001", Seq: 9, GSeq: 42, Truncated: true},
		{Job: "job-0001", Seq: 10, GSeq: 43, Payload: []byte(`{"seq":10,"gseq":43,"job":"job-0001","type":"start"}`)},
	}
	evs := decodeEventRecords(recs)
	if len(evs) != 2 {
		t.Fatalf("decoded %d events, want 2", len(evs))
	}
	if evs[0].Type != "truncated" || evs[0].Seq != 9 || evs[0].GSeq != 42 || evs[0].Job != "job-0001" {
		t.Fatalf("marker decoded as %+v", evs[0])
	}
	if evs[1].Type != "start" || evs[1].Seq != 10 {
		t.Fatalf("event after marker decoded as %+v", evs[1])
	}
}
