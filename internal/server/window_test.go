package server

import (
	"bufio"
	"context"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// TestWindowMatchesReference drives a window with a fixed-seed mix of
// appends, trims and reads against a reference that keeps every event.
// from(n) must return exactly the reference's suffix from n when n ≥ base
// (and not-ok below base), a trim must never drop an event numbered ≥ upto,
// and a trim whose upto is past the end must leave exactly min(total, keep)
// events.
func TestWindowMatchesReference(t *testing.T) {
	for _, keep := range []int{0, 1, 7, 64} {
		rng := rand.New(rand.NewPCG(16, uint64(keep)))
		const base0 = 5
		w := window{base: base0}
		var ref []JobEvent // every event ever appended; ref[i] is numbered base0+i
		for step := 0; step < 5000; step++ {
			switch op := rng.IntN(10); {
			case op < 5:
				for k := rng.IntN(4); k >= 0; k-- {
					ev := JobEvent{Seq: int(w.end()), GSeq: w.end(), Type: "level"}
					w.evs = append(w.evs, ev)
					ref = append(ref, ev)
				}
			case op < 8:
				oldBase, end := w.base, w.end()
				upto := int64(math.MaxInt64)
				if rng.IntN(2) == 0 {
					upto = oldBase - 2 + rng.Int64N(end-oldBase+5)
				}
				w.trim(keep, upto)
				if want := max(oldBase, min(end-int64(keep), upto)); w.base != want {
					t.Fatalf("keep %d: trim(upto %d) over [%d,%d) left base %d, want %d",
						keep, upto, oldBase, end, w.base, want)
				}
				if w.base > max(oldBase, upto) {
					t.Fatalf("keep %d: trim dropped events at or above upto %d (base %d)", keep, upto, w.base)
				}
				if total := len(ref); upto >= end && len(w.evs) != min(total, keep) {
					t.Fatalf("keep %d: trim past the end holds %d events, want min(%d, %d)",
						keep, len(w.evs), total, keep)
				}
			default:
				n := base0 - 2 + rng.Int64N(int64(len(ref))+5)
				got, ok := w.from(n)
				if n < w.base {
					if ok || got != nil {
						t.Fatalf("keep %d: from(%d) below base %d = %d events, ok=%v", keep, n, w.base, len(got), ok)
					}
					continue
				}
				var want []JobEvent
				if i := n - base0; i < int64(len(ref)) {
					want = ref[i:]
				}
				if !ok || len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
					t.Fatalf("keep %d: from(%d) = %d events, ok=%v; want the reference's %d",
						keep, n, len(got), ok, len(want))
				}
				// A copy: scribbling on it must not reach the window (the
				// next reads compare against the untouched reference).
				for i := range got {
					got[i].Type = "scribbled"
				}
			}
		}
	}
}

// TestWindowFullAppendAllocs bounds what one append to a full firehose
// allocates: trimming reslices instead of copying the surviving window, so
// the per-append cost is the amortized growth of the backing array, not a
// copy of all of it.
func TestWindowFullAppendAllocs(t *testing.T) {
	const size = 4096
	fh := newFirehose(size)
	for i := 0; i < size; i++ {
		ev := JobEvent{Job: "job-0001", Type: "level"}
		fh.append(&ev)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < size; i++ {
		ev := JobEvent{Job: "job-0001", Type: "level"}
		fh.append(&ev)
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / size
	t.Logf("%d B allocated per append", per)
	if limit := 16 * uint64(unsafe.Sizeof(JobEvent{})); per >= limit {
		t.Fatalf("append to a full %d-event firehose allocates %d B, want < %d B", size, per, limit)
	}
	if lw := fh.lowWater(); lw != size {
		t.Fatalf("lowWater after %d appends = %d, want %d", 2*size, lw, size)
	}
	if evs, _, ok := fh.since(size); !ok || len(evs) != size {
		t.Fatalf("window after %d appends holds %d events (ok=%v), want %d", 2*size, len(evs), ok, size)
	}
}

// TestDeepResumeOfIdleRunningJob resumes a running job's stream from Seq 0
// while the job emits nothing new. Its history lies below the in-memory
// tail, so it comes from the journal page by page; each page must follow
// the last at once instead of waiting for the job's next event or the next
// keepalive.
func TestDeepResumeOfIdleRunningJob(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tbl, err := NewJobTable(ctx, Config{Store: newStore(t), JobEventWindow: 4}, "job", "restarted")
	if err != nil {
		t.Fatal(err)
	}
	j := tbl.Create("characterization", 0, nil)
	j.SetRunning()
	const n = 3 * ssePageSize / 2
	for i := 0; i < n; i++ {
		j.Append(JobEvent{Type: "level"})
	}
	mux := http.NewServeMux()
	tbl.Routes(mux, "")
	srv := httptest.NewServer(mux)
	defer srv.Close()

	rctx, rcancel := context.WithTimeout(ctx, 5*time.Second)
	defer rcancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, srv.URL+"/v1/jobs/"+j.id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got := 0
	for sc := bufio.NewScanner(resp.Body); got < n && sc.Scan(); {
		if strings.HasPrefix(sc.Text(), "id: ") {
			got++
		}
	}
	if got != n {
		t.Fatalf("idle running job streamed %d of its %d journaled events before the deadline", got, n)
	}
	j.Finish(nil, nil)
}
