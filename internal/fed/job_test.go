package fed

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/store"
)

// seqRecorder is a store.Store decorator that notes every event handed to
// AppendJobEvents whose Seq does not exceed the previous one of its job.
type seqRecorder struct {
	store.Store
	mu       sync.Mutex
	last     map[string]int
	disorder []string
}

func (r *seqRecorder) AppendJobEvents(id string, evs []store.EventRecord) error {
	r.mu.Lock()
	for _, ev := range evs {
		if last, ok := r.last[id]; ok && ev.Seq <= last {
			r.disorder = append(r.disorder, fmt.Sprintf("%s: seq %d appended after %d", id, ev.Seq, last))
		}
		r.last[id] = ev.Seq
	}
	r.mu.Unlock()
	return r.Store.AppendJobEvents(id, evs)
}

// TestConcurrentAppendOrdered appends to one coordinator job from several
// goroutines, the way the per-daemon chunk runners re-stamp downstream
// events, while two SSE readers stream it and finished jobs churn through
// a two-entry table. Every stream must be dense from Seq 0, and the journal
// must receive each job's events in ascending Seq order: an event written
// after a higher Seq of its job leaves, if the process dies in between, a
// gap no truncated marker explains.
func TestConcurrentAppendOrdered(t *testing.T) {
	ctx := context.Background()
	disk, err := store.OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { disk.Close() })
	rec := &seqRecorder{Store: disk, last: map[string]int{}}
	c, err := New(Config{
		Downstreams:   []string{"http://127.0.0.1:1"}, // never called: no job is scheduled
		Store:         rec,
		MaxJobHistory: 2,
		HealthEvery:   time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(func() {
		ts.CloseClientConnections()
		c.Shutdown(ctx)
		ts.Close()
	})
	client := server.NewClient(ts.URL, ts.Client())

	const runners, boards = 3, 40
	j := newFedJob(server.CampaignRequest{Kind: "characterization"}, make([]server.BoardSpec, runners*boards))
	j.job = c.jobs.Create("characterization", runners*boards, j.detail)
	w := httptest.NewRecorder()
	j.job.Accepted(w)
	var st server.JobStatus
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	j.job.SetRunning()
	j.job.Append(server.JobEvent{Type: "start"})

	// Both readers hold the first event before any runner starts, so each
	// sees the whole concurrent stretch live.
	var readers sync.WaitGroup
	attached := make(chan struct{}, 2)
	errc := make(chan error, 2)
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			next := 0
			errc <- client.Events(ctx, st.ID, func(ev server.JobEvent) error {
				if ev.Seq != next {
					return fmt.Errorf("stream delivered seq %d, want %d", ev.Seq, next)
				}
				if next == 0 {
					attached <- struct{}{}
				}
				next++
				return nil
			})
		}()
	}
	<-attached
	<-attached

	var wg sync.WaitGroup
	for r := 0; r < runners; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for b := r * boards; b < (r+1)*boards; b++ {
				j.boardEvent(server.JobEvent{Type: "start"}, b)
				j.boardEvent(server.JobEvent{Type: "done"}, b)
			}
			j.noteRetry("http://a", "http://b", 1, "injected")
		}(r)
	}
	// Finished jobs pass through the two-entry table meanwhile, so
	// evictions (and their journal deletes) interleave with the appends.
	for i := 0; i < 10; i++ {
		other := c.jobs.Create("characterization", 1, nil)
		other.SetRunning()
		other.Append(server.JobEvent{Type: "start"})
		other.Finish(nil, nil)
	}
	wg.Wait()
	j.job.Finish(nil, nil)
	readers.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			t.Error(err)
		}
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.disorder) > 0 {
		t.Fatalf("journal appends out of Seq order: %v", rec.disorder)
	}
	if got, want := rec.last[st.ID], 1+runners*(2*boards+1); got != want {
		t.Fatalf("journal's last seq for %s is %d, want %d", st.ID, got, want)
	}
}
