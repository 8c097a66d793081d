package fed_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/fed"
	"repro/internal/server"
	"repro/internal/store"
)

// flakyDaemon fronts a real daemon with a reverse proxy whose probe switch
// can sever exactly N /healthz requests at the TCP level — a dropped probe,
// indistinguishable from a momentarily dead daemon — while every other
// request (submits, SSE streams) passes through untouched.
func flakyDaemon(t *testing.T, cfg server.Config) (proxyURL string, dropProbes *atomic.Int32) {
	t.Helper()
	d := newDaemon(t, cfg)
	target, err := url.Parse(d.URL)
	if err != nil {
		t.Fatal(err)
	}
	rp := httputil.NewSingleHostReverseProxy(target)
	rp.FlushInterval = -1 // SSE passes through unbuffered
	var drops atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" && drops.Add(-1) >= 0 {
			// Sever without an HTTP response: the coordinator sees a
			// transport failure, the same shape a dead daemon produces.
			if hj, ok := w.(http.Hijacker); ok {
				if conn, _, err := hj.Hijack(); err == nil {
					conn.Close()
					return
				}
			}
			panic(http.ErrAbortHandler)
		}
		rp.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts.URL, &drops
}

// coordinatorHealth decodes the coordinator's /healthz daemon table.
func coordinatorHealth(t *testing.T, fc *server.Client) map[string]struct {
	Healthy bool
	Breaker string
} {
	t.Helper()
	resp, err := http.Get(fc.BaseURL() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Daemons []struct {
			URL     string `json:"url"`
			Healthy bool   `json:"healthy"`
			Breaker string `json:"breaker"`
		} `json:"daemons"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]struct {
		Healthy bool
		Breaker string
	})
	for _, d := range body.Daemons {
		out[d.URL] = struct {
			Healthy bool
			Breaker string
		}{d.Healthy, d.Breaker}
	}
	return out
}

// TestSingleProbeFailureDoesNotFlap is the probe-flapping regression: a
// daemon that fails exactly one health probe must stay in rotation — breaker
// closed, no shard retried off it, the campaign untouched.
func TestSingleProbeFailureDoesNotFlap(t *testing.T) {
	ctx := context.Background()
	d1 := newDaemon(t, server.Config{})
	flakyURL, drops := flakyDaemon(t, server.Config{})
	_, fc := newFed(t, fed.Config{
		Downstreams: []string{d1.URL, flakyURL},
		HealthEvery: 20 * time.Millisecond,
		HealthFailN: 3,
		HealthOkN:   2,
	})

	// Let the probe loop establish a baseline, then drop exactly one probe
	// and give the loop several more cycles to (wrongly) react.
	time.Sleep(100 * time.Millisecond)
	drops.Store(1)
	deadline := time.Now().Add(2 * time.Second)
	for drops.Load() >= 0 {
		if time.Now().After(deadline) {
			t.Fatal("probe loop never hit the flaky daemon")
		}
		time.Sleep(10 * time.Millisecond)
	}
	time.Sleep(150 * time.Millisecond)

	for u, h := range coordinatorHealth(t, fc) {
		if !h.Healthy || h.Breaker != "closed" {
			t.Fatalf("daemon %s is %q/healthy=%v after a single dropped probe, want closed/healthy", u, h.Breaker, h.Healthy)
		}
	}

	// And the control plane behaves: a campaign submitted now runs with no
	// failover at all.
	final, err := func() (server.JobStatus, error) {
		job, err := fc.Submit(ctx, fleetCampaign())
		if err != nil {
			return server.JobStatus{}, err
		}
		return fc.Wait(ctx, job.ID, nil)
	}()
	if err != nil {
		t.Fatal(err)
	}
	if final.State != server.JobDone {
		t.Fatalf("campaign ended %q (%s)", final.State, final.Error)
	}
	if len(final.Retries) != 0 {
		t.Fatalf("single dropped probe caused %d shard retries: %+v", len(final.Retries), final.Retries)
	}
}

// TestPartialUnionOnDaemonDeath kills one of two daemons and requires fleet
// queries to degrade, not fail: the surviving union comes back with
// partial=true and the dead daemon on the missing list.
func TestPartialUnionOnDaemonDeath(t *testing.T) {
	ctx := context.Background()
	d1 := newDaemon(t, server.Config{})
	d2 := newDaemon(t, server.Config{})
	_, fc := newFed(t, fed.Config{Downstreams: []string{d1.URL, d2.URL}})

	job, err := fc.Submit(ctx, fleetCampaign())
	if err != nil {
		t.Fatal(err)
	}
	if final, err := fc.Wait(ctx, job.ID, nil); err != nil || final.State != server.JobDone {
		t.Fatalf("seed campaign: state=%v err=%v", final.State, err)
	}

	// Whole fleet up: the union is complete and not marked partial.
	full, err := fc.FVMList(ctx, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if full.Partial || len(full.Missing) != 0 {
		t.Fatalf("healthy federation answered partial=%v missing=%v", full.Partial, full.Missing)
	}
	if len(full.FVMs) != 6 {
		t.Fatalf("full union has %d records, want 6", len(full.FVMs))
	}

	d2.kill()

	fvms, err := fc.FVMList(ctx, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if !fvms.Partial {
		t.Fatal("union with a dead daemon not marked partial")
	}
	if len(fvms.Missing) != 1 || fvms.Missing[0] != d2.URL {
		t.Fatalf("missing=%v, want [%s]", fvms.Missing, d2.URL)
	}

	vmins, err := fc.VminList(ctx, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if !vmins.Partial || len(vmins.Missing) != 1 || vmins.Missing[0] != d2.URL {
		t.Fatalf("vmin union partial=%v missing=%v, want partial with [%s]", vmins.Partial, vmins.Missing, d2.URL)
	}
}

// TestChaosFederationCompletes runs a federated campaign with every
// coordinator→daemon request routed through the deterministic chaos
// transport — injected resets, 503s, latency, and torn SSE streams — and
// requires the control plane to absorb all of it: the job completes, every
// board succeeds, and the merged stream stays dense.
func TestChaosFederationCompletes(t *testing.T) {
	ctx := context.Background()
	var urls []string
	for i := 0; i < 3; i++ {
		urls = append(urls, newDaemon(t, server.Config{}).URL)
	}
	ct := chaos.New(20260808, nil)
	_, fc := newFed(t, fed.Config{
		Downstreams:   urls,
		ChunkBoards:   1, // one board per downstream job: maximal exposure
		RetryLimit:    8,
		StreamRetries: 8,
		HTTPClient:    &http.Client{Transport: ct},
	})

	job, err := fc.Submit(ctx, fleetCampaign())
	if err != nil {
		t.Fatal(err)
	}
	final, err := fc.Wait(ctx, job.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != server.JobDone {
		t.Fatalf("campaign under chaos ended %q (%s)", final.State, final.Error)
	}
	for _, bs := range final.BoardResults {
		if bs.Error != "" {
			t.Fatalf("board %d failed under chaos: %s", bs.Board, bs.Error)
		}
	}
	if final.Aggregate == nil || final.Aggregate.Completed != 6 {
		t.Fatalf("aggregate %+v, want 6 completed", final.Aggregate)
	}

	// Zero-drop gate: the coordinator's own stream is dense from 0 and ends
	// with the one terminal event, no matter what chaos did downstream.
	var evs []server.JobEvent
	if err := fc.Events(ctx, job.ID, func(ev server.JobEvent) error {
		evs = append(evs, ev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, ev := range evs {
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d: chaos tore a hole in the stream", i, ev.Seq)
		}
	}
	if last := evs[len(evs)-1]; last.Type != "campaign" || last.State != server.JobDone {
		t.Fatalf("stream ends with %q/%q, want the terminal campaign event", last.Type, last.State)
	}
	if ct.Requests() == 0 {
		t.Fatal("chaos transport saw no traffic; the test exercised nothing")
	}
}

// failingStore wraps a Store with a switch that makes every journal append
// fail — the disk dying mid-campaign, without the disk.
type failingStore struct {
	store.Store
	fail atomic.Bool
}

func (f *failingStore) AppendJobEvents(id string, evs []store.EventRecord) error {
	if f.fail.Load() {
		return errInjectedDisk
	}
	return f.Store.AppendJobEvents(id, evs)
}

var errInjectedDisk = &injectedDiskError{}

type injectedDiskError struct{}

func (*injectedDiskError) Error() string { return "injected: journal device failed" }

// TestCoordinatorJournalDegraded fails every coordinator journal append
// mid-campaign and requires graceful degradation: the job still completes,
// the live stream carries exactly one journal_degraded marker, and /healthz
// counts the journal errors.
func TestCoordinatorJournalDegraded(t *testing.T) {
	ctx := context.Background()
	d1 := newDaemon(t, server.Config{})
	fs := &failingStore{Store: newStore(t)}
	_, fc := newFed(t, fed.Config{Downstreams: []string{d1.URL}, Store: fs})

	job, err := fc.Submit(ctx, fleetCampaign())
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var evs []server.JobEvent
	final, err := fc.Wait(ctx, job.ID, func(ev server.JobEvent) error {
		mu.Lock()
		evs = append(evs, ev)
		mu.Unlock()
		// The disk "dies" as soon as the campaign shows life.
		if ev.Type == "start" {
			fs.fail.Store(true)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if final.State != server.JobDone {
		t.Fatalf("campaign with a dead journal ended %q (%s), want done", final.State, final.Error)
	}

	degraded := 0
	mu.Lock()
	for i, ev := range evs {
		if ev.Seq != i {
			t.Fatalf("live event %d has seq %d: the marker must not break density", i, ev.Seq)
		}
		if ev.Type == "journal_degraded" {
			degraded++
			if ev.Error == "" {
				t.Fatal("journal_degraded event carries no explanation")
			}
		}
	}
	mu.Unlock()
	if degraded != 1 {
		t.Fatalf("saw %d journal_degraded markers, want exactly 1", degraded)
	}

	resp, err := http.Get(fc.BaseURL() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hz struct {
		JournalErrors int64 `json:"journal_errors"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if hz.JournalErrors == 0 {
		t.Fatal("journal writes failed but /healthz journal_errors is 0")
	}
}
