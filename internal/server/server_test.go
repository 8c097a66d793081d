package server_test

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/store"
)

// newService boots a server over the given store and returns a typed client
// bound to an httptest listener. Shutdown runs in cleanup.
func newService(t *testing.T, st store.Store, cfg server.Config) (*server.Server, *server.Client) {
	t.Helper()
	cfg.Store = st
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		ts.Close()
	})
	return srv, server.NewClient(ts.URL, ts.Client())
}

// newStore opens a Disk store in a fresh temp dir. It closes in cleanup,
// after any service registered later has shut down.
func newStore(t testing.TB) *store.Disk {
	t.Helper()
	st, err := store.OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// smallCampaign is a fast 2-board characterization request.
func smallCampaign() server.CampaignRequest {
	return server.CampaignRequest{
		Kind: "characterization",
		Boards: []server.BoardSpec{
			{Platform: "VC707", Replicas: 1, BRAMs: 24},
			{Platform: "KC705-B", Replicas: 1, BRAMs: 24},
		},
		Runs: 3,
	}
}

func TestSubmitStreamAndQuery(t *testing.T) {
	st := newStore(t)
	_, client := newService(t, st, server.Config{Workers: 1, FleetWorkers: 2})
	ctx := context.Background()

	job, err := client.Submit(ctx, smallCampaign())
	if err != nil {
		t.Fatal(err)
	}
	if job.ID == "" || job.State.Terminal() {
		t.Fatalf("submit returned %+v", job)
	}
	if job.Boards != 2 || job.Kind != "characterization" {
		t.Fatalf("submit echoed %+v", job)
	}

	// Stream to completion, checking SSE framing invariants.
	var events []server.JobEvent
	final, err := client.Wait(ctx, job.ID, func(ev server.JobEvent) error {
		events = append(events, ev)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if final.State != server.JobDone {
		t.Fatalf("job finished %q (%s), want done", final.State, final.Error)
	}
	if final.Progress != 100 {
		t.Fatalf("final progress %.2f, want 100", final.Progress)
	}
	if final.Aggregate == nil || final.Aggregate.Completed != 2 {
		t.Fatalf("final aggregate %+v", final.Aggregate)
	}
	if len(final.BoardResults) != 2 {
		t.Fatalf("board results %+v", final.BoardResults)
	}
	for _, br := range final.BoardResults {
		if br.FaultsPerMbit <= 0 || br.VminV < br.VcrashV {
			t.Fatalf("implausible board row %+v", br)
		}
	}

	assertEventStream(t, events, 2)

	// The store now answers queries — including for the exact serial.
	fvms, err := client.FVMs(ctx, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(fvms) != 2 {
		t.Fatalf("stored %d FVMs, want 2", len(fvms))
	}
	byPlatform, err := client.FVMs(ctx, "VC707", "")
	if err != nil || len(byPlatform) != 1 {
		t.Fatalf("platform filter returned %d (%v), want 1", len(byPlatform), err)
	}
	if byPlatform[0].Sites != 24 {
		t.Fatalf("FVM has %d sites, want the scaled 24", byPlatform[0].Sites)
	}
	m, err := client.FVM(ctx, byPlatform[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if m.Platform != "VC707" || len(m.Counts) != 24 {
		t.Fatalf("full FVM came back %s with %d counts", m.Platform, len(m.Counts))
	}
	vmins, err := client.Vmin(ctx, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(vmins) != 2 {
		t.Fatalf("vmin listed %d boards, want 2", len(vmins))
	}
	for _, v := range vmins {
		if v.VminV < v.VcrashV || v.VminV <= 0 {
			t.Fatalf("implausible window %+v", v)
		}
	}

	// The jobs index includes the finished job.
	jobs, err := client.Jobs(ctx)
	if err != nil || len(jobs) != 1 || jobs[0].ID != job.ID {
		t.Fatalf("job listing %+v (%v)", jobs, err)
	}
}

// assertEventStream checks ordering: seq strictly increasing from 0,
// progress non-decreasing, every board starts before it finishes, and the
// terminal campaign event is last.
func assertEventStream(t *testing.T, events []server.JobEvent, boards int) {
	t.Helper()
	if len(events) == 0 {
		t.Fatal("no events streamed")
	}
	started := map[int]bool{}
	dones := 0
	lastProgress := -1.0
	for i, ev := range events {
		if ev.Seq != i {
			t.Fatalf("event %d carries seq %d: %+v", i, ev.Seq, ev)
		}
		if ev.Progress < lastProgress {
			t.Fatalf("progress went backwards at seq %d: %.2f after %.2f", i, ev.Progress, lastProgress)
		}
		lastProgress = ev.Progress
		switch ev.Type {
		case "start":
			started[ev.Board] = true
		case "done":
			if !started[ev.Board] {
				t.Fatalf("board %d finished before starting", ev.Board)
			}
			dones++
		case "failed":
			t.Fatalf("unexpected failure event %+v", ev)
		case "campaign":
			if i != len(events)-1 {
				t.Fatalf("terminal event at %d of %d", i, len(events)-1)
			}
		default:
			t.Fatalf("unknown event type %q", ev.Type)
		}
	}
	if dones != boards {
		t.Fatalf("%d done events, want %d", dones, boards)
	}
	if last := events[len(events)-1]; last.Type != "campaign" || last.Progress != 100 {
		t.Fatalf("terminal event %+v", last)
	}
}

func TestSSEReplayAfterCompletion(t *testing.T) {
	_, client := newService(t, newStore(t), server.Config{Workers: 1})
	ctx := context.Background()
	job, err := client.Submit(ctx, smallCampaign())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Wait(ctx, job.ID, nil); err != nil {
		t.Fatal(err)
	}
	// A late subscriber replays the full history and still terminates.
	var events []server.JobEvent
	if err := client.Events(ctx, job.ID, func(ev server.JobEvent) error {
		events = append(events, ev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	assertEventStream(t, events, 2)
}

func TestCancelMidCampaign(t *testing.T) {
	_, client := newService(t, newStore(t), server.Config{Workers: 1, FleetWorkers: 2})
	ctx := context.Background()
	// Big enough that it cannot finish before the cancel lands.
	job, err := client.Submit(ctx, server.CampaignRequest{
		Kind: "characterization",
		Boards: []server.BoardSpec{
			{Platform: "VC707", Replicas: 4, BRAMs: 400},
			{Platform: "KC705-A", Replicas: 4, BRAMs: 400},
		},
		Runs: 300,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Wait for the first board to start, then cancel over the API.
	streamErr := make(chan error, 1)
	sawStart := make(chan struct{})
	var once sync.Once
	var events []server.JobEvent
	var evMu sync.Mutex
	go func() {
		streamErr <- client.Events(ctx, job.ID, func(ev server.JobEvent) error {
			evMu.Lock()
			events = append(events, ev)
			evMu.Unlock()
			if ev.Type == "start" {
				once.Do(func() { close(sawStart) })
			}
			return nil
		})
	}()
	select {
	case <-sawStart:
	case <-time.After(30 * time.Second):
		t.Fatal("campaign never started")
	}
	st, err := client.Cancel(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State.Terminal() && st.State != server.JobCancelled {
		t.Fatalf("cancel returned state %q", st.State)
	}

	// The stream terminates with a cancelled campaign event.
	select {
	case err := <-streamErr:
		if err != nil {
			t.Fatalf("stream ended with %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("stream did not terminate after cancellation")
	}
	evMu.Lock()
	last := events[len(events)-1]
	evMu.Unlock()
	if last.Type != "campaign" || last.State != server.JobCancelled {
		t.Fatalf("terminal event %+v, want cancelled campaign", last)
	}
	final, err := client.Job(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != server.JobCancelled {
		t.Fatalf("final state %q, want cancelled", final.State)
	}
	if final.Progress >= 100 {
		t.Fatalf("cancelled job reports %.1f%% complete", final.Progress)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	_, client := newService(t, newStore(t), server.Config{Workers: 1, QueueDepth: 4})
	ctx := context.Background()
	// Occupy the single worker...
	blocker, err := client.Submit(ctx, server.CampaignRequest{
		Kind:   "characterization",
		Boards: []server.BoardSpec{{Platform: "VC707", Replicas: 2, BRAMs: 300}},
		Runs:   200,
	})
	if err != nil {
		t.Fatal(err)
	}
	// ...so this one stays queued.
	queued, err := client.Submit(ctx, smallCampaign())
	if err != nil {
		t.Fatal(err)
	}
	st, err := client.Cancel(ctx, queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != server.JobCancelled {
		t.Fatalf("queued job cancelled to %q", st.State)
	}
	// Its stream is just the terminal event.
	var events []server.JobEvent
	if err := client.Events(ctx, queued.ID, func(ev server.JobEvent) error {
		events = append(events, ev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Type != "campaign" || events[0].State != server.JobCancelled {
		t.Fatalf("queued-cancel stream %+v", events)
	}
	if _, err := client.Cancel(ctx, blocker.ID); err != nil {
		t.Fatal(err)
	}
}

func TestValidationAndErrors(t *testing.T) {
	_, client := newService(t, newStore(t), server.Config{Workers: 1, MaxBoards: 4})
	ctx := context.Background()

	cases := []struct {
		name string
		req  server.CampaignRequest
		want int
	}{
		{"unknown kind", server.CampaignRequest{Kind: "mystery",
			Boards: []server.BoardSpec{{Platform: "VC707"}}}, 400},
		{"inference rejected", server.CampaignRequest{Kind: "nn-inference",
			Boards: []server.BoardSpec{{Platform: "VC707"}}}, 400},
		{"no boards", server.CampaignRequest{Kind: "characterization"}, 400},
		{"bad platform", server.CampaignRequest{Kind: "characterization",
			Boards: []server.BoardSpec{{Platform: "VC999"}}}, 400},
		{"too many boards", server.CampaignRequest{Kind: "characterization",
			Boards: []server.BoardSpec{{Platform: "VC707", Replicas: 5}}}, 400},
		{"huge replicas rejected before allocation", server.CampaignRequest{Kind: "characterization",
			Boards: []server.BoardSpec{{Platform: "VC707", Replicas: 2_000_000_000}}}, 400},
		{"bad pattern", server.CampaignRequest{Kind: "pattern-study",
			Boards:   []server.BoardSpec{{Platform: "VC707"}},
			Patterns: []string{"zzzz"}}, 400},
		{"runs out of range", server.CampaignRequest{Kind: "characterization",
			Boards: []server.BoardSpec{{Platform: "VC707"}}, Runs: 20000}, 400},
		{"temp ladder too long", server.CampaignRequest{Kind: "temperature-study",
			Boards: []server.BoardSpec{{Platform: "VC707"}},
			Temps:  make([]float64, 100000)}, 400},
		{"temp out of range", server.CampaignRequest{Kind: "temperature-study",
			Boards: []server.BoardSpec{{Platform: "VC707"}},
			Temps:  []float64{50, 900}}, 400},
		{"zero ladder temp", server.CampaignRequest{Kind: "temperature-study",
			Boards: []server.BoardSpec{{Platform: "VC707"}},
			Temps:  []float64{0, 50}}, 400},
		{"duplicate die", server.CampaignRequest{Kind: "characterization",
			Boards: []server.BoardSpec{
				{Platform: "VC707", Replicas: 2},
				{Platform: "VC707", Replicas: 1},
			}}, 400},
		{"probe runs out of range", server.CampaignRequest{Kind: "threshold-discovery",
			Boards: []server.BoardSpec{{Platform: "VC707"}}, ProbeRuns: 100000}, 400},
		{"too many patterns", server.CampaignRequest{Kind: "pattern-study",
			Boards:   []server.BoardSpec{{Platform: "VC707"}},
			Patterns: make([]string, 64)}, 400},
	}
	for _, tc := range cases {
		_, err := client.Submit(ctx, tc.req)
		var ae *server.APIStatusError
		if !errors.As(err, &ae) || ae.StatusCode != tc.want {
			t.Fatalf("%s: got %v, want HTTP %d", tc.name, err, tc.want)
		}
	}

	// Unknown job id → 404 on every job route.
	var ae *server.APIStatusError
	if _, err := client.Job(ctx, "job-9999"); !errors.As(err, &ae) || ae.StatusCode != 404 {
		t.Fatalf("unknown job returned %v", err)
	}
	if err := client.Events(ctx, "job-9999", nil); !errors.As(err, &ae) || ae.StatusCode != 404 {
		t.Fatalf("unknown job events returned %v", err)
	}
	if _, err := client.FVM(ctx, "feedfeed"); !errors.As(err, &ae) || ae.StatusCode != 404 {
		t.Fatalf("unknown fvm returned %v", err)
	}

	// Malformed JSON body → 400.
	resp, err := http.Post(baseURL(client)+"/v1/campaigns", "application/json",
		strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("malformed body answered %d", resp.StatusCode)
	}

	// A body over the 1 MB cap is refused for every kind but nn-inference
	// (the large cap exists solely for network words and test sets).
	huge := strings.NewReader(`{"kind":"` + strings.Repeat("x", 2<<20) + `"}`)
	resp2, err := http.Post(baseURL(client)+"/v1/campaigns", "application/json", huge)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body answered %d, want 413", resp2.StatusCode)
	}

	// Beyond the nn-inference cap the body is cut off regardless of kind.
	vast := strings.NewReader(`{"kind":"` + strings.Repeat("x", 49<<20) + `"}`)
	resp3, err := http.Post(baseURL(client)+"/v1/campaigns", "application/json", vast)
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	if resp3.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("vast body answered %d, want 413", resp3.StatusCode)
	}
}

func TestJobHistoryRetention(t *testing.T) {
	_, client := newService(t, newStore(t), server.Config{Workers: 1, MaxJobHistory: 2})
	ctx := context.Background()
	var ids []string
	for i := 0; i < 4; i++ {
		job, err := client.Submit(ctx, server.CampaignRequest{
			Kind:   "characterization",
			Boards: []server.BoardSpec{{Platform: "VC707", BRAMs: 24}},
			Runs:   2,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := client.Wait(ctx, job.ID, nil); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, job.ID)
	}
	jobs := mustJobs(t, client)
	if len(jobs) != 2 {
		t.Fatalf("table retains %d jobs, want 2: %+v", len(jobs), jobs)
	}
	if jobs[0].ID != ids[2] || jobs[1].ID != ids[3] {
		t.Fatalf("retained %s/%s, want the newest %s/%s", jobs[0].ID, jobs[1].ID, ids[2], ids[3])
	}
	// Evicted jobs 404; their FVMs survive in the store regardless.
	var ae *server.APIStatusError
	if _, err := client.Job(ctx, ids[0]); !errors.As(err, &ae) || ae.StatusCode != 404 {
		t.Fatalf("evicted job returned %v", err)
	}
	fvms, err := client.FVMs(ctx, "VC707", "")
	if err != nil || len(fvms) != 1 {
		t.Fatalf("store lost the evicted job's FVM: %d rows, %v", len(fvms), err)
	}
}

func TestSSEMalformedResumeCursor(t *testing.T) {
	_, client := newService(t, newStore(t), server.Config{Workers: 1})
	ctx := context.Background()
	job, err := client.Submit(ctx, smallCampaign())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Wait(ctx, job.ID, nil); err != nil {
		t.Fatal(err)
	}
	// Negative, garbage, mid-log, and beyond-the-log cursors must not break
	// the stream: invalid ones replay from the start, and every variant
	// still reaches the terminal event and closes (a beyond-log cursor
	// waiting forever would hang this read).
	for _, cursor := range []string{"-5", "nonsense", "2", "999"} {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet,
			baseURL(client)+"/v1/jobs/"+job.ID+"/events", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Last-Event-ID", cursor)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("cursor %q: %v", cursor, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("cursor %q answered %d (%v)", cursor, resp.StatusCode, err)
		}
		if !strings.Contains(string(body), "event: campaign") {
			t.Fatalf("cursor %q stream closed without the terminal event:\n%s", cursor, body)
		}
	}
	// A valid mid-stream cursor resumes after its sequence number.
	var first server.JobEvent
	got := false
	err = client.Events(ctx, job.ID, func(ev server.JobEvent) error {
		if !got {
			first, got = ev, true
		}
		return nil
	})
	if err != nil || !got || first.Seq != 0 {
		t.Fatalf("baseline replay: first=%+v err=%v", first, err)
	}
}

func TestQueueFullLeavesNoPhantomJob(t *testing.T) {
	_, client := newService(t, newStore(t), server.Config{Workers: 1, QueueDepth: 1})
	ctx := context.Background()
	// Sized to hold the worker busy for seconds even on the indexed
	// count-only read path; cancelled at the end of the test.
	long := server.CampaignRequest{
		Kind:   "characterization",
		Boards: []server.BoardSpec{{Platform: "VC707", Replicas: 2, BRAMs: 2060}},
		Runs:   10000,
	}
	running, err := client.Submit(ctx, long)
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, client, running.ID, server.JobRunning)
	if _, err := client.Submit(ctx, long); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Submit(ctx, long); err == nil {
		t.Fatal("overfull queue accepted a job")
	}
	// The rejected submission left nothing behind.
	jobs := mustJobs(t, client)
	if len(jobs) != 2 {
		t.Fatalf("listing shows %d jobs after a rejected submit, want 2: %+v", len(jobs), jobs)
	}
	for _, j := range jobs {
		client.Cancel(ctx, j.ID)
	}
}

func TestQueueFull(t *testing.T) {
	_, client := newService(t, newStore(t), server.Config{Workers: 1, QueueDepth: 1})
	ctx := context.Background()
	// Sized to hold the worker busy for seconds even on the indexed
	// count-only read path; cancelled at the end of the test.
	long := server.CampaignRequest{
		Kind:   "characterization",
		Boards: []server.BoardSpec{{Platform: "VC707", Replicas: 2, BRAMs: 2060}},
		Runs:   10000,
	}
	running, err := client.Submit(ctx, long)
	if err != nil {
		t.Fatal(err)
	}
	// Give the worker a moment to claim the first job, then fill the queue.
	waitForState(t, client, running.ID, server.JobRunning)
	if _, err := client.Submit(ctx, long); err != nil {
		t.Fatal(err)
	}
	_, err = client.Submit(ctx, long)
	var ae *server.APIStatusError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overfull queue answered %v, want 503", err)
	}
	// Unblock cleanup.
	for _, j := range mustJobs(t, client) {
		client.Cancel(ctx, j.ID)
	}
}

func TestGracefulShutdownDrains(t *testing.T) {
	st := newStore(t)
	srv, client := newService(t, st, server.Config{Workers: 1})
	ctx := context.Background()
	job, err := client.Submit(ctx, smallCampaign())
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, client, job.ID, server.JobRunning)

	sctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("graceful shutdown returned %v", err)
	}
	// The in-flight job drained to completion, and its results persisted.
	final, err := client.Job(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != server.JobDone {
		t.Fatalf("drained job finished %q, want done", final.State)
	}
	if metas, _ := st.List(); len(metas) != 2 {
		t.Fatalf("store holds %d records after drain, want 2", len(metas))
	}
	// New submissions are refused while/after draining.
	_, err = client.Submit(ctx, smallCampaign())
	var ae *server.APIStatusError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown submit answered %v, want 503", err)
	}
	// Health reports draining.
	resp, err := http.Get(baseURL(client) + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health struct {
		OK       bool `json:"ok"`
		Draining bool `json:"draining"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.OK || !health.Draining {
		t.Fatalf("health after shutdown: %+v", health)
	}
}

func TestForcedShutdownCancelsJobs(t *testing.T) {
	srv, client := newService(t, newStore(t), server.Config{Workers: 1})
	ctx := context.Background()
	job, err := client.Submit(ctx, server.CampaignRequest{
		Kind:   "characterization",
		Boards: []server.BoardSpec{{Platform: "VC707", Replicas: 4, BRAMs: 400}},
		Runs:   300,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, client, job.ID, server.JobRunning)

	// An already-expired context forces immediate cancellation.
	sctx, cancel := context.WithDeadline(ctx, time.Now().Add(-time.Second))
	defer cancel()
	start := time.Now()
	err = srv.Shutdown(sctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced shutdown returned %v", err)
	}
	if took := time.Since(start); took > 20*time.Second {
		t.Fatalf("forced shutdown took %v", took)
	}
	final, err := client.Job(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != server.JobCancelled {
		t.Fatalf("forced shutdown left job %q, want cancelled", final.State)
	}
}

func TestPatternAndThresholdCampaignsOverAPI(t *testing.T) {
	_, client := newService(t, newStore(t), server.Config{Workers: 2})
	ctx := context.Background()

	pat, err := client.Submit(ctx, server.CampaignRequest{
		Kind:     "pattern-study",
		Boards:   []server.BoardSpec{{Platform: "ZC702", BRAMs: 24}},
		Runs:     3,
		Patterns: []string{"ffff", "0000", "random"},
	})
	if err != nil {
		t.Fatal(err)
	}
	th, err := client.Submit(ctx, server.CampaignRequest{
		Kind:   "threshold-discovery",
		Boards: []server.BoardSpec{{Platform: "ZC702", BRAMs: 24}},
	})
	if err != nil {
		t.Fatal(err)
	}
	patFinal, err := client.Wait(ctx, pat.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if patFinal.State != server.JobDone || patFinal.Aggregate.Completed != 1 {
		t.Fatalf("pattern job %+v", patFinal)
	}
	// Per-fill rows ride the status, and an explicit "0000" measures the
	// all-zeros fill — not the 0xFFFF default that Pattern==0 would mean.
	rows := patFinal.BoardResults[0].Patterns
	if len(rows) != 3 || rows[0].Name != "16'hFFFF" || rows[1].Name != "16'h0000" || rows[2].Name != "random-50%" {
		t.Fatalf("pattern rows %+v", rows)
	}
	if rows[1].FaultsPerMbit >= rows[0].FaultsPerMbit {
		t.Fatalf("all-zeros fill (%f) should fault far less than all-ones (%f)",
			rows[1].FaultsPerMbit, rows[0].FaultsPerMbit)
	}
	thFinal, err := client.Wait(ctx, th.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if thFinal.State != server.JobDone {
		t.Fatalf("threshold job %+v", thFinal)
	}
	// The threshold job's board rows carry the discovered window.
	if len(thFinal.BoardResults) != 1 || thFinal.BoardResults[0].VminV <= thFinal.BoardResults[0].VcrashV {
		t.Fatalf("threshold rows %+v", thFinal.BoardResults)
	}
}

// TestSampleFromStatusInvertsBoardRows runs every campaign kind on one
// daemon and folds the inverse of its served board rows with the engine's
// own aggregation: the result must equal the aggregate the daemon computed
// from the engine results. A federation coordinator folds exactly these
// rows, so a kind whose projection and inverse disagree would quietly
// diverge between one daemon and many.
func TestSampleFromStatusInvertsBoardRows(t *testing.T) {
	q, xs, ys := trainedInferenceFixture(t)
	nnReq, err := server.NewInferenceRequest(inferenceBoards(), q, xs, ys, 0)
	if err != nil {
		t.Fatal(err)
	}
	boards := []server.BoardSpec{{Platform: "ZC702", Replicas: 2, BRAMs: 24}}
	fixtures := map[engine.CampaignKind]server.CampaignRequest{
		engine.Characterization: {Kind: "characterization", Boards: boards, Runs: 3},
		engine.TemperatureStudy: {Kind: "temperature-study", Boards: boards, Runs: 3,
			Temperature: &server.TemperatureSpec{Temps: []float64{50, 70}}},
		engine.NNInference: nnReq,
		engine.KindPattern: {Kind: "pattern-study", Boards: boards, Runs: 3,
			Pattern: &server.PatternSpec{Fills: []string{"ffff", "0000"}}},
		engine.KindThresholds: {Kind: "threshold-discovery", Boards: boards},
		engine.KindMitigation: server.NewMitigationRequest(boards, server.MitigationSpec{}),
	}
	_, client := newService(t, newStore(t), server.Config{Workers: 2, FleetWorkers: 2})
	ctx := context.Background()
	for _, kind := range engine.Kinds() {
		req, ok := fixtures[kind]
		if !ok {
			t.Errorf("kind %s has no fixture: its board-row inverse is untested", kind)
			continue
		}
		job, err := client.Submit(ctx, req)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		final, err := client.Wait(ctx, job.ID, nil)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if final.State != server.JobDone || final.Aggregate == nil {
			t.Fatalf("%s job ended %q (%s)", kind, final.State, final.Error)
		}
		samples := make([]engine.BoardSample, len(final.BoardResults))
		for i, bs := range final.BoardResults {
			samples[i] = server.SampleFromStatus(final.Kind, bs)
		}
		if got := engine.AggregateSamples(samples); !reflect.DeepEqual(&got, final.Aggregate) {
			t.Errorf("%s: folding the served rows gives\n  %+v\nbut the daemon served\n  %+v", kind, got, *final.Aggregate)
		}
	}
}

// waitForState polls until the job reaches the state (or any terminal one).
func waitForState(t *testing.T, client *server.Client, id string, want server.JobState) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st, err := client.Job(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want || st.State.Terminal() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %q", id, want)
}

func mustJobs(t *testing.T, client *server.Client) []server.JobStatus {
	t.Helper()
	jobs, err := client.Jobs(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

// baseURL digs the test server URL back out of the client for raw requests.
func baseURL(c *server.Client) string { return c.BaseURL() }
