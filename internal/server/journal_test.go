package server_test

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/store"
)

// countingStore wraps a Store and counts blob reads, so tests can prove a
// listing endpoint is served from the index alone.
type countingStore struct {
	store.Store
	blobReads atomic.Int64
}

func (c *countingStore) Get(k store.Key) (*store.Record, bool, error) {
	c.blobReads.Add(1)
	return c.Store.Get(k)
}

func (c *countingStore) GetID(id string) (*store.Record, bool, error) {
	c.blobReads.Add(1)
	return c.Store.GetID(id)
}

// errStopStream is the sentinel a test callback returns to end a firehose
// subscription on purpose.
var errStopStream = errors.New("stop stream")

// TestJournalRestartIntegration is the acceptance path end to end: two
// campaigns run (their events interleaving on the firehose), the daemon
// "restarts" (a second server over the same store), and the journal brings
// back the job listing, per-job SSE replay from a saved Last-Event-ID, a
// firehose cursor that resumes across the restart, and FVM listings served
// without a single blob read.
func TestJournalRestartIntegration(t *testing.T) {
	mem := newStore(t)
	cs := &countingStore{Store: mem}
	srv1, client1 := newService(t, cs, server.Config{Workers: 2, FleetWorkers: 2})
	ctx := context.Background()

	// Two campaigns on two workers, so their events race onto the firehose.
	reqA := server.CampaignRequest{
		Kind:   "characterization",
		Boards: []server.BoardSpec{{Platform: "VC707", Replicas: 2, BRAMs: 24}},
		Runs:   3,
	}
	reqB := server.CampaignRequest{
		Kind:   "characterization",
		Boards: []server.BoardSpec{{Platform: "KC705-B", Replicas: 2, BRAMs: 24}},
		Runs:   3,
	}
	// Subscribe to the firehose before submitting, so nothing is missed.
	type fhResult struct {
		evs []server.JobEvent
		err error
	}
	fhc := make(chan fhResult, 1)
	go func() {
		var evs []server.JobEvent
		terminals := 0
		err := client1.Firehose(ctx, 0, func(ev server.JobEvent) error {
			evs = append(evs, ev)
			if ev.Type == "campaign" {
				if terminals++; terminals == 2 {
					return errStopStream
				}
			}
			return nil
		})
		fhc <- fhResult{evs, err}
	}()

	jobA, err := client1.Submit(ctx, reqA)
	if err != nil {
		t.Fatal(err)
	}
	jobB, err := client1.Submit(ctx, reqB)
	if err != nil {
		t.Fatal(err)
	}
	var eventsA []server.JobEvent
	if _, err := client1.Wait(ctx, jobA.ID, func(ev server.JobEvent) error {
		eventsA = append(eventsA, ev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := client1.Wait(ctx, jobB.ID, nil); err != nil {
		t.Fatal(err)
	}

	var fh fhResult
	select {
	case fh = <-fhc:
	case <-time.After(30 * time.Second):
		t.Fatal("firehose never delivered both terminal events")
	}
	if !errors.Is(fh.err, errStopStream) {
		t.Fatalf("firehose ended with %v", fh.err)
	}
	// The multiplexed stream carries both jobs, tagged, in strict global
	// order.
	seen := map[string]int{}
	var lastG int64
	for _, ev := range fh.evs {
		if ev.GSeq <= lastG {
			t.Fatalf("firehose gseq not strictly increasing: %d after %d", ev.GSeq, lastG)
		}
		lastG = ev.GSeq
		if ev.Job == "" {
			t.Fatalf("firehose event without a job tag: %+v", ev)
		}
		seen[ev.Job]++
	}
	if seen[jobA.ID] == 0 || seen[jobB.ID] == 0 {
		t.Fatalf("firehose carried %v, want events from both %s and %s", seen, jobA.ID, jobB.ID)
	}

	// --- Restart: a second server over the same store. ------------------
	sctx, scancel := context.WithTimeout(ctx, 30*time.Second)
	defer scancel()
	if err := srv1.Shutdown(sctx); err != nil {
		t.Fatal(err)
	}
	_, client2 := newService(t, cs, server.Config{Workers: 2})

	// The job listing survived, terminal states intact.
	jobs := mustJobs(t, client2)
	if len(jobs) != 2 {
		t.Fatalf("restarted listing has %d jobs, want 2: %+v", len(jobs), jobs)
	}
	for _, j := range jobs {
		if j.State != server.JobDone {
			t.Fatalf("replayed job %s in state %q, want done", j.ID, j.State)
		}
	}
	// Full detail — aggregate and per-board rows — rides the journal too.
	detail, err := client2.Job(ctx, jobA.ID)
	if err != nil {
		t.Fatal(err)
	}
	if detail.Aggregate == nil || detail.Aggregate.Completed != 2 || len(detail.BoardResults) != 2 {
		t.Fatalf("replayed detail lost results: %+v", detail)
	}

	// SSE replay from a cursor saved before the restart resumes exactly
	// where it left off.
	resumeAt := eventsA[1].Seq // pretend the client died after event 1
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		baseURL(client2)+"/v1/jobs/"+jobA.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", fmt.Sprint(resumeAt))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resumed := readSSEIDs(t, resp)
	if len(resumed) != len(eventsA)-(resumeAt+1) {
		t.Fatalf("resume replayed %d events, want %d", len(resumed), len(eventsA)-(resumeAt+1))
	}
	if len(resumed) == 0 || resumed[0] != resumeAt+1 {
		t.Fatalf("resume started at %v, want %d", resumed, resumeAt+1)
	}

	// A firehose cursor saved before the restart resumes across it: only
	// events newer than the cursor arrive, here from a brand-new job.
	afterG := lastG
	fhc2 := make(chan fhResult, 1)
	go func() {
		var evs []server.JobEvent
		err := client2.Firehose(ctx, afterG, func(ev server.JobEvent) error {
			evs = append(evs, ev)
			if ev.Type == "campaign" {
				return errStopStream
			}
			return nil
		})
		fhc2 <- fhResult{evs, err}
	}()
	jobC, err := client2.Submit(ctx, reqA) // cache-warm: runs fast
	if err != nil {
		t.Fatal(err)
	}
	select {
	case fh = <-fhc2:
	case <-time.After(30 * time.Second):
		t.Fatal("post-restart firehose never saw the new job finish")
	}
	if !errors.Is(fh.err, errStopStream) || len(fh.evs) == 0 {
		t.Fatalf("post-restart firehose: %d events, err %v", len(fh.evs), fh.err)
	}
	for _, ev := range fh.evs {
		if ev.GSeq <= afterG {
			t.Fatalf("resumed firehose replayed pre-cursor gseq %d (cursor %d)", ev.GSeq, afterG)
		}
		if ev.Job != jobC.ID {
			t.Fatalf("resumed firehose replayed an old job's event: %+v", ev)
		}
	}

	// Listings never touch blobs: summaries ride the index.
	if _, err := client2.Wait(ctx, jobC.ID, nil); err != nil {
		t.Fatal(err)
	}
	cs.blobReads.Store(0)
	fvms, err := client2.FVMs(ctx, "", "")
	if err != nil || len(fvms) != 4 {
		t.Fatalf("FVMs after restart: %d rows, %v", len(fvms), err)
	}
	vmins, err := client2.Vmin(ctx, "", "")
	if err != nil || len(vmins) != 4 {
		t.Fatalf("Vmin after restart: %d rows, %v", len(vmins), err)
	}
	if n := cs.blobReads.Load(); n != 0 {
		t.Fatalf("listings read %d blobs, want 0", n)
	}
	// The summaries carry real data, not zero values.
	for _, m := range fvms {
		if m.Sites != 24 || m.VFromV <= m.VToV {
			t.Fatalf("summary-served row implausible: %+v", m)
		}
	}
	for _, v := range vmins {
		if v.VminV <= 0 || v.VminV < v.VcrashV {
			t.Fatalf("summary-served window implausible: %+v", v)
		}
	}
}

// readSSEIDs drains an SSE response to EOF and returns the id: lines.
func readSSEIDs(t *testing.T, resp *http.Response) []int {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("SSE answered %d", resp.StatusCode)
	}
	var ids []int
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "id: ") {
			var id int
			if _, err := fmt.Sscanf(line, "id: %d", &id); err == nil {
				ids = append(ids, id)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return ids
}

// TestDeepResumeWithEvictedWindow is the acceptance test for journal-paged
// resume: the server keeps only a 4-event in-memory tail per job and a
// 4-event firehose window, a campaign emits far more than that, and every
// stream still replays completely — live, after the fact, and across a
// restart from cursor 1 — because anything older than the windows is paged
// out of the journal on demand.
func TestDeepResumeWithEvictedWindow(t *testing.T) {
	mem := newStore(t)
	cfg := server.Config{Workers: 1, JobEventWindow: 4, FirehoseBuffer: 4}
	srv1, client1 := newService(t, mem, cfg)
	ctx := context.Background()

	job, err := client1.Submit(ctx, server.CampaignRequest{
		Kind:   "characterization",
		Boards: []server.BoardSpec{{Platform: "VC707", Replicas: 6, BRAMs: 24}},
		Runs:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The live stream must deliver the whole log even though the server
	// trims its in-memory tail to 4 events as the journal absorbs them.
	var live []server.JobEvent
	if _, err := client1.Wait(ctx, job.ID, func(ev server.JobEvent) error {
		live = append(live, ev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(live) < 3*cfg.JobEventWindow {
		t.Fatalf("campaign emitted %d events; the test needs well past the %d-event window",
			len(live), cfg.JobEventWindow)
	}
	for i, ev := range live {
		if ev.Seq != i {
			t.Fatalf("live stream seq %d at position %d: trimmed tail lost an event", ev.Seq, i)
		}
	}
	lastG := live[len(live)-1].GSeq

	// After-the-fact full replay: the prefix is long gone from RAM.
	var replay []server.JobEvent
	if err := client1.Events(ctx, job.ID, func(ev server.JobEvent) error {
		replay = append(replay, ev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(replay) != len(live) {
		t.Fatalf("journal-paged replay returned %d events, want %d", len(replay), len(live))
	}
	// Mid-depth resume below the window.
	var resumed []server.JobEvent
	if err := client1.EventsFrom(ctx, job.ID, live[1].Seq, func(ev server.JobEvent) error {
		resumed = append(resumed, ev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(resumed) != len(live)-2 || resumed[0].Seq != 2 {
		t.Fatalf("deep resume from seq 1 replayed %d events starting at %d, want %d from 2",
			len(resumed), resumed[0].Seq, len(live)-2)
	}

	// --- Restart: the firehose window starts empty; the journal is the ---
	// --- only history either stream has. --------------------------------
	sctx, scancel := context.WithTimeout(ctx, 30*time.Second)
	defer scancel()
	if err := srv1.Shutdown(sctx); err != nil {
		t.Fatal(err)
	}
	_, client2 := newService(t, mem, cfg)

	// Firehose resume from cursor 1 — any depth means ANY depth.
	var fhEvs []server.JobEvent
	err = client2.Firehose(ctx, 1, func(ev server.JobEvent) error {
		fhEvs = append(fhEvs, ev)
		if ev.GSeq == lastG {
			return errStopStream
		}
		return nil
	})
	if !errors.Is(err, errStopStream) {
		t.Fatalf("restarted firehose resume ended with %v after %d events", err, len(fhEvs))
	}
	if int64(len(fhEvs)) != lastG-1 {
		t.Fatalf("firehose resume from cursor 1 replayed %d events, want %d", len(fhEvs), lastG-1)
	}
	for i, ev := range fhEvs {
		if ev.GSeq != int64(i)+2 {
			t.Fatalf("firehose resume gseq %d at position %d: journal paging skipped or duplicated", ev.GSeq, i)
		}
	}

	// Per-job replay across the restart: the restored job holds zero events
	// in memory, so the entire stream pages from the journal and still ends
	// on the terminal event.
	var again []server.JobEvent
	if err := client2.Events(ctx, job.ID, func(ev server.JobEvent) error {
		again = append(again, ev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(again) != len(live) {
		t.Fatalf("post-restart replay returned %d events, want %d", len(again), len(live))
	}
	for i, ev := range again {
		if ev.Seq != i {
			t.Fatalf("post-restart replay seq %d at position %d", ev.Seq, i)
		}
	}
}

// TestJournalReplaysInterruptedJobAsFailed boots a server over a journal
// holding a job that was still running when the previous process died: it
// must come back failed with a restart marker, its stream must terminate,
// and new submissions must not reuse its id.
func TestJournalReplaysInterruptedJobAsFailed(t *testing.T) {
	mem := newStore(t)
	payload := `{
		"status": {"id": "job-0001", "kind": "characterization", "state": "running",
		           "boards": 1, "progress": 40, "created": "2026-07-26T10:00:00Z"}
	}`
	if err := mem.PutJob(&store.JobRecord{ID: "job-0001", Seq: 1, Payload: []byte(payload)}); err != nil {
		t.Fatal(err)
	}
	if err := mem.AppendJobEvents("job-0001", []store.EventRecord{{Job: "job-0001", Seq: 0, GSeq: 1,
		Payload: []byte(`{"seq": 0, "gseq": 1, "job": "job-0001", "type": "start", "progress": 0}`)}}); err != nil {
		t.Fatal(err)
	}
	_, client := newService(t, mem, server.Config{Workers: 1})
	ctx := context.Background()

	st, err := client.Job(ctx, "job-0001")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != server.JobFailed || !strings.Contains(st.Error, "restarted") {
		t.Fatalf("interrupted job replayed as %q (%s), want failed with restart marker", st.State, st.Error)
	}
	// Its stream replays the journaled history plus the synthesized
	// terminal event — and closes.
	var events []server.JobEvent
	if err := client.Events(ctx, "job-0001", func(ev server.JobEvent) error {
		events = append(events, ev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[0].Type != "start" || events[1].Type != "campaign" ||
		events[1].State != server.JobFailed {
		t.Fatalf("interrupted job stream %+v", events)
	}
	// The marker event drew a fresh global sequence after the journaled one.
	if events[1].GSeq <= events[0].GSeq {
		t.Fatalf("marker gseq %d not after journaled %d", events[1].GSeq, events[0].GSeq)
	}
	// Id numbering continues past the replayed job.
	job, err := client.Submit(ctx, smallCampaign())
	if err != nil {
		t.Fatal(err)
	}
	if job.ID == "job-0001" {
		t.Fatal("new submission reused a replayed job id")
	}
	if _, err := client.Wait(ctx, job.ID, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSSEKeepaliveWhileQueued is the regression test for the silent-stream
// bug: a stream attached to a job stuck behind a full queue used to write
// nothing after the headers, so proxies severed it. Now a retry hint and
// periodic comment frames flow while the job waits.
func TestSSEKeepaliveWhileQueued(t *testing.T) {
	_, client := newService(t, newStore(t), server.Config{
		Workers: 1, SSEKeepAlive: 20 * time.Millisecond,
	})
	ctx := context.Background()
	// Occupy the single worker. Sized to stay busy for seconds even on the
	// indexed count-only read path (it is cancelled at the end of the test,
	// so the size costs nothing).
	blocker, err := client.Submit(ctx, server.CampaignRequest{
		Kind:   "characterization",
		Boards: []server.BoardSpec{{Platform: "VC707", Replicas: 2, BRAMs: 2060}},
		Runs:   10000,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, client, blocker.ID, server.JobRunning)
	// ...so this one queues and its stream has nothing to say.
	queued, err := client.Submit(ctx, smallCampaign())
	if err != nil {
		t.Fatal(err)
	}

	rctx, rcancel := context.WithTimeout(ctx, 20*time.Second)
	defer rcancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet,
		baseURL(client)+"/v1/jobs/"+queued.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sawRetry, keepalives, dataFrames := false, 0, 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "retry:"):
			sawRetry = true
		case strings.HasPrefix(line, ": keepalive"):
			keepalives++
		case strings.HasPrefix(line, "data:"):
			dataFrames++
		}
		if sawRetry && keepalives >= 3 {
			break
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream died before proving liveness (retry=%v keepalives=%d): %v",
			sawRetry, keepalives, err)
	}
	if !sawRetry || keepalives < 3 {
		t.Fatalf("idle stream sent retry=%v, %d keepalives", sawRetry, keepalives)
	}
	if dataFrames != 0 {
		t.Fatalf("queued job emitted %d data frames before starting", dataFrames)
	}
	rcancel()
	for _, id := range []string{queued.ID, blocker.ID} {
		if _, err := client.Cancel(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStoreGCAndAdminDelete covers the retention levers over the API: GC
// keeps the newest record per die after each job completes, and an admin
// DELETE removes a record from both the store and the in-memory cache (so
// a re-submitted campaign re-measures instead of resurrecting it).
func TestStoreGCAndAdminDelete(t *testing.T) {
	_, client := newService(t, newStore(t), server.Config{Workers: 1, GCKeep: 1})
	ctx := context.Background()
	submit := func(runs int) server.JobStatus {
		t.Helper()
		job, err := client.Submit(ctx, server.CampaignRequest{
			Kind:   "characterization",
			Boards: []server.BoardSpec{{Platform: "VC707", BRAMs: 24}},
			Runs:   runs,
		})
		if err != nil {
			t.Fatal(err)
		}
		final, err := client.Wait(ctx, job.ID, nil)
		if err != nil {
			t.Fatal(err)
		}
		if final.State != server.JobDone {
			t.Fatalf("job finished %q (%s)", final.State, final.Error)
		}
		return final
	}
	// Two different run counts mint two records for the same die; GC after
	// the second job keeps only the newest.
	submit(2)
	submit(3)
	fvms, err := client.FVMs(ctx, "", "")
	if err != nil || len(fvms) != 1 {
		t.Fatalf("GC left %d records (%v), want 1", len(fvms), err)
	}
	if fvms[0].Runs != 3 {
		t.Fatalf("GC kept runs=%d, want the newest (3)", fvms[0].Runs)
	}

	// Admin delete: record gone from the store...
	if err := client.DeleteFVM(ctx, fvms[0].ID); err != nil {
		t.Fatal(err)
	}
	var ae *server.APIStatusError
	if err := client.DeleteFVM(ctx, fvms[0].ID); !errors.As(err, &ae) || ae.StatusCode != 404 {
		t.Fatalf("double delete answered %v, want 404", err)
	}
	if fvms, _ := client.FVMs(ctx, "", ""); len(fvms) != 0 {
		t.Fatalf("deleted record still listed: %+v", fvms)
	}
	// ...and from the cache: the same campaign re-measures rather than
	// answering from RAM.
	final := submit(3)
	if final.Aggregate.CacheHits != 0 {
		t.Fatalf("deleted record served %d cache hits", final.Aggregate.CacheHits)
	}
	if fvms, _ := client.FVMs(ctx, "", ""); len(fvms) != 1 {
		t.Fatalf("re-measured record not stored: %+v", fvms)
	}
}
