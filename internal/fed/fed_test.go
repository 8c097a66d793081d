package fed_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/fed"
	"repro/internal/server"
	"repro/internal/store"
)

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

// daemon is one downstream fpgavoltd under test, with a kill switch that
// simulates process death: the listener closes (new connections refused,
// health probes included) and every live connection — SSE streams
// included — is severed.
type daemon struct {
	URL string
	ts  *httptest.Server
}

func newDaemon(t *testing.T, cfg server.Config) *daemon {
	t.Helper()
	if cfg.Store == nil {
		cfg.Store = newStore(t)
	}
	if cfg.Workers == 0 {
		cfg.Workers = 1
	}
	if cfg.FleetWorkers == 0 {
		cfg.FleetWorkers = 2
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.CloseClientConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return &daemon{URL: ts.URL, ts: ts}
}

func (d *daemon) kill() {
	d.ts.Listener.Close()
	d.ts.CloseClientConnections()
}

// newFed boots a coordinator over the daemons and returns a client bound to
// its httptest listener.
func newFed(t *testing.T, cfg fed.Config) (*fed.Coordinator, *server.Client) {
	t.Helper()
	if cfg.Store == nil {
		cfg.Store = newStore(t)
	}
	if cfg.HealthEvery == 0 {
		cfg.HealthEvery = 50 * time.Millisecond
	}
	c, err := fed.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(func() {
		ts.CloseClientConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		c.Shutdown(ctx)
		ts.Listener.Close()
	})
	return c, server.NewClient(ts.URL, ts.Client())
}

// fleetCampaign is a 6-board characterization spanning three platforms.
func fleetCampaign() server.CampaignRequest {
	return server.CampaignRequest{
		Kind: "characterization",
		Boards: []server.BoardSpec{
			{Platform: "VC707", Replicas: 2, BRAMs: 24},
			{Platform: "KC705-A", Replicas: 2, BRAMs: 24},
			{Platform: "ZC702", Replicas: 2, BRAMs: 24},
		},
		Runs: 3,
	}
}

// TestOversizedSubmitRefusedByBoth pins the one submit decoder the daemon
// and the coordinator share: a characterization body padded past the 1 MiB
// cap for every kind but nn-inference gets the same 413 from either.
func TestOversizedSubmitRefusedByBoth(t *testing.T) {
	d := newDaemon(t, server.Config{})
	_, fc := newFed(t, fed.Config{Downstreams: []string{d.URL}})
	body, err := json.Marshal(fleetCampaign())
	if err != nil {
		t.Fatal(err)
	}
	body = append(body, bytes.Repeat([]byte(" "), 2<<20)...) // still valid JSON
	var msgs []string
	for _, base := range []string{d.URL, fc.BaseURL()} {
		resp, err := http.Post(base+"/v1/campaigns", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var eb server.ErrorBody
		err = json.NewDecoder(resp.Body).Decode(&eb)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || err != nil {
			t.Fatalf("%s answered %d (%q, %v), want 413", base, resp.StatusCode, eb.Error, err)
		}
		msgs = append(msgs, eb.Error)
	}
	if msgs[0] != msgs[1] {
		t.Fatalf("daemon and coordinator refuse differently: %q vs %q", msgs[0], msgs[1])
	}
}

// TestFederatedMatchesSingleDaemon is the federation's core correctness
// claim: a campaign sharded across three daemons returns the bit-identical
// aggregate and per-board rows a single daemon computes — with the
// coordinator's own auth gate and the downstream bearer token in play.
func TestFederatedMatchesSingleDaemon(t *testing.T) {
	ctx := context.Background()

	// Reference: one daemon runs the whole fleet.
	_, solo := newService(t, server.Config{})
	ref, err := solo.Submit(ctx, fleetCampaign())
	if err != nil {
		t.Fatal(err)
	}
	want, err := solo.Wait(ctx, ref.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want.State != server.JobDone {
		t.Fatalf("reference job ended %q (%s)", want.State, want.Error)
	}

	// Federation: three token-gated daemons behind a token-gated coordinator.
	var urls []string
	for i := 0; i < 3; i++ {
		urls = append(urls, newDaemon(t, server.Config{AuthToken: "fleet-secret"}).URL)
	}
	_, fc := newFed(t, fed.Config{
		Downstreams:     urls,
		AuthToken:       "front-secret",
		DownstreamToken: "fleet-secret",
	})

	// The coordinator's own mutating surface is gated.
	if _, err := fc.Submit(ctx, fleetCampaign()); err == nil {
		t.Fatal("unauthenticated federated submit accepted")
	}

	job, err := fc.SetToken("front-secret").Submit(ctx, fleetCampaign())
	if err != nil {
		t.Fatal(err)
	}
	got, err := fc.Wait(ctx, job.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != server.JobDone {
		t.Fatalf("federated job ended %q (%s)", got.State, got.Error)
	}
	if got.Progress != 100 {
		t.Fatalf("federated job finished at %.2f%%", got.Progress)
	}

	if !reflect.DeepEqual(got.Aggregate, want.Aggregate) {
		t.Fatalf("federated aggregate diverged:\n  fed:  %+v\n  solo: %+v", got.Aggregate, want.Aggregate)
	}
	if !reflect.DeepEqual(got.BoardResults, want.BoardResults) {
		t.Fatalf("federated board rows diverged:\n  fed:  %+v\n  solo: %+v", got.BoardResults, want.BoardResults)
	}

	// The shard map is part of the job detail: every executed board is
	// accounted for, and only configured daemons appear.
	sharded := 0
	for _, sh := range got.Shards {
		sharded += sh.Boards
		found := false
		for _, u := range urls {
			if sh.Daemon == u {
				found = true
			}
		}
		if !found {
			t.Fatalf("shard on unknown daemon %q", sh.Daemon)
		}
	}
	if sharded != 6 {
		t.Fatalf("shards cover %d boards, want 6", sharded)
	}

	// Union queries see every downstream's store: 6 characterizations.
	fvms, err := fc.FVMs(ctx, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(fvms) != 6 {
		t.Fatalf("federated FVM union has %d records, want 6", len(fvms))
	}
	vmins, err := fc.Vmin(ctx, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(vmins) != 6 {
		t.Fatalf("federated vmin union has %d rows, want 6", len(vmins))
	}

	// Extended to kind "mitigation": the same fleet compares all four
	// mitigation arms (iso-energy DVFS), and the coordinator's aggregate
	// and every per-board arm curve must be bit-identical to the solo
	// daemon's.
	mitReq := server.NewMitigationRequest(fleetCampaign().Boards, server.MitigationSpec{IsoEnergy: true})
	mitRef, err := solo.Submit(ctx, mitReq)
	if err != nil {
		t.Fatal(err)
	}
	mitWant, err := solo.Wait(ctx, mitRef.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if mitWant.State != server.JobDone {
		t.Fatalf("solo mitigation job ended %q (%s)", mitWant.State, mitWant.Error)
	}
	mitJob, err := fc.SetToken("front-secret").Submit(ctx, mitReq)
	if err != nil {
		t.Fatal(err)
	}
	mitGot, err := fc.Wait(ctx, mitJob.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if mitGot.State != server.JobDone {
		t.Fatalf("federated mitigation job ended %q (%s)", mitGot.State, mitGot.Error)
	}
	if !reflect.DeepEqual(mitGot.Aggregate, mitWant.Aggregate) {
		t.Fatalf("federated mitigation aggregate diverged:\n  fed:  %+v\n  solo: %+v",
			mitGot.Aggregate, mitWant.Aggregate)
	}
	if !reflect.DeepEqual(mitGot.BoardResults, mitWant.BoardResults) {
		t.Fatalf("federated mitigation board rows diverged:\n  fed:  %+v\n  solo: %+v",
			mitGot.BoardResults, mitWant.BoardResults)
	}
	for _, bs := range mitGot.BoardResults {
		if len(bs.Mitigation) != 4 {
			t.Fatalf("board %d carries %d arms, want 4", bs.Board, len(bs.Mitigation))
		}
		for _, arm := range bs.Mitigation {
			if len(arm.Levels) == 0 {
				t.Fatalf("board %d arm %q has no levels through the fan-in", bs.Board, arm.Arm)
			}
		}
	}
	// The downstream per-level firehose survives re-stamping: the merged
	// stream carries level events, densely sequenced.
	levels := 0
	if err := fc.Events(ctx, mitJob.ID, func(ev server.JobEvent) error {
		if ev.Type == "level" {
			levels++
			if ev.V <= 0 {
				t.Fatalf("re-stamped level event lost its voltage: %+v", ev)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if levels == 0 {
		t.Fatal("no per-level events crossed the federation fan-in")
	}
}

// TestMitigationJournalRoundTrip runs a mitigation campaign on one daemon,
// restarts the daemon over the same store, and requires the restored job to
// serve the identical aggregate and per-board arm curves from its journal.
func TestMitigationJournalRoundTrip(t *testing.T) {
	ctx := context.Background()
	st := newStore(t)
	cfg := server.Config{Store: st, Workers: 1, FleetWorkers: 2}

	srv1, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	cl1 := server.NewClient(ts1.URL, http.DefaultClient)
	req := server.NewMitigationRequest(fleetCampaign().Boards[:1], server.MitigationSpec{
		Arms: []string{"unprotected", "ecc", "dvfs"},
	})
	job, err := cl1.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	want, err := cl1.Wait(ctx, job.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want.State != server.JobDone {
		t.Fatalf("first-life job ended %q (%s)", want.State, want.Error)
	}
	ts1.Close()
	if err := srv1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// Second life over the same journal: the job's full document — curves
	// included — must come back bit-identical.
	srv2, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	t.Cleanup(func() {
		ts2.Close()
		sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv2.Shutdown(sctx)
	})
	cl2 := server.NewClient(ts2.URL, http.DefaultClient)
	restored, err := cl2.Job(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if restored.State != server.JobDone || restored.Progress != 100 {
		t.Fatalf("restored job is %q at %.1f%%, want done at 100%%", restored.State, restored.Progress)
	}
	if !reflect.DeepEqual(restored.Aggregate, want.Aggregate) {
		t.Fatalf("aggregate did not round-trip the journal:\n  got:  %+v\n  want: %+v",
			restored.Aggregate, want.Aggregate)
	}
	if !reflect.DeepEqual(restored.BoardResults, want.BoardResults) {
		t.Fatalf("board rows did not round-trip the journal:\n  got:  %+v\n  want: %+v",
			restored.BoardResults, want.BoardResults)
	}
	if got := len(restored.BoardResults[0].Mitigation); got != 3 {
		t.Fatalf("restored job carries %d arms, want the 3 requested", got)
	}
}

// newService boots a plain single daemon and returns its client (reference
// runs and federation downstreams share the same construction).
func newService(t *testing.T, cfg server.Config) (*daemon, *server.Client) {
	t.Helper()
	d := newDaemon(t, cfg)
	return d, server.NewClient(d.URL, http.DefaultClient)
}

// TestDaemonDeathMidCampaign kills one of two daemons mid-campaign and
// requires the federation to finish anyway: the dead daemon's chunks are
// retried on the survivor, the failover is visible in the job detail, and
// the merged event stream stays gap-free.
func TestDaemonDeathMidCampaign(t *testing.T) {
	ctx := context.Background()
	d1 := newDaemon(t, server.Config{})
	d2 := newDaemon(t, server.Config{})
	_, fc := newFed(t, fed.Config{
		Downstreams: []string{d1.URL, d2.URL},
		ChunkBoards: 1, // one board per downstream campaign: maximal churn
	})

	req := fleetCampaign()
	req.Runs = 6
	job, err := fc.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}

	// Kill the second daemon as soon as the first board completes; the
	// campaign still has boards in flight and queued at that point.
	killed := false
	final, err := fc.Wait(ctx, job.ID, func(ev server.JobEvent) error {
		if ev.Type == "done" && !killed {
			killed = true
			d2.kill()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if final.State != server.JobDone {
		t.Fatalf("campaign ended %q (%s), want done despite daemon death", final.State, final.Error)
	}
	if len(final.BoardResults) != 6 {
		t.Fatalf("%d board rows, want 6", len(final.BoardResults))
	}
	for _, bs := range final.BoardResults {
		if bs.Error != "" {
			t.Fatalf("board %d (%s %s) failed: %s", bs.Board, bs.Platform, bs.Serial, bs.Error)
		}
	}
	if final.Aggregate == nil || final.Aggregate.Completed != 6 || final.Aggregate.Failed != 0 {
		t.Fatalf("aggregate %+v, want 6 completed", final.Aggregate)
	}

	// The failover must be on the record: at least one shard retried off
	// the dead daemon, and the job detail says so.
	if len(final.Retries) == 0 {
		t.Fatal("daemon died mid-campaign but job detail records no shard retry")
	}
	for _, r := range final.Retries {
		if r.From != d2.URL {
			t.Fatalf("retry recorded from %q, want the killed daemon %q", r.From, d2.URL)
		}
		if r.To == d2.URL {
			t.Fatalf("retry re-targeted the dead daemon")
		}
	}

	// The merged stream has no sequence gaps: Seq dense from 0, GSeq
	// strictly increasing, terminal campaign event last.
	var evs []server.JobEvent
	if err := fc.Events(ctx, job.ID, func(ev server.JobEvent) error {
		evs = append(evs, ev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(evs) == 0 {
		t.Fatal("no events replayed")
	}
	var lastG int64
	for i, ev := range evs {
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d: the stream has a gap", i, ev.Seq)
		}
		if ev.GSeq <= lastG {
			t.Fatalf("event %d gseq %d not beyond %d", i, ev.GSeq, lastG)
		}
		lastG = ev.GSeq
	}
	if last := evs[len(evs)-1]; last.Type != "campaign" || last.State != server.JobDone {
		t.Fatalf("stream ends with %q/%q, want the terminal campaign event", last.Type, last.State)
	}
}

// TestCoordinatorRestartResume restarts the coordinator over its journal
// and requires the control plane to come back consistent: terminal jobs
// intact, interrupted jobs surfaced as failed, deep event replay served
// from the journal, and a firehose cursor from before the restart resuming
// without loss.
func TestCoordinatorRestartResume(t *testing.T) {
	ctx := context.Background()
	d1 := newDaemon(t, server.Config{})
	st := newStore(t) // shared across both coordinator lives

	// First life: run one campaign to completion.
	req := fleetCampaign()
	req.Boards = req.Boards[:1] // 2 boards is plenty here
	c1, fc1 := newFed(t, fed.Config{Downstreams: []string{d1.URL}, Store: st})
	job, err := fc1.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if final, err := fc1.Wait(ctx, job.ID, nil); err != nil || final.State != server.JobDone {
		t.Fatalf("first-life campaign: state=%v err=%v", final.State, err)
	}
	var firstG, lastG int64
	var evCount int
	if err := fc1.Events(ctx, job.ID, func(ev server.JobEvent) error {
		if firstG == 0 {
			firstG = ev.GSeq
		}
		lastG = ev.GSeq
		evCount++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := c1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// A job the first life never finished: journaled running, two events.
	// (A graceful shutdown journals a terminal state; only a hard death
	// leaves this shape behind, so it is staged directly.)
	interrupted := server.JobStatus{ID: "fed-0055", Kind: "characterization", State: server.JobRunning,
		Boards: 2, Progress: 50, Created: time.Now()}
	payload, err := json.Marshal(map[string]any{"status": interrupted})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutJob(&store.JobRecord{ID: "fed-0055", Seq: 55, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		ev := server.JobEvent{Seq: i, GSeq: lastG + int64(i) + 1, Job: "fed-0055", Type: "start", Board: i}
		raw, _ := json.Marshal(&ev)
		if err := st.AppendJobEvents("fed-0055", []store.EventRecord{
			{Job: "fed-0055", Seq: i, GSeq: ev.GSeq, Payload: raw},
		}); err != nil {
			t.Fatal(err)
		}
	}

	// Second life over the same journal.
	_, fc2 := newFed(t, fed.Config{Downstreams: []string{d1.URL}, Store: st})

	jobs, err := fc2.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]server.JobStatus{}
	for _, js := range jobs {
		byID[js.ID] = js
	}
	if js := byID[job.ID]; js.State != server.JobDone {
		t.Fatalf("restored terminal job is %q, want done", js.State)
	}
	restored, err := fc2.Job(ctx, "fed-0055")
	if err != nil {
		t.Fatal(err)
	}
	if restored.State != server.JobFailed || restored.Error != "coordinator restarted mid-campaign" {
		t.Fatalf("interrupted job restored as %q (%s)", restored.State, restored.Error)
	}

	// Deep per-job replay: the restored job's history lives only in the
	// journal, and the stream must page it back seamlessly — its two staged
	// events plus the restart's terminal event, densely sequenced.
	var replay []server.JobEvent
	if err := fc2.Events(ctx, "fed-0055", func(ev server.JobEvent) error {
		replay = append(replay, ev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(replay) != 3 {
		t.Fatalf("replayed %d events for the interrupted job, want 3", len(replay))
	}
	for i, ev := range replay {
		if ev.Seq != i {
			t.Fatalf("replayed event %d has seq %d", i, ev.Seq)
		}
	}
	if last := replay[2]; last.Type != "campaign" || last.State != server.JobFailed {
		t.Fatalf("interrupted job's log ends with %q/%q, want the failure marker", last.Type, last.State)
	}

	// Firehose resume across the restart: a cursor parked after the first
	// pre-restart event must receive everything journaled past it — the
	// rest of the first campaign, the staged events, and the restart
	// marker — in strictly increasing GSeq order.
	wantTail := (evCount - 1) + 2 + 1
	var got []server.JobEvent
	fhCtx, stop := context.WithCancel(ctx)
	err = fc2.Firehose(fhCtx, firstG, func(ev server.JobEvent) error {
		got = append(got, ev)
		if len(got) >= wantTail {
			stop()
		}
		return nil
	})
	stop()
	if err != nil && fhCtx.Err() == nil {
		t.Fatal(err)
	}
	if len(got) < wantTail {
		t.Fatalf("firehose resumed %d events past gseq %d, want %d", len(got), firstG, wantTail)
	}
	prev := firstG
	for i, ev := range got {
		if ev.GSeq <= prev {
			t.Fatalf("resumed event %d gseq %d not beyond %d", i, ev.GSeq, prev)
		}
		prev = ev.GSeq
	}
}

// TestCoordinatorKeepsTruncationMarker restarts a coordinator whose store
// dropped the oldest history of a finished job (a one-segment live cap,
// forced by a compaction) and requires a resume from Seq 0 to lead with the
// store's truncated marker — the coordinator serves the daemon's stream
// layer, so the gap is announced, never silent.
func TestCoordinatorKeepsTruncationMarker(t *testing.T) {
	ctx := context.Background()
	d1 := newDaemon(t, server.Config{})
	disk, err := store.OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { disk.Close() })
	disk.SetEventLogTuning(2, 1<<30)
	disk.SetLiveSegCap(1)

	c1, fc1 := newFed(t, fed.Config{Downstreams: []string{d1.URL}, Store: disk})
	job, err := fc1.Submit(ctx, fleetCampaign())
	if err != nil {
		t.Fatal(err)
	}
	if final, err := fc1.Wait(ctx, job.ID, nil); err != nil || final.State != server.JobDone {
		t.Fatalf("campaign: state=%v err=%v", final.State, err)
	}
	if err := c1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	// Six boards, a start and a done each, then the terminal event: Seq
	// 0..12. Folding them into two-event segments and keeping one drops
	// everything through Seq 9.
	if err := disk.CompactJob(job.ID); err != nil {
		t.Fatal(err)
	}

	_, fc2 := newFed(t, fed.Config{Downstreams: []string{d1.URL}, Store: disk})
	var evs []server.JobEvent
	if err := fc2.Events(ctx, job.ID, func(ev server.JobEvent) error {
		evs = append(evs, ev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(evs) == 0 || evs[0].Type != "truncated" || evs[0].Seq != 9 {
		t.Fatalf("resume from Seq 0 began with %+v, want the truncated marker at Seq 9", evs)
	}
	for i, ev := range evs[1:] {
		if ev.Seq != 10+i {
			t.Fatalf("event %d after the marker has seq %d, want %d", i, ev.Seq, 10+i)
		}
	}
	if last := evs[len(evs)-1]; last.Type != "campaign" || last.Seq != 12 {
		t.Fatalf("stream ends with %q at seq %d, want the terminal campaign event at 12", last.Type, last.Seq)
	}
}
