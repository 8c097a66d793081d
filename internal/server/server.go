// Package server exposes the fleet campaign engine and the durable FVM
// store as an HTTP JSON service — the daemon side of fpgavoltd.
//
// The API surface:
//
//	POST   /v1/campaigns        submit a campaign; returns the queued job
//	GET    /v1/jobs             list jobs (journal-backed: survives restarts)
//	GET    /v1/jobs/{id}        one job's status, aggregate, per-board rows
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	GET    /v1/jobs/{id}/events stream the job's event log over SSE
//	GET    /v1/events           firehose: every job's events, multiplexed
//	GET    /v1/fvms             list stored characterizations (?platform=&serial=)
//	GET    /v1/fvms/{id}        one stored record's full FVM as JSON
//	DELETE /v1/fvms/{id}        admin: drop one stored record
//	GET    /v1/vmin             per-board operating windows from stored sweeps
//	GET    /healthz             liveness + queue depth + journal errors
//
// Campaigns run on a bounded worker pool fed by a bounded queue: a full
// queue answers 503 instead of buffering without limit. Every engine kind
// is accepted, including nn-inference: the quantized network and its test
// set ride the submission as versioned wire documents (nn.MarshalWire /
// nn.MarshalTestSet) under a raised body limit that applies to that kind
// only, and the job's detail carries each board's accuracy-vs-voltage
// curve. Every campaign's
// fleet shares the server's FVM cache and store, so characterization
// results persist across jobs and process restarts, and a re-submitted
// characterization campaign is served from disk instead of re-measuring
// (temperature, pattern, and threshold studies always measure — their
// products are not cached). Jobs themselves are durable too: every
// submission, event, and terminal result write-throughs into the store's
// job journal, which New replays into the table — so listings, event
// replay, and firehose cursors all survive restarts (jobs caught mid-run
// by a crash come back as failed with a restart marker). Shutdown stops
// intake, then drains: queued and running jobs finish unless the shutdown
// context expires first, at which point the engine's context plumbing
// cancels them promptly.
package server

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/platform"
	"repro/internal/store"
)

// Config tunes a server.
type Config struct {
	// Store backs every campaign's FVM cache and the query endpoints.
	// Required.
	Store store.Store
	// Workers bounds how many campaigns run concurrently (default 2).
	Workers int
	// QueueDepth bounds how many submitted campaigns may wait (default 16).
	QueueDepth int
	// FleetWorkers bounds per-campaign board concurrency (0 = engine auto).
	FleetWorkers int
	// MaxBoards caps a single campaign's fleet size (default 64).
	MaxBoards int
	// MaxJobHistory caps how many jobs the in-memory table retains;
	// beyond it the oldest terminal jobs (and their event logs) are
	// evicted so a long-lived daemon does not grow without bound
	// (default 256). Live jobs are never evicted. The same bound applies
	// to journal replay at boot.
	MaxJobHistory int
	// GCKeep, when > 0, bounds the FVM store to the newest GCKeep records
	// per (platform, serial). GC runs at startup and after every job
	// reaches a terminal state.
	GCKeep int
	// SSEKeepAlive is the idle interval between comment frames on SSE
	// streams (default 15s), so a stream waiting on a queued job is not
	// severed by proxies or idle timeouts.
	SSEKeepAlive time.Duration
	// FirehoseBuffer bounds the /v1/events in-memory replay window
	// (default 8192 events).
	FirehoseBuffer int
	// JobEventWindow bounds how many of a job's most recent events stay in
	// memory once durably journaled (default 2048). Older sequences are
	// paged back from the journal on demand, so deep SSE resume works
	// without the server holding every event in RAM.
	JobEventWindow int
	// JobRetain, when > 0, trims a terminal job's durable event log down to
	// (at least) its last JobRetain events — the Disk store drops whole
	// sealed segments, never the live tail — bounding journal growth at
	// federation scale. Deep SSE resume then replays a truncated marker and
	// the retained suffix. 0 keeps everything.
	JobRetain int
	// AuthToken, when non-empty, requires `Authorization: Bearer <token>`
	// on every mutating endpoint (campaign submission, job cancel, FVM
	// delete, GC). Reads and streams stay open. Empty leaves the whole API
	// open, matching pre-auth deployments.
	AuthToken string
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.MaxBoards <= 0 {
		c.MaxBoards = 64
	}
	if c.MaxJobHistory <= 0 {
		c.MaxJobHistory = 256
	}
	if c.SSEKeepAlive <= 0 {
		c.SSEKeepAlive = 15 * time.Second
	}
	if c.FirehoseBuffer <= 0 {
		c.FirehoseBuffer = 8192
	}
	if c.JobEventWindow <= 0 {
		c.JobEventWindow = 2048
	}
	return c
}

// Server is the campaign service: a job queue, its worker pool, and the
// HTTP handlers over both. Create with New, serve via Handler, stop with
// Shutdown.
type Server struct {
	cfg  Config
	mux  *http.ServeMux
	jobs *JobTable
	// cache is shared by every job's fleet, so concurrent campaigns
	// characterizing the same board collapse into one sweep (the engine's
	// per-key flights) and memory hits survive across jobs, not just
	// within one.
	cache *engine.FVMCache

	abort context.CancelFunc // forced-shutdown switch: cancels every job

	intakeMu sync.Mutex  // guards queue sends vs. close
	queue    chan func() // admitted campaigns, each running one job
	draining bool

	workers sync.WaitGroup
}

// New assembles a server, replays the job journal into its table, and
// starts its worker pool.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Store == nil {
		return nil, fmt.Errorf("server: Config.Store is required")
	}
	cache := engine.NewFVMCache(engine.DefaultCacheCapacity)
	cache.SetBacking(cfg.Store)
	ctx, abort := context.WithCancel(context.Background())
	jobs, err := NewJobTable(ctx, cfg, "job", "daemon restarted mid-campaign")
	if err != nil {
		abort()
		return nil, err
	}
	s := &Server{
		cfg:   cfg,
		mux:   http.NewServeMux(),
		jobs:  jobs,
		cache: cache,
		abort: abort,
		queue: make(chan func(), cfg.QueueDepth),
	}
	s.runGC()
	s.routes()
	for w := 0; w < cfg.Workers; w++ {
		s.workers.Add(1)
		go s.worker()
	}
	return s, nil
}

// runGC bounds the store per Config.GCKeep and evicts what it removed from
// the in-memory cache level, so a collected record cannot be resurrected
// from RAM. GC failures are non-fatal — the store stays bigger than asked,
// which the next run retries.
func (s *Server) runGC() {
	if s.cfg.GCKeep <= 0 {
		return
	}
	removed, _ := s.cfg.Store.GC(s.cfg.GCKeep)
	for _, m := range removed {
		s.cache.Invalidate(m.Key)
	}
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/campaigns", RequireAuth(s.cfg.AuthToken, s.handleSubmit))
	s.jobs.Routes(s.mux, s.cfg.AuthToken)
	s.mux.HandleFunc("GET /v1/fvms", s.handleFVMs)
	s.mux.HandleFunc("GET /v1/fvms/{id}", s.handleFVM)
	s.mux.HandleFunc("DELETE /v1/fvms/{id}", RequireAuth(s.cfg.AuthToken, s.handleDeleteFVM))
	s.mux.HandleFunc("GET /v1/vmin", s.handleVmin)
	s.mux.HandleFunc("POST /v1/gc", RequireAuth(s.cfg.AuthToken, s.handleGC))
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
}

// RequireAuth enforces a bearer token on a mutating handler. With no token
// configured it is a pass-through; with one, the request must present the
// exact token as `Authorization: Bearer <token>` — compared in constant
// time, so the check leaks nothing about the prefix it rejected on.
func RequireAuth(token string, h http.HandlerFunc) http.HandlerFunc {
	if token == "" {
		return h
	}
	want := []byte(token)
	return func(w http.ResponseWriter, r *http.Request) {
		tok, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
		if !ok || subtle.ConstantTimeCompare([]byte(strings.TrimSpace(tok)), want) != 1 {
			WriteError(w, &APIStatusError{StatusCode: http.StatusUnauthorized,
				Message: "missing or invalid bearer token"})
			return
		}
		h(w, r)
	}
}

// handleGC re-bounds the FVM store to the newest ?keep= records per
// (platform, serial) — Config.GCKeep when the query is absent — and evicts
// what it removed from the in-memory cache level. The admin lever for
// reclaiming disk on demand instead of waiting for the next terminal job.
func (s *Server) handleGC(w http.ResponseWriter, r *http.Request) {
	keep := s.cfg.GCKeep
	if q := r.URL.Query().Get("keep"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n <= 0 {
			WriteError(w, badRequestf("keep %q must be a positive integer", q))
			return
		}
		keep = n
	}
	if keep <= 0 {
		WriteError(w, badRequestf("no retention bound: pass ?keep= or configure GCKeep"))
		return
	}
	removed, err := s.cfg.Store.GC(keep)
	if err != nil {
		WriteError(w, fmt.Errorf("gc: %w", err))
		return
	}
	for _, m := range removed {
		s.cache.Invalidate(m.Key)
	}
	WriteJSON(w, http.StatusOK, map[string]any{"removed": len(removed), "keep": keep})
}

// worker drains the queue until Shutdown closes it.
func (s *Server) worker() {
	defer s.workers.Done()
	for run := range s.queue {
		run()
	}
}

// runJob executes one campaign, unless it was cancelled while queued. The
// fleet is constructed per job (each job may enroll a different inventory)
// but backed by the shared store, so characterization work is reused
// across jobs and restarts.
func (s *Server) runJob(job *Job, c engine.Campaign, inv []platform.Platform) {
	if !job.SetRunning() {
		return
	}
	fleet := engine.NewFleet(inv, engine.Options{
		Workers: s.cfg.FleetWorkers,
		Cache:   s.cache,
	})
	events := make(chan engine.Event, 64)
	c.Events = events
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for ev := range events {
			job.Append(jobEvent(ev))
		}
	}()
	res, err := fleet.RunCampaign(job.ctx, c)
	close(events)
	<-drained
	// GC before Finish streams the terminal event: a client that waits for
	// it and then lists /v1/fvms must not see records GC is about to drop.
	s.runGC()
	job.Finish(err, resultDetail(res))
}

// jobEvent is the wire form of one engine progress event.
func jobEvent(ev engine.Event) JobEvent {
	je := JobEvent{
		Type:       ev.Kind.String(),
		Board:      ev.Board,
		Platform:   ev.Platform,
		Serial:     ev.Serial,
		FromCache:  ev.FromCache,
		Faults:     ev.Faults,
		V:          ev.V,
		InferError: ev.InferError,
		Progress:   ev.Progress,
	}
	if ev.Err != nil {
		je.Error = ev.Err.Error()
	}
	return je
}

// resultDetail is the status hook of a job whose campaign returned: the
// fleet aggregate and one wire row per board, projected once.
func resultDetail(res *engine.CampaignResult) func(*JobStatus, bool) {
	if res == nil {
		return nil
	}
	agg := res.Agg
	var rows []BoardStatus
	for i := range res.Boards {
		rows = append(rows, boardRow(&res.Boards[i]))
	}
	return func(st *JobStatus, full bool) {
		if full {
			a := agg
			st.Aggregate = &a
			st.BoardResults = append([]BoardStatus(nil), rows...)
		}
	}
}

// Shutdown stops intake and waits for queued and running jobs to drain.
// When ctx expires first, every remaining job is cancelled through its
// context and Shutdown returns ctx.Err() once the workers exit.
func (s *Server) Shutdown(ctx context.Context) error {
	s.intakeMu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.intakeMu.Unlock()

	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(done)
	}()
	// No queued-job sweep is needed here: once the queue is closed, the
	// workers drain every remaining queued job (running it, or skipping it
	// if already cancelled) before workers.Wait() returns, so every job
	// holds a terminal state by now.
	select {
	case <-done:
		// Drained clean. Cancel the jobs' parent context anyway: every job
		// is terminal, so nothing is interrupted, and open SSE streams (the
		// firehose has no terminal event) are released instead of idling
		// until their clients hang up.
		s.abort()
		return nil
	case <-ctx.Done():
		s.abort() // cancels every running campaign
		<-done
		return ctx.Err()
	}
}

// Submission body limits. Synthetic-sweep campaigns are small documents;
// only nn-inference submissions — whose network words and test set dominate
// — may use the larger cap (a paper-scale network plus MNIST's full test
// split ride in well under it).
const (
	maxSubmitBody   = 1 << 20
	maxNNSubmitBody = 48 << 20
)

// DecodeSubmit reads and decodes a campaign submission body, the one
// decoder the daemon and the federation coordinator share. Only
// nn-inference bodies may exceed maxSubmitBody. A refusal comes back as an
// *APIStatusError for WriteError: 413 for an oversized body, 400 for an
// unreadable or malformed one.
func DecodeSubmit(w http.ResponseWriter, r *http.Request) (CampaignRequest, error) {
	// The kind-specific limit can only be enforced after the kind is known
	// (it lives in the body), so the body is read under the large cap and
	// re-checked once decoded: a non-NN campaign bigger than the small cap
	// is rejected with 413. The transient large read is the unavoidable
	// price of carrying the kind in the document itself.
	var req CampaignRequest
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxNNSubmitBody))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return req, &APIStatusError{StatusCode: http.StatusRequestEntityTooLarge,
				Message: fmt.Sprintf("request body exceeds the %d-byte submission limit", maxNNSubmitBody)}
		}
		return req, badRequestf("read request: %v", err)
	}
	if err := json.Unmarshal(raw, &req); err != nil {
		return req, badRequestf("decode request: %v", err)
	}
	if len(raw) > maxSubmitBody && req.Kind != engine.NNInference.String() {
		return req, &APIStatusError{StatusCode: http.StatusRequestEntityTooLarge,
			Message: fmt.Sprintf("%q submissions are limited to %d bytes; only nn-inference bodies may be larger",
				req.Kind, maxSubmitBody)}
	}
	return req, nil
}

// handleSubmit enqueues a campaign and answers 202 with the queued job.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := DecodeSubmit(w, r)
	if err != nil {
		WriteError(w, err)
		return
	}
	c, err := req.campaign()
	if err != nil {
		WriteError(w, err)
		return
	}
	inv, err := req.inventory(s.cfg.MaxBoards)
	if err != nil {
		WriteError(w, err)
		return
	}

	// The job is built outside intakeMu: creation can evict old history,
	// and eviction touches the journal on disk — I/O no submission (or
	// /healthz poll) should ever queue behind. intakeMu guards only what
	// it must: the draining check and the queue send racing close().
	job := s.jobs.Create(c.Kind.String(), len(inv), nil)
	reject := func(msg string) {
		// The submission was refused: it must not linger in the listing as
		// a phantom cancelled job the client was told never existed.
		s.jobs.remove(job.id)
		job.cancel()
		WriteError(w, &APIStatusError{StatusCode: http.StatusServiceUnavailable, Message: msg})
	}
	s.intakeMu.Lock()
	if s.draining {
		s.intakeMu.Unlock()
		reject("server is shutting down")
		return
	}
	select {
	case s.queue <- func() { s.runJob(job, c, inv) }:
		s.intakeMu.Unlock()
	default:
		s.intakeMu.Unlock()
		reject(fmt.Sprintf("job queue full (%d pending)", s.cfg.QueueDepth))
		return
	}
	// Journaled from the moment it is queued: a crash before the first
	// event still replays this job (as failed-with-restart-marker).
	job.Accepted(w)
}

// matchKey filters store listings by the optional platform/serial query.
func matchKey(k store.Key, platformQ, serialQ string) bool {
	if platformQ != "" && !strings.EqualFold(k.Platform, platformQ) {
		return false
	}
	if serialQ != "" && k.Serial != serialQ {
		return false
	}
	return true
}

// forEachListedRecord iterates the store's index entries matching the
// request's platform/serial filter, handing each meta and its cached
// summary to fn. Listings are O(index): summaries were computed at Put
// time, so no blob is read. The rare entry without a summary (a
// hand-edited index) falls back to one blob read rather than vanishing
// from the listing. A store-level List failure is reported and ends the
// iteration.
func (s *Server) forEachListedRecord(w http.ResponseWriter, r *http.Request, fn func(store.Meta, *store.Summary)) bool {
	metas, err := s.cfg.Store.List()
	if err != nil {
		WriteError(w, fmt.Errorf("list store: %w", err))
		return false
	}
	q := r.URL.Query()
	for _, m := range metas {
		if !matchKey(m.Key, q.Get("platform"), q.Get("serial")) {
			continue
		}
		sum := m.Summary
		if sum == nil {
			rec, ok, err := s.cfg.Store.GetID(m.ID)
			if err != nil || !ok {
				continue
			}
			sum = store.Summarize(rec)
		}
		fn(m, sum)
	}
	return true
}

// handleFVMs lists stored characterizations, optionally filtered, straight
// from the index summaries.
func (s *Server) handleFVMs(w http.ResponseWriter, r *http.Request) {
	out := []FVMInfo{}
	if !s.forEachListedRecord(w, r, func(m store.Meta, sum *store.Summary) {
		out = append(out, FVMInfo{
			ID: m.ID, Platform: m.Key.Platform, Serial: m.Key.Serial,
			TempC: m.Key.TempC, Runs: m.Key.Runs, Options: m.Key.Options,
			Sites: sum.Sites, ZeroShare: sum.ZeroShare, MaxRate: sum.MaxRate,
			VFromV: sum.VFromV, VToV: sum.VToV,
		})
	}) {
		return
	}
	WriteJSON(w, http.StatusOK, out)
}

// handleDeleteFVM removes one stored record — the admin lever behind GC:
// a record known to be stale (a re-soldered board, a mis-keyed run) goes
// now instead of waiting to age out. The in-memory cache level is evicted
// too, so the record cannot be resurrected from RAM.
func (s *Server) handleDeleteFVM(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !store.ValidID(id) {
		WriteError(w, &APIStatusError{StatusCode: http.StatusNotFound, Message: fmt.Sprintf("no FVM %q", id)})
		return
	}
	m, ok, err := s.cfg.Store.Delete(id)
	if err != nil {
		WriteError(w, fmt.Errorf("delete record %s: %w", id, err))
		return
	}
	if !ok {
		WriteError(w, &APIStatusError{StatusCode: http.StatusNotFound, Message: fmt.Sprintf("no FVM %q", id)})
		return
	}
	s.cache.Invalidate(m.Key)
	WriteJSON(w, http.StatusOK, map[string]any{"deleted": id})
}

// handleFVM returns one stored record's full Fault Variation Map.
func (s *Server) handleFVM(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !store.ValidID(id) {
		// Not an address at all (including traversal attempts): 404, and
		// the store layer independently refuses to touch the filesystem.
		WriteError(w, &APIStatusError{StatusCode: http.StatusNotFound, Message: fmt.Sprintf("no FVM %q", id)})
		return
	}
	rec, ok, err := s.cfg.Store.GetID(id)
	if err != nil {
		WriteError(w, fmt.Errorf("read record %s: %w", id, err))
		return
	}
	if !ok || rec.FVM == nil {
		WriteError(w, &APIStatusError{StatusCode: http.StatusNotFound, Message: fmt.Sprintf("no FVM %q", id)})
		return
	}
	WriteJSON(w, http.StatusOK, rec.FVM)
}

// handleVmin reports each stored sweep's observed operating window — the
// per-chip quantity an undervolting deployment actually steers by — from
// the index summaries, where the window was computed at Put time.
func (s *Server) handleVmin(w http.ResponseWriter, r *http.Request) {
	out := []VminInfo{}
	if !s.forEachListedRecord(w, r, func(m store.Meta, sum *store.Summary) {
		if sum.Levels == 0 {
			return // no sweep: nothing to steer by
		}
		out = append(out, VminInfo{
			Platform: m.Key.Platform, Serial: m.Key.Serial, TempC: m.Key.TempC,
			VminV:         sum.VminV,
			VcrashV:       sum.VcrashV,
			FaultsPerMbit: sum.FaultsPerMbit,
		})
	}) {
		return
	}
	WriteJSON(w, http.StatusOK, out)
}

// handleHealth reports liveness, queue pressure, and journal health.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.intakeMu.Lock()
	draining := s.draining
	pending := len(s.queue)
	s.intakeMu.Unlock()
	WriteJSON(w, http.StatusOK, map[string]any{
		"ok":             !draining,
		"draining":       draining,
		"pending":        pending,
		"workers":        s.cfg.Workers,
		"journal_errors": s.jobs.JournalErrors(),
	})
}

// WriteJSON emits v with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// WriteError answers with err in the ErrorBody envelope. An
// *APIStatusError (a refusal, or a downstream daemon's answer) keeps its
// status and message; anything else is a 500.
func WriteError(w http.ResponseWriter, err error) {
	status, msg := http.StatusInternalServerError, err.Error()
	var se *APIStatusError
	if errors.As(err, &se) {
		status, msg = se.StatusCode, se.Message
	}
	WriteJSON(w, status, ErrorBody{Error: msg})
}
