// Package fed is the federated control plane: a coordinator that fronts N
// downstream fpgavoltd daemons behind the same /v1 API one daemon serves.
//
// A submitted campaign is sharded across the daemons by consistent hashing
// keyed on (platform, serial) — a board always lands on the same daemon, so
// that daemon's FVM store and cache stay warm for it — with work-stealing
// when the shards finish unevenly. Downstream events are re-stamped under
// the coordinator's own per-job and global sequences and merged into one
// restart-safe SSE stream. The coordinator runs the daemon's own job and
// stream layer (server.JobTable) over its own store, so journaling,
// Last-Event-ID resume across restarts and truncation markers behave
// exactly as they do on a single daemon. Health
// checks detect a daemon dying mid-campaign; its unfinished shard is
// retried on a survivor, and the retry is surfaced in the job detail.
// Query endpoints (/v1/fvms, /v1/vmin) answer over the union of the
// downstream stores with per-daemon fan-out.
package fed

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/fvm"
	"repro/internal/server"
	"repro/internal/store"
)

// Config tunes a coordinator.
type Config struct {
	// Downstreams lists the base URLs of the daemons being fronted
	// (e.g. "http://127.0.0.1:8081"). At least one is required.
	Downstreams []string
	// Store is the coordinator's own journal: federated jobs, their
	// re-stamped event logs, and the global firehose sequence persist here.
	// Required.
	Store store.Store
	// MaxBoards caps a federated campaign's fleet size (default 256 — the
	// federation exists to run fleets bigger than one daemon's default 64).
	MaxBoards int
	// ChunkBoards is the shard granularity: how many boards ride one
	// downstream campaign (default 4). Smaller chunks steal better;
	// larger ones amortize per-campaign overhead.
	ChunkBoards int
	// RetryLimit bounds how many daemons one chunk may be attempted on
	// before its boards are marked failed (default 3).
	RetryLimit int
	// MaxJobHistory caps the coordinator's job table (default 256).
	MaxJobHistory int
	// JobRetain, when > 0, trims a terminal federated job's journaled event
	// log to (at least) its last JobRetain events.
	JobRetain int
	// HealthEvery is the downstream health-check cadence (default 1s).
	HealthEvery time.Duration
	// HealthFailN is how many consecutive failures (probes or real calls)
	// trip a daemon's circuit breaker open (default 3). One dropped probe
	// must not flap a healthy daemon out of the shard plan.
	HealthFailN int
	// HealthOkN is how many consecutive successes close an open breaker
	// again (default 2). Between the two thresholds the daemon is
	// half-open: it takes trial traffic, and a single failure re-opens it.
	HealthOkN int
	// DownstreamTimeout bounds every non-streaming downstream call —
	// submits, status/query reads, fan-out unions, cancels (default 15s).
	// SSE streams are exempt (see HTTPClient); their liveness is governed
	// by the stream-resume loop instead.
	DownstreamTimeout time.Duration
	// StreamRetries bounds how many consecutive broken event streams one
	// chunk tolerates before the chunk counts as failed on that daemon
	// (default 5). Each break resumes from the last seen event, so a
	// retried stream never replays work, only the tail.
	StreamRetries int
	// AuthToken, when non-empty, gates the coordinator's own mutating
	// endpoints behind `Authorization: Bearer <token>`.
	AuthToken string
	// DownstreamToken is the bearer token the coordinator presents on
	// federation-internal calls to the daemons (their -auth-token).
	DownstreamToken string
	// HTTPClient issues every downstream call; nil uses a client without a
	// global timeout, which streaming requires.
	HTTPClient *http.Client
}

func (c Config) withDefaults() Config {
	if c.MaxBoards <= 0 {
		c.MaxBoards = 256
	}
	if c.ChunkBoards <= 0 {
		c.ChunkBoards = 4
	}
	if c.RetryLimit <= 0 {
		c.RetryLimit = 3
	}
	if c.HealthEvery <= 0 {
		c.HealthEvery = time.Second
	}
	if c.HealthFailN <= 0 {
		c.HealthFailN = 3
	}
	if c.HealthOkN <= 0 {
		c.HealthOkN = 2
	}
	if c.DownstreamTimeout <= 0 {
		c.DownstreamTimeout = 15 * time.Second
	}
	if c.StreamRetries <= 0 {
		c.StreamRetries = 5
	}
	if c.HTTPClient == nil {
		c.HTTPClient = &http.Client{}
	}
	return c
}

// Coordinator is the federated control plane. Create with New, serve via
// Handler, stop with Shutdown.
type Coordinator struct {
	cfg     Config
	mux     *http.ServeMux
	ring    *ring
	clients map[string]*server.Client
	// jobs is the daemon's job-and-stream layer over the coordinator's
	// store: federated job ids read fed-0001, fed-0002, ...
	jobs *server.JobTable

	baseCtx context.Context
	abort   context.CancelFunc

	// health is the per-daemon circuit-breaker table, fed by both the probe
	// loop and real downstream call outcomes (see health.go).
	health *health

	mu       sync.Mutex // guards draining against runner starts
	draining bool
	wg       sync.WaitGroup
}

// New assembles a coordinator over the configured daemons, replays its
// journal, and starts the health monitor.
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Downstreams) == 0 {
		return nil, fmt.Errorf("fed: Config.Downstreams is required")
	}
	if cfg.Store == nil {
		return nil, fmt.Errorf("fed: Config.Store is required")
	}
	// Normalize before the ring is built: the daemon name on the ring, in
	// the client map, and in the health table must be the same string.
	norm := make([]string, len(cfg.Downstreams))
	for i, d := range cfg.Downstreams {
		norm[i] = strings.TrimRight(d, "/")
	}
	cfg.Downstreams = norm
	ctx, abort := context.WithCancel(context.Background())
	c := &Coordinator{
		cfg:     cfg,
		mux:     http.NewServeMux(),
		ring:    newRing(cfg.Downstreams),
		clients: make(map[string]*server.Client, len(cfg.Downstreams)),
		baseCtx: ctx,
		abort:   abort,
		// Every breaker starts closed — optimistic until probes say
		// otherwise, like the pre-breaker health table.
		health: newHealth(norm, cfg.HealthFailN, cfg.HealthOkN),
	}
	seen := make(map[string]bool, len(cfg.Downstreams))
	for _, d := range cfg.Downstreams {
		if seen[d] {
			abort()
			return nil, fmt.Errorf("fed: downstream %s listed twice", d)
		}
		seen[d] = true
		c.clients[d] = server.NewClient(d, cfg.HTTPClient).SetToken(cfg.DownstreamToken)
	}
	jobs, err := server.NewJobTable(ctx, server.Config{
		Store: cfg.Store, MaxJobHistory: cfg.MaxJobHistory, JobRetain: cfg.JobRetain,
	}, "fed", "coordinator restarted mid-campaign")
	if err != nil {
		abort()
		return nil, fmt.Errorf("fed: %w", err)
	}
	c.jobs = jobs
	c.routes()
	c.wg.Add(1)
	go c.healthLoop()
	return c, nil
}

// Handler returns the coordinator's HTTP handler tree — the same /v1
// surface a single daemon serves.
func (c *Coordinator) Handler() http.Handler { return c.mux }

// Shutdown stops intake, cancels running federated jobs (their downstream
// shards are cancelled best-effort), and waits for the runners to exit.
func (c *Coordinator) Shutdown(ctx context.Context) error {
	c.mu.Lock()
	c.draining = true
	c.mu.Unlock()
	c.abort()
	done := make(chan struct{})
	go func() {
		c.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (c *Coordinator) routes() {
	c.mux.HandleFunc("POST /v1/campaigns", server.RequireAuth(c.cfg.AuthToken, c.handleSubmit))
	c.jobs.Routes(c.mux, c.cfg.AuthToken)
	c.mux.HandleFunc("GET /v1/fvms", c.handleFVMs)
	c.mux.HandleFunc("GET /v1/fvms/{id}", c.handleFVM)
	c.mux.HandleFunc("DELETE /v1/fvms/{id}", server.RequireAuth(c.cfg.AuthToken, c.handleDeleteFVM))
	c.mux.HandleFunc("GET /v1/vmin", c.handleVmin)
	c.mux.HandleFunc("POST /v1/gc", server.RequireAuth(c.cfg.AuthToken, c.handleGC))
	c.mux.HandleFunc("GET /healthz", c.handleHealth)
}

// --- health -----------------------------------------------------------

// healthLoop probes every downstream's /healthz on a fixed cadence and
// feeds the results into the circuit-breaker table. HealthFailN consecutive
// failures trip a daemon open — its queued chunks migrate and new boards
// hash past it — and HealthOkN consecutive successes close it again; a
// single dropped probe moves no breaker (the flapping fix).
func (c *Coordinator) healthLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.HealthEvery)
	defer t.Stop()
	for {
		select {
		case <-c.baseCtx.Done():
			return
		case <-t.C:
		}
		for d := range c.clients {
			if c.probe(d) {
				c.health.ok(d)
			} else {
				c.health.fail(d)
			}
		}
	}
}

// probe reports whether one downstream currently answers /healthz.
func (c *Coordinator) probe(daemon string) bool {
	ctx, cancel := context.WithTimeout(c.baseCtx, c.cfg.HealthEvery)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, daemon+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// isHealthy reports whether a daemon should receive traffic — its breaker
// is closed or half-open (trial traffic is how recovery is proved).
func (c *Coordinator) isHealthy(daemon string) bool {
	return c.health.available(daemon)
}

// callCtx bounds one non-streaming downstream call. Every coordinator →
// daemon request except the SSE event streams goes through this; without
// it, a daemon that accepts connections but never answers would pin
// fan-outs and submits forever.
func (c *Coordinator) callCtx(parent context.Context) (context.Context, context.CancelFunc) {
	return context.WithTimeout(parent, c.cfg.DownstreamTimeout)
}

// --- HTTP handlers ----------------------------------------------------

func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := server.DecodeSubmit(w, r)
	if err != nil {
		server.WriteError(w, err)
		return
	}
	// Validate up front: a bad submission is a 400 at the coordinator, not
	// N downstream failures — and the expansion is the shard plan.
	if err := req.Validate(c.cfg.MaxBoards); err != nil {
		server.WriteError(w, err)
		return
	}
	flat, err := server.ExpandBoards(req.Boards, c.cfg.MaxBoards)
	if err != nil {
		server.WriteError(w, err)
		return
	}
	c.mu.Lock()
	if c.draining {
		c.mu.Unlock()
		server.WriteError(w, &server.APIStatusError{StatusCode: http.StatusServiceUnavailable,
			Message: "coordinator is shutting down"})
		return
	}
	c.wg.Add(1)
	c.mu.Unlock()
	j := newFedJob(req, flat)
	j.job = c.jobs.Create(req.Kind, len(flat), j.detail)
	go func() {
		defer c.wg.Done()
		c.runJob(j)
	}()
	j.job.Accepted(w)
}

// fanout runs fn against every downstream concurrently, each call bounded
// by DownstreamTimeout, and collects the non-error results plus the sorted
// list of daemons that did not answer — open breakers and failed calls
// alike. A fleet query must degrade to the reachable union, not fail
// because one box is down; the missing list is what lets the handler tell
// the client the union is partial. Call outcomes feed the breaker table: a
// transport failure counts against the daemon, while any HTTP status —
// even an error one — proves the daemon alive.
func fanout[T any](c *Coordinator, ctx context.Context, fn func(ctx context.Context, cl *server.Client) (T, error)) (out []T, missing []string) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	for d, cl := range c.clients {
		if !c.isHealthy(d) {
			missing = append(missing, d)
			continue
		}
		wg.Add(1)
		go func(d string, cl *server.Client) {
			defer wg.Done()
			cctx, cancel := c.callCtx(ctx)
			defer cancel()
			v, err := fn(cctx, cl)
			var se *server.APIStatusError
			switch {
			case err == nil:
				c.health.ok(d)
				mu.Lock()
				out = append(out, v)
				mu.Unlock()
				return
			case errors.As(err, &se):
				// The daemon answered — an HTTP error is liveness, not
				// death — but its result is still missing from the union.
				c.health.ok(d)
			default:
				c.health.fail(d)
			}
			mu.Lock()
			missing = append(missing, d)
			mu.Unlock()
		}(d, cl)
	}
	wg.Wait()
	sort.Strings(missing)
	return out, missing
}

func (c *Coordinator) handleFVMs(w http.ResponseWriter, r *http.Request) {
	platformQ, serialQ := r.URL.Query().Get("platform"), r.URL.Query().Get("serial")
	lists, missing := fanout(c, r.Context(), func(ctx context.Context, cl *server.Client) ([]server.FVMInfo, error) {
		return cl.FVMs(ctx, platformQ, serialQ)
	})
	out := []server.FVMInfo{}
	seen := make(map[string]bool)
	for _, l := range lists {
		for _, f := range l {
			// The same content address on two daemons (a retried shard
			// re-characterized a board) is one record in the union.
			if seen[f.ID] {
				continue
			}
			seen[f.ID] = true
			out = append(out, f)
		}
	}
	sort.Slice(out, func(i, k int) bool {
		if out[i].Platform != out[k].Platform {
			return out[i].Platform < out[k].Platform
		}
		if out[i].Serial != out[k].Serial {
			return out[i].Serial < out[k].Serial
		}
		return out[i].ID < out[k].ID
	})
	// Graceful degradation: every daemon answered → the bare array (daemon
	// parity); survivors only → the partial envelope, so a client can tell
	// "the fleet has these" from "the daemons I could reach have these".
	if len(missing) > 0 {
		server.WriteJSON(w, http.StatusOK, server.FVMList{FVMs: out, Partial: true, Missing: missing})
		return
	}
	server.WriteJSON(w, http.StatusOK, out)
}

// errNoFVM is the 404 a query for an FVM no reachable daemon holds answers.
func errNoFVM(id string) error {
	return &server.APIStatusError{StatusCode: http.StatusNotFound, Message: fmt.Sprintf("no FVM %q", id)}
}

func (c *Coordinator) handleFVM(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !store.ValidID(id) {
		server.WriteError(w, errNoFVM(id))
		return
	}
	for d, cl := range c.clients {
		if !c.isHealthy(d) {
			continue
		}
		m, err := func() (*fvm.Map, error) {
			ctx, cancel := c.callCtx(r.Context())
			defer cancel()
			return cl.FVM(ctx, id)
		}()
		if err == nil {
			server.WriteJSON(w, http.StatusOK, m)
			return
		}
	}
	server.WriteError(w, errNoFVM(id))
}

func (c *Coordinator) handleDeleteFVM(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !store.ValidID(id) {
		server.WriteError(w, errNoFVM(id))
		return
	}
	deleted, missing := fanout(c, r.Context(), func(ctx context.Context, cl *server.Client) (bool, error) {
		if err := cl.DeleteFVM(ctx, id); err != nil {
			return false, err
		}
		return true, nil
	})
	if len(deleted) == 0 {
		server.WriteError(w, errNoFVM(id))
		return
	}
	resp := map[string]any{"deleted": id}
	if len(missing) > 0 {
		// The record may survive on an unreachable daemon; say so instead
		// of claiming a fleet-wide delete.
		resp["partial"], resp["missing"] = true, missing
	}
	server.WriteJSON(w, http.StatusOK, resp)
}

func (c *Coordinator) handleVmin(w http.ResponseWriter, r *http.Request) {
	platformQ, serialQ := r.URL.Query().Get("platform"), r.URL.Query().Get("serial")
	lists, missing := fanout(c, r.Context(), func(ctx context.Context, cl *server.Client) ([]server.VminInfo, error) {
		return cl.Vmin(ctx, platformQ, serialQ)
	})
	out := []server.VminInfo{}
	seen := make(map[server.VminInfo]bool)
	for _, l := range lists {
		for _, v := range l {
			if seen[v] {
				continue
			}
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, k int) bool {
		if out[i].Platform != out[k].Platform {
			return out[i].Platform < out[k].Platform
		}
		if out[i].Serial != out[k].Serial {
			return out[i].Serial < out[k].Serial
		}
		return out[i].TempC < out[k].TempC
	})
	if len(missing) > 0 {
		server.WriteJSON(w, http.StatusOK, server.VminList{Vmin: out, Partial: true, Missing: missing})
		return
	}
	server.WriteJSON(w, http.StatusOK, out)
}

func (c *Coordinator) handleGC(w http.ResponseWriter, r *http.Request) {
	keep := 0
	if q := r.URL.Query().Get("keep"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n <= 0 {
			server.WriteError(w, &server.APIStatusError{StatusCode: http.StatusBadRequest,
				Message: fmt.Sprintf("keep %q must be a positive integer", q)})
			return
		}
		keep = n
	}
	counts, missing := fanout(c, r.Context(), func(ctx context.Context, cl *server.Client) (int, error) {
		return cl.GC(ctx, keep)
	})
	total := 0
	for _, n := range counts {
		total += n
	}
	resp := map[string]any{"removed": total, "daemons": len(counts)}
	if len(missing) > 0 {
		resp["partial"], resp["missing"] = true, missing
	}
	server.WriteJSON(w, http.StatusOK, resp)
}

func (c *Coordinator) handleHealth(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	draining := c.draining
	c.mu.Unlock()
	type dh struct {
		URL     string `json:"url"`
		Healthy bool   `json:"healthy"`
		// Breaker is the daemon's circuit-breaker position (closed |
		// half-open | open); Fails counts its consecutive failures so far.
		Breaker string `json:"breaker"`
		Fails   int    `json:"fails,omitempty"`
	}
	daemons := make([]dh, 0, len(c.cfg.Downstreams))
	alive := 0
	for _, d := range c.cfg.Downstreams {
		state, fails := c.health.snapshot(d)
		ok := state != breakerOpen
		if ok {
			alive++
		}
		daemons = append(daemons, dh{URL: d, Healthy: ok, Breaker: state.String(), Fails: fails})
	}
	server.WriteJSON(w, http.StatusOK, map[string]any{
		"ok":             !draining && alive > 0,
		"federation":     true,
		"draining":       draining,
		"daemons":        daemons,
		"journal_errors": c.jobs.JournalErrors(),
	})
}
