// Command fpgavoltd-loadgen drives a fpgavoltd instance with hundreds of
// concurrent clients — campaign submissions, per-job SSE streams, status
// queries, and one server-wide firehose subscription — and reports
// per-endpoint latency quantiles plus delivery accounting. It is the
// serving-path counterpart of the figure benchmarks: `make loadgen-compare`
// runs it against the committed baseline so an O(N) regression on the job
// table, the event log, or the SSE paths fails CI before it ships.
//
// Usage:
//
//	fpgavoltd-loadgen -selfhost [-clients 200] [-jobs 200] [-out lg.json]
//	fpgavoltd-loadgen -selfhost -federate 3 [-clients 200] ...
//	fpgavoltd-loadgen -selfhost -federate 3 -chaos 20260808 ...
//	fpgavoltd-loadgen -addr http://127.0.0.1:8080 [-clients 200] ...
//
// With -selfhost the tool boots an in-process fpgavoltd (disk store in a
// temp dir, journal on) on a loopback listener and tears it down after; with
// -addr it targets an already-running daemon (or coordinator — the federated
// /v1 surface is the same). -federate N replaces the single selfhost daemon
// with N in-process daemons behind a federation coordinator, so the same
// delivery accounting gates the coordinator's merged, re-stamped streams:
// the CI federation-smoke job runs this mode and fails on any dropped event. Every job's SSE stream is
// checked for per-job sequence density and the firehose for global-sequence
// density, so the run fails (exit 1) if even one event is dropped. Submit
// hitting admission control (503 queue-full) backs off and retries — those
// retries are counted, not fatal.
//
// -chaos <seed> (federated selfhost only) routes every coordinator→daemon
// request through the deterministic fault injector: added latency, connection
// resets, injected 503s, and torn/stalled SSE streams, all scheduled purely
// by the seed and a request counter. The zero-drop gates still apply — the
// run fails if chaos costs a single event — and the same seed replays the
// same fault schedule, so a chaos failure is reproducible.
//
// -out writes the benchjson baseline schema: p50/p95/p99 per endpoint (with
// p95 doubling as ns/op so `benchjson -compare` gates on it), journal
// bytes/event (selfhost only), and a Calibration result measuring a fixed
// pure-CPU workload so compares can normalize machine drift with
// -calibrate Calibration.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/fpgavolt"
	"repro/internal/chaos"
)

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout))
}

// hist collects latency samples for one endpoint; quantiles are computed by
// sorting, which is ample at loadgen sample counts (thousands).
type hist struct {
	mu sync.Mutex
	ns []float64
}

func (h *hist) add(d time.Duration) {
	h.mu.Lock()
	h.ns = append(h.ns, float64(d.Nanoseconds()))
	h.mu.Unlock()
}

// quantile returns the q-th (0..1) latency in nanoseconds, by the
// nearest-rank method over a private sorted copy.
func (h *hist) quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.ns) == 0 {
		return 0
	}
	s := append([]float64(nil), h.ns...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func (h *hist) count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.ns)
}

// result converts the histogram into one benchjson result: the p95 doubles
// as ns/op so the default `benchjson -compare` metric gates tail latency.
func (h *hist) result(name string) benchResult {
	p50, p95, p99 := h.quantile(0.50), h.quantile(0.95), h.quantile(0.99)
	return benchResult{
		Name:    name,
		Iters:   int64(h.count()),
		Samples: h.count(),
		Metrics: map[string]float64{
			"ns/op":  p95,
			"p50-ns": p50,
			"p95-ns": p95,
			"p99-ns": p99,
		},
	}
}

// benchResult / benchBaseline mirror cmd/benchjson's file schema, so
// `benchjson -compare` consumes loadgen output directly.
type benchResult struct {
	Name    string             `json:"name"`
	Iters   int64              `json:"iters"`
	Samples int                `json:"samples,omitempty"`
	Metrics map[string]float64 `json:"metrics"`
}

type benchBaseline struct {
	Label     string        `json:"label"`
	Goos      string        `json:"goos,omitempty"`
	Goarch    string        `json:"goarch,omitempty"`
	Bench     string        `json:"bench"`
	Benchtime string        `json:"benchtime"`
	Results   []benchResult `json:"results"`
}

// calibrationRounds is how many times measureCalibration runs the fixed
// workload; the minimum is taken, being the least scheduler-disturbed
// reading of pure machine speed.
const calibrationRounds = 20

// measureCalibration times the same fixed xorshift workload as the root
// BenchmarkCalibration: pure CPU, no repository code, so its old→new ratio
// isolates machine drift for `benchjson -compare -calibrate Calibration`.
func measureCalibration() benchResult {
	best := time.Duration(math.MaxInt64)
	sink := uint64(0)
	for r := 0; r < calibrationRounds; r++ {
		start := time.Now()
		x := uint64(0x9e3779b97f4a7c15)
		for j := 0; j < 1<<18; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		sink += x
		if d := time.Since(start); d < best {
			best = d
		}
	}
	_ = sink
	return benchResult{
		Name:    "Calibration",
		Iters:   calibrationRounds,
		Samples: calibrationRounds,
		Metrics: map[string]float64{"ns/op": float64(best.Nanoseconds())},
	}
}

// run is main with its exits made testable.
func run(ctx context.Context, args []string, w io.Writer) int {
	fs := flag.NewFlagSet("fpgavoltd-loadgen", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", "", "base URL of a running fpgavoltd (empty with -selfhost)")
		selfhost  = fs.Bool("selfhost", false, "boot an in-process daemon on loopback and drive that")
		storeDir  = fs.String("store", "", "selfhost store directory (empty = temp dir, removed after)")
		clients   = fs.Int("clients", 200, "concurrent client workers")
		jobs      = fs.Int("jobs", 200, "total campaigns to submit across all workers")
		replicas  = fs.Int("replicas", 4, "boards per campaign (events per job scale with it)")
		brams     = fs.Int("brams", 1, "BRAMs per simulated board (campaign size knob)")
		runs      = fs.Int("runs", 1, "read-pass runs per voltage level")
		workers   = fs.Int("workers", runtime.NumCPU(), "selfhost: concurrent campaign jobs (per daemon when federated)")
		queue     = fs.Int("queue", 32, "selfhost: pending-job queue depth (admission-control bound, per daemon when federated)")
		federate  = fs.Int("federate", 0, "selfhost: shard across N in-process daemons behind a federation coordinator (0 = single daemon)")
		chaosSeed = fs.Uint64("chaos", 0, "inject deterministic faults on every coordinator→daemon call, scheduled by this seed (0 = off; needs -federate)")
		timeout   = fs.Duration("timeout", 5*time.Minute, "overall run deadline")
		label     = fs.String("label", "loadgen", "benchjson baseline label")
		out       = fs.String("out", "", "write a benchjson baseline file")
	)
	fs.SetOutput(w)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if (*addr == "") == !*selfhost {
		fmt.Fprintln(w, "fpgavoltd-loadgen: need exactly one of -addr or -selfhost")
		return 2
	}
	if *clients <= 0 || *jobs <= 0 || *replicas <= 0 {
		fmt.Fprintln(w, "fpgavoltd-loadgen: -clients, -jobs, and -replicas must be positive")
		return 2
	}
	if *federate > 0 && !*selfhost {
		fmt.Fprintln(w, "fpgavoltd-loadgen: -federate needs -selfhost (with -addr, point it at a running fpgavoltctl instead)")
		return 2
	}
	if *chaosSeed != 0 && *federate == 0 {
		fmt.Fprintln(w, "fpgavoltd-loadgen: -chaos needs -federate (faults are injected on the coordinator→daemon hop)")
		return 2
	}
	ctx, cancel := context.WithTimeout(ctx, *timeout)
	defer cancel()

	base := *addr
	var chaosT *chaos.Transport
	var journalBytes func() uint64
	if *selfhost {
		dir := *storeDir
		if dir == "" {
			tmp, err := os.MkdirTemp("", "fpgavoltd-loadgen-*")
			if err != nil {
				fmt.Fprintln(w, "fpgavoltd-loadgen:", err)
				return 2
			}
			defer os.RemoveAll(tmp)
			dir = tmp
		}
		st, err := fpgavolt.OpenDiskStore(dir)
		if err != nil {
			fmt.Fprintln(w, "fpgavoltd-loadgen:", err)
			return 2
		}
		defer st.Close()
		journalBytes = st.JournalBytes
		if *federate > 0 {
			// Federated selfhost: N in-process daemons, each on a fresh
			// throwaway disk store, fronted by a coordinator journaling to
			// the run's store — the same topology fpgavoltctl serves — so
			// the drop detectors below run against the coordinator's
			// re-stamped Seq/GSeq numbering and the journal metric measures
			// the coordinator's log.
			var urls []string
			for i := 0; i < *federate; i++ {
				ddir, err := os.MkdirTemp("", "fpgavoltd-loadgen-daemon-*")
				if err != nil {
					fmt.Fprintln(w, "fpgavoltd-loadgen:", err)
					return 2
				}
				defer os.RemoveAll(ddir)
				dst, err := fpgavolt.OpenDiskStore(ddir)
				if err != nil {
					fmt.Fprintln(w, "fpgavoltd-loadgen:", err)
					return 2
				}
				defer dst.Close()
				dsvc, err := fpgavolt.NewService(fpgavolt.ServiceConfig{
					Store:      dst,
					Workers:    *workers,
					QueueDepth: *queue,
					// Every federated job fans out up to one downstream
					// campaign per board; keep them all listable so the
					// coordinator's post-stream job fetch cannot 404.
					MaxJobHistory: (*jobs)*(*replicas) + 16,
				})
				if err != nil {
					fmt.Fprintln(w, "fpgavoltd-loadgen:", err)
					return 2
				}
				dln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					fmt.Fprintln(w, "fpgavoltd-loadgen:", err)
					return 2
				}
				dhs := &http.Server{Handler: dsvc.Handler(), ReadHeaderTimeout: 10 * time.Second}
				go dhs.Serve(dln)
				defer func() {
					sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
					defer scancel()
					dhs.Shutdown(sctx)
					dsvc.Shutdown(sctx)
				}()
				urls = append(urls, "http://"+dln.Addr().String())
			}
			fedCfg := fpgavolt.FederationConfig{
				Downstreams:   urls,
				Store:         st,
				MaxJobHistory: *jobs + 16,
			}
			if *chaosSeed != 0 {
				chaosT = chaos.New(*chaosSeed, nil)
				fedCfg.HTTPClient = &http.Client{Transport: chaosT}
				// Chaos eats attempts: give shards and streams more retry
				// budget, and probe fast enough that a breaker tripped by an
				// injected fault recovers within the run.
				fedCfg.RetryLimit = 8
				fedCfg.StreamRetries = 8
				fedCfg.HealthEvery = 100 * time.Millisecond
			}
			coord, err := fpgavolt.NewFederation(fedCfg)
			if err != nil {
				fmt.Fprintln(w, "fpgavoltd-loadgen:", err)
				return 2
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				fmt.Fprintln(w, "fpgavoltd-loadgen:", err)
				return 2
			}
			hs := &http.Server{Handler: coord.Handler(), ReadHeaderTimeout: 10 * time.Second}
			go hs.Serve(ln)
			// LIFO defers drain the coordinator before its daemons go away.
			defer func() {
				sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer scancel()
				hs.Shutdown(sctx)
				coord.Shutdown(sctx)
			}()
			base = "http://" + ln.Addr().String()
			fmt.Fprintf(w, "selfhost federation on %s (%d daemons, journal %s, %d workers x queue %d each)\n",
				base, *federate, dir, *workers, *queue)
		} else {
			svc, err := fpgavolt.NewService(fpgavolt.ServiceConfig{
				Store:      st,
				Workers:    *workers,
				QueueDepth: *queue,
				// Keep the whole run's jobs listable: eviction mid-run would
				// turn delivery accounting into false drops.
				MaxJobHistory: *jobs + 16,
			})
			if err != nil {
				fmt.Fprintln(w, "fpgavoltd-loadgen:", err)
				return 2
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				fmt.Fprintln(w, "fpgavoltd-loadgen:", err)
				return 2
			}
			hs := &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: 10 * time.Second}
			go hs.Serve(ln)
			defer func() {
				sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer scancel()
				hs.Shutdown(sctx)
				svc.Shutdown(sctx)
			}()
			base = "http://" + ln.Addr().String()
			fmt.Fprintf(w, "selfhost daemon on %s (store %s, %d workers, queue %d)\n", base, dir, *workers, *queue)
		}
	}

	g := newLoadgen(base, *clients)
	if err := g.drive(ctx, w, *jobs, *clients, fpgavolt.CampaignRequest{
		Kind:   "characterization",
		Boards: []fpgavolt.BoardSpec{{Platform: "VC707", Replicas: *replicas, BRAMs: *brams}},
		Runs:   *runs,
	}); err != nil {
		fmt.Fprintln(w, "fpgavoltd-loadgen:", err)
		return 1
	}

	results := []benchResult{
		g.submit.result("LoadgenSubmit"),
		g.stream.result("LoadgenJobStream"),
		g.query.result("LoadgenJobQuery"),
		measureCalibration(),
	}
	totalEvents := g.jobEvents.Load()
	if journalBytes != nil && totalEvents > 0 {
		results = append(results, benchResult{
			Name:    "LoadgenJournal",
			Iters:   totalEvents,
			Samples: int(totalEvents),
			Metrics: map[string]float64{"bytes/event": float64(journalBytes()) / float64(totalEvents)},
		})
	}

	fmt.Fprintf(w, "%d jobs over %d clients: %d events streamed, %d firehose events, %d submit retries, dropped %d\n",
		*jobs, *clients, totalEvents, g.fhEvents.Load(), g.retries.Load(), g.dropped.Load())
	if chaosT != nil {
		fmt.Fprintf(w, "chaos seed %d: %s\n", *chaosSeed, chaosT.Report())
	}
	for _, r := range results {
		switch {
		case r.Metrics["p50-ns"] > 0:
			fmt.Fprintf(w, "  %-18s p50 %-12v p95 %-12v p99 %-12v (%d samples)\n", r.Name,
				time.Duration(r.Metrics["p50-ns"]), time.Duration(r.Metrics["p95-ns"]),
				time.Duration(r.Metrics["p99-ns"]), r.Samples)
		case r.Metrics["ns/op"] > 0:
			fmt.Fprintf(w, "  %-18s %v/op\n", r.Name, time.Duration(r.Metrics["ns/op"]))
		default:
			fmt.Fprintf(w, "  %-18s %.1f bytes/event over %d events\n", r.Name, r.Metrics["bytes/event"], r.Iters)
		}
	}

	if *out != "" {
		b := benchBaseline{
			Label: *label, Goos: runtime.GOOS, Goarch: runtime.GOARCH,
			Bench:     "loadgen",
			Benchtime: fmt.Sprintf("%dx%d", *jobs, *clients),
			Results:   results,
		}
		blob, err := json.MarshalIndent(b, "", "  ")
		if err != nil {
			fmt.Fprintln(w, "fpgavoltd-loadgen:", err)
			return 2
		}
		if err := os.WriteFile(*out, append(blob, '\n'), 0o644); err != nil {
			fmt.Fprintln(w, "fpgavoltd-loadgen:", err)
			return 2
		}
		fmt.Fprintf(w, "wrote %s\n", *out)
	}

	if d := g.dropped.Load(); d > 0 {
		fmt.Fprintf(w, "fpgavoltd-loadgen: FAIL — %d dropped event(s)\n", d)
		return 1
	}
	if f := g.failures.Load(); f > 0 {
		fmt.Fprintf(w, "fpgavoltd-loadgen: FAIL — %d job failure(s)\n", f)
		return 1
	}
	fmt.Fprintln(w, "PASS — every event delivered in order")
	return 0
}

// loadgen is one run's shared state: the typed client, per-endpoint
// histograms, and delivery accounting.
type loadgen struct {
	client *fpgavolt.Client

	submit hist // POST /v1/campaigns, successful attempt only
	stream hist // submit ack → terminal SSE event
	query  hist // GET /v1/jobs/{id}

	jobEvents atomic.Int64 // events delivered across all per-job streams
	fhEvents  atomic.Int64 // events delivered on the firehose
	retries   atomic.Int64 // submits deferred by admission control
	dropped   atomic.Int64 // sequence gaps (per-job or firehose)
	failures  atomic.Int64 // jobs not ending in state "done"
}

func newLoadgen(base string, clients int) *loadgen {
	// One pooled transport for the whole fleet: idle-connection reuse per
	// worker plus clients+1 long-lived SSE streams.
	tr := &http.Transport{
		MaxIdleConns:        2*clients + 8,
		MaxIdleConnsPerHost: 2*clients + 8,
	}
	return &loadgen{client: fpgavolt.NewServiceClient(base, &http.Client{Transport: tr})}
}

// drive runs the whole load: a firehose watcher plus `clients` workers
// draining a `jobs`-long queue, then firehose catch-up accounting.
func (g *loadgen) drive(ctx context.Context, w io.Writer, jobs, clients int, req fpgavolt.CampaignRequest) error {
	// The firehose subscribes before the first submit so every event of the
	// run lands inside the subscription. Density of the global sequence is
	// the drop detector: GSeq is allocated contiguously by the server, so a
	// gap in what we receive is an event we lost.
	fhCtx, fhCancel := context.WithCancel(ctx)
	defer fhCancel()
	fhDone := make(chan error, 1)
	var lastG atomic.Int64
	go func() {
		var prev int64 = -1
		fhDone <- g.client.Firehose(fhCtx, 0, func(ev fpgavolt.JobEvent) error {
			g.fhEvents.Add(1)
			if prev >= 0 && ev.GSeq != prev+1 {
				g.dropped.Add(ev.GSeq - prev - 1)
			}
			prev = ev.GSeq
			lastG.Store(ev.GSeq)
			return nil
		})
	}()

	jobQueue := make(chan int)
	go func() {
		defer close(jobQueue)
		for i := 0; i < jobs; i++ {
			select {
			case jobQueue <- i:
			case <-ctx.Done():
				return
			}
		}
	}()

	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range jobQueue {
				if err := g.runJob(ctx, req); err != nil {
					select {
					case errc <- err:
					default:
					}
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errc:
		return err
	default:
	}

	// Catch-up: the firehose lags the per-job streams by whatever is still
	// in flight. Every job stream saw its own terminal event, so the
	// firehose must reach the same total without gaps.
	want := g.jobEvents.Load()
	for g.fhEvents.Load() < want {
		select {
		case <-ctx.Done():
			g.dropped.Add(want - g.fhEvents.Load())
			fmt.Fprintf(w, "firehose stalled at %d/%d events\n", g.fhEvents.Load(), want)
			return nil
		case <-time.After(10 * time.Millisecond):
		}
	}
	fhCancel()
	if err := <-fhDone; err != nil && !errors.Is(err, context.Canceled) {
		return fmt.Errorf("firehose: %w", err)
	}
	return nil
}

// runJob submits one campaign (retrying past admission control), streams its
// events checking per-job sequence density, and polls its final status.
func (g *loadgen) runJob(ctx context.Context, req fpgavolt.CampaignRequest) error {
	var st fpgavolt.JobStatus
	for attempt := 0; ; attempt++ {
		start := time.Now()
		var err error
		st, err = g.client.Submit(ctx, req)
		if err == nil {
			g.submit.add(time.Since(start))
			break
		}
		var apiErr *fpgavolt.APIStatusError
		if errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusServiceUnavailable && attempt < 1000 {
			// Queue full: admission control working as designed. Back off
			// long enough for a worker to drain one job.
			g.retries.Add(1)
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(time.Duration(5+attempt%20) * time.Millisecond):
			}
			continue
		}
		return fmt.Errorf("submit: %w", err)
	}

	streamStart := time.Now()
	next := 0
	err := g.client.Events(ctx, st.ID, func(ev fpgavolt.JobEvent) error {
		if ev.Seq != next {
			g.dropped.Add(int64(ev.Seq - next))
		}
		next = ev.Seq + 1
		g.jobEvents.Add(1)
		return nil
	})
	if err != nil {
		return fmt.Errorf("events %s: %w", st.ID, err)
	}
	g.stream.add(time.Since(streamStart))

	start := time.Now()
	final, err := g.client.Job(ctx, st.ID)
	if err != nil {
		return fmt.Errorf("job %s: %w", st.ID, err)
	}
	g.query.add(time.Since(start))
	if final.State != fpgavolt.JobDone {
		g.failures.Add(1)
	}
	return nil
}
