// Command fpgavoltctl is the federated control plane: one coordinator
// fronting many fpgavoltd daemons behind the same /v1 API a single daemon
// serves, so existing clients point at it unchanged.
//
// A submitted campaign is sharded across the daemons by consistent hashing
// on (platform, serial) — each board always lands on the daemon whose FVM
// store is warm for it — with work-stealing when shards finish unevenly.
// Downstream events are re-stamped into one totally ordered, journaled
// stream: GET /v1/events resumes by Last-Event-ID across coordinator
// restarts, exactly like a single daemon's firehose. When a daemon dies
// mid-campaign its unfinished shards are retried on survivors, and the
// failover is recorded in the job detail (`shards` / `retries`).
//
// Usage:
//
//	fpgavoltctl -downstream http://host1:8080 -downstream http://host2:8080
//	            [-listen :9090] [-store fed-store] [-max-boards 256]
//	            [-chunk-boards 4] [-retry-limit 3] [-health-every 1s]
//	            [-health-fail 3] [-health-ok 2] [-downstream-timeout 15s]
//	            [-stream-retries 5] [-job-retain 0] [-auth-token ""]
//	            [-downstream-token ""]
//
// Every daemon sits behind a circuit breaker: -health-fail consecutive
// failures (probes or real calls) trip it open, -health-ok consecutive
// successes close it again, so one dropped probe never flaps a daemon out of
// the shard plan. -downstream-timeout bounds every non-streaming downstream
// call; broken event streams are resumed in place up to -stream-retries
// times before the shard fails over.
//
// -auth-token (or FPGAVOLTCTL_TOKEN) gates the coordinator's own mutating
// endpoints; -downstream-token (or FPGAVOLTD_TOKEN) is the bearer token the
// coordinator presents to the daemons. Queries (/v1/fvms, /v1/vmin) answer
// over the union of every reachable daemon's store.
//
// Every campaign kind rides the federation unchanged, mitigation included: a
// `"kind": "mitigation"` submission (see the kind-scoped `mitigation{}`
// request object) shards its boards like any other campaign, per-level
// progress events cross the fan-in, and the coordinator's aggregate carries
// each arm's cross-chip min-safe-voltage and energy-savings spread exactly as
// a single daemon would report it.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/fpgavolt"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], nil); err != nil {
		fmt.Fprintln(os.Stderr, "fpgavoltctl:", err)
		os.Exit(1)
	}
}

// stringList collects a repeatable -downstream flag.
type stringList []string

func (l *stringList) String() string { return fmt.Sprint([]string(*l)) }
func (l *stringList) Set(v string) error {
	*l = append(*l, v)
	return nil
}

// run is main with its exits made testable: flags come in as a slice, ready
// (if non-nil) receives the bound listen address once serving, and
// cancelling ctx triggers the same graceful drain a signal does.
func run(ctx context.Context, args []string, ready chan<- string) error {
	fs := flag.NewFlagSet("fpgavoltctl", flag.ExitOnError)
	var downstreams stringList
	fs.Var(&downstreams, "downstream", "downstream fpgavoltd base URL (repeatable)")
	var (
		listen       = fs.String("listen", ":9090", "HTTP listen address")
		storeDir     = fs.String("store", "fed-store", "coordinator journal directory (jobs, event logs, firehose cursor)")
		maxBoards    = fs.Int("max-boards", 256, "largest fleet one federated campaign may enroll")
		chunkBoards  = fs.Int("chunk-boards", 4, "boards per downstream shard (smaller steals better)")
		retryLimit   = fs.Int("retry-limit", 3, "attempts per shard before its boards fail")
		healthEvery  = fs.Duration("health-every", time.Second, "downstream health-check cadence")
		healthFail   = fs.Int("health-fail", 3, "consecutive probe/call failures that trip a daemon's circuit breaker open")
		healthOk     = fs.Int("health-ok", 2, "consecutive successes that close a tripped breaker again")
		downTimeout  = fs.Duration("downstream-timeout", 15*time.Second, "deadline on every non-streaming coordinator→daemon call")
		streamRetry  = fs.Int("stream-retries", 5, "consecutive fruitless event-stream resumes before a shard fails over")
		jobRetain    = fs.Int("job-retain", 0, "trim a finished job's journaled event log to at least its last N events (whole sealed segments; resumes below get a truncation marker); 0 = keep everything")
		authToken    = fs.String("auth-token", "", "bearer token required on mutating endpoints (default $FPGAVOLTCTL_TOKEN; empty = open)")
		downToken    = fs.String("downstream-token", "", "bearer token presented to the daemons (default $FPGAVOLTD_TOKEN)")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight federated jobs")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(downstreams) == 0 {
		return errors.New("at least one -downstream is required")
	}
	if *authToken == "" {
		*authToken = os.Getenv("FPGAVOLTCTL_TOKEN")
	}
	if *downToken == "" {
		*downToken = os.Getenv("FPGAVOLTD_TOKEN")
	}

	st, err := fpgavolt.OpenDiskStore(*storeDir)
	if err != nil {
		return err
	}
	coord, err := fpgavolt.NewFederation(fpgavolt.FederationConfig{
		Downstreams:       downstreams,
		Store:             st,
		MaxBoards:         *maxBoards,
		ChunkBoards:       *chunkBoards,
		RetryLimit:        *retryLimit,
		HealthEvery:       *healthEvery,
		HealthFailN:       *healthFail,
		HealthOkN:         *healthOk,
		DownstreamTimeout: *downTimeout,
		StreamRetries:     *streamRetry,
		JobRetain:         *jobRetain,
		AuthToken:         *authToken,
		DownstreamToken:   *downToken,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	// No WriteTimeout: the merged firehose is a long-lived SSE stream.
	hs := &http.Server{Handler: coord.Handler(), ReadHeaderTimeout: 10 * time.Second}
	log.Printf("fpgavoltctl: serving on %s (%d downstream daemons, journal %s)", ln.Addr(), len(downstreams), *storeDir)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	log.Printf("fpgavoltctl: draining (up to %v)...", *drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := coord.Shutdown(dctx); err != nil {
		log.Printf("fpgavoltctl: drain incomplete: %v", err)
	}
	if err := hs.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	log.Printf("fpgavoltctl: stopped")
	return st.Close()
}
