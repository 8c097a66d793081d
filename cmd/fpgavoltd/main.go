// Command fpgavoltd is the campaign service daemon: it serves the fleet
// engine over an HTTP JSON API, backed by a durable on-disk FVM store, so
// every board in an organization is characterized exactly once — across
// jobs, clients, and process restarts. Jobs are durable too: the store's
// journal replays the job table (listings, event logs, firehose cursors)
// after a restart, with jobs caught mid-run coming back as failed with a
// restart marker.
//
// Usage:
//
//	fpgavoltd [-listen :8080] [-store fvm-store] [-workers 2]
//	          [-queue 16] [-fleet-workers 0] [-max-boards 64]
//	          [-gc-keep 0] [-job-retain 0]
//	          [-job-live-segs 0] [-auth-token ""]
//
// With -auth-token (or FPGAVOLTD_TOKEN in the environment) every mutating
// endpoint — campaign submission, job cancellation, record deletion, GC —
// requires `Authorization: Bearer <token>`; reads and streams stay open.
//
// Endpoints (see internal/server for the full contract):
//
//	POST   /v1/campaigns        submit a campaign → queued job
//	GET    /v1/jobs/{id}        poll a job
//	GET    /v1/jobs/{id}/events stream progress over SSE
//	GET    /v1/events           firehose: all jobs' events, multiplexed
//	DELETE /v1/jobs/{id}        cancel a job
//	GET    /v1/fvms             query stored FVMs (?platform=&serial=)
//	DELETE /v1/fvms/{id}        admin: drop one stored record
//	GET    /v1/vmin             per-board operating windows
//	GET    /healthz             liveness
//
// On SIGINT/SIGTERM the daemon stops intake and drains in-flight campaigns,
// cancelling whatever is still running after -drain-timeout.
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
		fmt.Fprintln(os.Stderr, "fpgavoltd:", err)
		os.Exit(1)
	}
}

// run is main with its exits made testable: flags come in as a slice, ready
// (if non-nil) receives the bound listen address once serving, and
// cancelling ctx triggers the same graceful drain a signal does.
func run(ctx context.Context, args []string, ready chan<- string) error {
	fs := flag.NewFlagSet("fpgavoltd", flag.ExitOnError)
	var (
		listen       = fs.String("listen", ":8080", "HTTP listen address")
		storeDir     = fs.String("store", "fvm-store", "FVM store root directory")
		workers      = fs.Int("workers", 2, "concurrent campaign jobs")
		queueDepth   = fs.Int("queue", 16, "pending-job queue depth")
		fleetWorkers = fs.Int("fleet-workers", 0, "concurrent boards per campaign (0 = auto)")
		maxBoards    = fs.Int("max-boards", 64, "largest fleet one campaign may enroll")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight jobs")
		gcKeep       = fs.Int("gc-keep", 0, "keep only the newest N store records per (platform, serial); 0 = unbounded")
		jobRetain    = fs.Int("job-retain", 0, "trim a finished job's journaled event log to at least its last N events (whole sealed segments; resumes below get a truncation marker); 0 = keep everything")
		jobLiveSegs  = fs.Int("job-live-segs", 0, "cap a running job's sealed event-log segments; older history is dropped and resumes below it get a truncation marker; 0 = unlimited")
		authToken    = fs.String("auth-token", "", "bearer token required on mutating endpoints (default $FPGAVOLTD_TOKEN; empty = open)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *authToken == "" {
		*authToken = os.Getenv("FPGAVOLTD_TOKEN")
	}

	st, err := fpgavolt.OpenDiskStore(*storeDir)
	if err != nil {
		return err
	}
	st.SetLiveSegCap(*jobLiveSegs)
	svc, err := fpgavolt.NewService(fpgavolt.ServiceConfig{
		Store:        st,
		Workers:      *workers,
		QueueDepth:   *queueDepth,
		FleetWorkers: *fleetWorkers,
		MaxBoards:    *maxBoards,
		GCKeep:       *gcKeep,
		JobRetain:    *jobRetain,
		AuthToken:    *authToken,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	// ReadHeaderTimeout keeps slow-header connections from pinning
	// goroutines forever; no WriteTimeout, because SSE streams are
	// long-lived by design.
	hs := &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: 10 * time.Second}
	log.Printf("fpgavoltd: serving on %s (store %s, %d workers)", ln.Addr(), *storeDir, *workers)
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

	log.Printf("fpgavoltd: draining (up to %v)...", *drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := svc.Shutdown(dctx); err != nil {
		log.Printf("fpgavoltd: drain incomplete: %v", err)
	}
	if err := hs.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	log.Printf("fpgavoltd: stopped")
	return st.Close()
}
