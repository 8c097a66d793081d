package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"time"

	"repro/fpgavolt"
)

// service is what a node serves: a daemon (*fpgavolt.Service) or a
// coordinator (*fpgavolt.Federation).
type service interface {
	Handler() http.Handler
	Shutdown(ctx context.Context) error
}

// node is one in-process daemon or coordinator on a Disk store, served on
// a loopback listener. The program only ever sees the decorated store and
// the HTTP requests the benchmark generates.
type node struct {
	dir   string
	layer string // span layer of its handler: "server" or "fed"
	mk    func(st fpgavolt.FVMStore) (service, error)

	st   *recStore
	svc  service
	hs   *http.Server
	url  string
	done chan struct{}

	// How long the last start took to open the store, to build the service
	// (journal replay), and in all until /healthz answered.
	openDur, replayDur, startDur time.Duration
}

// startNode opens dir as a Disk store and serves mk's service over it.
func startNode(b *bench, dir, layer string, mk func(fpgavolt.FVMStore) (service, error)) (*node, error) {
	n := &node{dir: dir, layer: layer, mk: mk}
	return n, n.start(b)
}

func (n *node) start(b *bench) error {
	t0 := time.Now()
	disk, err := fpgavolt.OpenDiskStore(n.dir)
	if err != nil {
		return fmt.Errorf("open store %s: %w", n.dir, err)
	}
	t1 := time.Now()
	n.st = &recStore{inner: disk, tr: b.tr, ops: &b.ops}
	svc, err := n.mk(n.st)
	if err != nil {
		disk.Close()
		return fmt.Errorf("start service: %w", err)
	}
	t2 := time.Now()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Shutdown(context.Background())
		disk.Close()
		return fmt.Errorf("listen: %w", err)
	}
	n.svc = svc
	n.url = "http://" + ln.Addr().String()
	n.hs = &http.Server{Handler: middleware(b.tr, n.layer, svc.Handler()), ReadHeaderTimeout: 10 * time.Second}
	n.done = make(chan struct{})
	go func() {
		defer close(n.done)
		n.hs.Serve(ln)
	}()
	if err := waitHealthy(n.url); err != nil {
		n.stop()
		return err
	}
	n.openDur, n.replayDur, n.startDur = t1.Sub(t0), t2.Sub(t1), time.Since(t0)
	return nil
}

// waitHealthy polls /healthz until the node answers 200.
func waitHealthy(url string) error {
	hc := &http.Client{Timeout: 5 * time.Second}
	defer hc.CloseIdleConnections()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := hc.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s never became healthy: %v", url, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the service, closes the listener and the store, and waits
// for the serve loop to exit.
func (n *node) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := n.svc.Shutdown(ctx)
	if herr := n.hs.Shutdown(ctx); herr != nil {
		n.hs.Close()
		err = errors.Join(err, herr)
	}
	<-n.done
	return errors.Join(err, n.st.Close())
}

// restart stops the node and starts it again on the same store directory.
// A full collection in between frees the stopped node's garbage, and that
// of the work before the first restart, outside the timed start, so every
// start allocates into the same clean heap.
func (n *node) restart(b *bench) error {
	if err := n.stop(); err != nil {
		return fmt.Errorf("stop: %w", err)
	}
	runtime.GC()
	return n.start(b)
}

// daemonService builds a daemon with default configuration over st.
func daemonService(st fpgavolt.FVMStore) (service, error) {
	return fpgavolt.NewService(fpgavolt.ServiceConfig{Store: st})
}

// coordinatorService returns the constructor of a coordinator over the given
// daemons whose downstream calls pass through rec.
func coordinatorService(downstreams []string, rec *fedRecorder) func(fpgavolt.FVMStore) (service, error) {
	return func(st fpgavolt.FVMStore) (service, error) {
		return fpgavolt.NewFederation(fpgavolt.FederationConfig{
			Downstreams: downstreams,
			Store:       st,
			HTTPClient:  &http.Client{Transport: rec},
		})
	}
}

// client is one closed-loop benchmark client: a service client over its
// own single-connection transport.
type client struct {
	*fpgavolt.Client
	t *clientTransport
}

func newClient(b *bench, url string) *client {
	t := newClientTransport(b.tr)
	return &client{Client: fpgavolt.NewServiceClient(url, &http.Client{Transport: t}), t: t}
}
