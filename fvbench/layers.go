package main

import (
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/fpgavolt"
	"repro/internal/store"
)

// The store operations the decorator times, in store.Store method order.
const (
	opPut = iota
	opGet
	opGetID
	opList
	opDelete
	opGC
	opPutJob
	opListJobs
	opDeleteJob
	opAppend
	opReadJobEvents
	opJobEventStats
	opReadFirehose
	opTrim
	opLastGSeq
	opClose
	numOps
)

var opNames = [numOps]string{
	"store.put", "store.get", "store.get_id", "store.list", "store.delete", "store.gc",
	"store.put_job", "store.list_jobs", "store.delete_job", "store.append",
	"store.read_job_events", "store.job_event_stats", "store.read_firehose",
	"store.trim", "store.last_gseq", "store.close",
}

// opCount is one store operation's traced totals: calls and the records
// they moved (events appended or read).
type opCount struct{ calls, items atomic.Int64 }

// recStore is the store.Store decorator the benchmark hands the program as
// ServiceConfig.Store or FederationConfig.Store. It forwards every call to
// the Disk store it wraps and, while tracing, times each one as a span and
// counts it.
type recStore struct {
	inner fpgavolt.FVMStore
	tr    *tracer
	ops   *[numOps]opCount // shared by every store of the run
}

var _ store.Store = (*recStore)(nil)

// journalBytes reports the wrapped store's journal byte counter (0 for a
// store without one).
func (r *recStore) journalBytes() uint64 {
	if jb, ok := r.inner.(interface{ JournalBytes() uint64 }); ok {
		return jb.JournalBytes()
	}
	return 0
}

// done closes one traced call started at t0.
func (r *recStore) done(op int, job string, items int, t0 time.Time) {
	r.tr.add(opNames[op], 0, 0, job, t0, time.Now())
	r.ops[op].calls.Add(1)
	r.ops[op].items.Add(int64(items))
}

func (r *recStore) Put(rec *store.Record) error {
	if !r.tr.on() {
		return r.inner.Put(rec)
	}
	t0 := time.Now()
	err := r.inner.Put(rec)
	r.done(opPut, rec.Key.Serial, 1, t0)
	return err
}

func (r *recStore) Get(k store.Key) (*store.Record, bool, error) {
	if !r.tr.on() {
		return r.inner.Get(k)
	}
	t0 := time.Now()
	rec, ok, err := r.inner.Get(k)
	r.done(opGet, k.Serial, 1, t0)
	return rec, ok, err
}

func (r *recStore) GetID(id string) (*store.Record, bool, error) {
	if !r.tr.on() {
		return r.inner.GetID(id)
	}
	t0 := time.Now()
	rec, ok, err := r.inner.GetID(id)
	r.done(opGetID, "", 1, t0)
	return rec, ok, err
}

func (r *recStore) List() ([]store.Meta, error) {
	if !r.tr.on() {
		return r.inner.List()
	}
	t0 := time.Now()
	ms, err := r.inner.List()
	r.done(opList, "", len(ms), t0)
	return ms, err
}

func (r *recStore) Delete(id string) (store.Meta, bool, error) {
	if !r.tr.on() {
		return r.inner.Delete(id)
	}
	t0 := time.Now()
	m, ok, err := r.inner.Delete(id)
	r.done(opDelete, "", 1, t0)
	return m, ok, err
}

func (r *recStore) GC(keep int) ([]store.Meta, error) {
	if !r.tr.on() {
		return r.inner.GC(keep)
	}
	t0 := time.Now()
	ms, err := r.inner.GC(keep)
	r.done(opGC, "", len(ms), t0)
	return ms, err
}

func (r *recStore) PutJob(rec *store.JobRecord) error {
	if !r.tr.on() {
		return r.inner.PutJob(rec)
	}
	t0 := time.Now()
	err := r.inner.PutJob(rec)
	r.done(opPutJob, rec.ID, 1, t0)
	return err
}

func (r *recStore) ListJobs() ([]*store.JobRecord, error) {
	if !r.tr.on() {
		return r.inner.ListJobs()
	}
	t0 := time.Now()
	js, err := r.inner.ListJobs()
	r.done(opListJobs, "", len(js), t0)
	return js, err
}

func (r *recStore) DeleteJob(id string) error {
	if !r.tr.on() {
		return r.inner.DeleteJob(id)
	}
	t0 := time.Now()
	err := r.inner.DeleteJob(id)
	r.done(opDeleteJob, id, 1, t0)
	return err
}

func (r *recStore) AppendJobEvents(id string, evs []store.EventRecord) error {
	if !r.tr.on() {
		return r.inner.AppendJobEvents(id, evs)
	}
	t0 := time.Now()
	err := r.inner.AppendJobEvents(id, evs)
	r.done(opAppend, id, len(evs), t0)
	return err
}

func (r *recStore) ReadJobEvents(id string, from, limit int) ([]store.EventRecord, error) {
	if !r.tr.on() {
		return r.inner.ReadJobEvents(id, from, limit)
	}
	t0 := time.Now()
	evs, err := r.inner.ReadJobEvents(id, from, limit)
	r.done(opReadJobEvents, id, len(evs), t0)
	return evs, err
}

func (r *recStore) JobEventStats(id string) (int, int64, error) {
	if !r.tr.on() {
		return r.inner.JobEventStats(id)
	}
	t0 := time.Now()
	n, g, err := r.inner.JobEventStats(id)
	r.done(opJobEventStats, id, 1, t0)
	return n, g, err
}

func (r *recStore) ReadFirehose(after int64, limit int) ([]store.EventRecord, error) {
	if !r.tr.on() {
		return r.inner.ReadFirehose(after, limit)
	}
	t0 := time.Now()
	evs, err := r.inner.ReadFirehose(after, limit)
	r.done(opReadFirehose, "", len(evs), t0)
	return evs, err
}

func (r *recStore) TrimJobEvents(id string, keepLast int) error {
	if !r.tr.on() {
		return r.inner.TrimJobEvents(id, keepLast)
	}
	t0 := time.Now()
	err := r.inner.TrimJobEvents(id, keepLast)
	r.done(opTrim, id, 1, t0)
	return err
}

func (r *recStore) LastGSeq() (int64, error) {
	if !r.tr.on() {
		return r.inner.LastGSeq()
	}
	t0 := time.Now()
	g, err := r.inner.LastGSeq()
	r.done(opLastGSeq, "", 1, t0)
	return g, err
}

func (r *recStore) Close() error {
	if !r.tr.on() {
		return r.inner.Close()
	}
	t0 := time.Now()
	err := r.inner.Close()
	r.done(opClose, "", 1, t0)
	return err
}

// spanHeader carries a client span id to the server middleware, which
// parents its handler span to it.
const spanHeader = "X-Fvbench-Span"

// middleware wraps a daemon's or coordinator's Handler(): while tracing it
// times every request as a span named <layer>.<route>.
func middleware(tr *tracer, layer string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !tr.on() {
			h.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		h.ServeHTTP(w, r)
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		route, job := routeOf(r.Method, r.URL.Path)
		tr.add(layer+"."+route, 0, parent, job, t0, time.Now())
	})
}

// routeOf names the API route of a request and the job id in its path.
func routeOf(method, path string) (route, job string) {
	rest, isJob := strings.CutPrefix(path, "/v1/jobs/")
	switch {
	case method == http.MethodPost && path == "/v1/campaigns":
		return "submit", ""
	case isJob && strings.HasSuffix(rest, "/events"):
		return "events", strings.TrimSuffix(rest, "/events")
	case isJob:
		return "job", rest
	case path == "/v1/events":
		return "firehose", ""
	case path == "/healthz":
		return "health", ""
	}
	return "other", ""
}

// clientTransport is the benchmark clients' transport: one connection at a
// time per client, and while tracing it forwards the calling span's id.
type clientTransport struct {
	inner http.RoundTripper
	tr    *tracer
}

func newClientTransport(tr *tracer) *clientTransport {
	return &clientTransport{inner: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}, tr: tr}
}

func (t *clientTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if id := spanFrom(req.Context()); id != 0 && t.tr.on() {
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	}
	return t.inner.RoundTrip(req)
}

func (t *clientTransport) close() {
	if tr, ok := t.inner.(*http.Transport); ok {
		tr.CloseIdleConnections()
	}
}

// fedRecorder is the coordinator's FederationConfig.HTTPClient transport:
// every coordinator→daemon call passes through it. While tracing it times
// submits and status reads, times each event stream until its body closes,
// and counts failures (transport errors and 5xx answers, admission-control
// refusals included).
type fedRecorder struct {
	inner http.RoundTripper
	tr    *tracer

	failures       atomic.Int64 // counted always: a refusal is a failed op
	tracedFailures atomic.Int64 // the failures while tracing
	calls          atomic.Int64 // traced downstream calls, probes excluded
}

func (f *fedRecorder) RoundTrip(req *http.Request) (*http.Response, error) {
	route, job := routeOf(req.Method, req.URL.Path)
	t0 := time.Now()
	resp, err := f.inner.RoundTrip(req)
	if (err != nil || resp.StatusCode >= 500) && route != "health" {
		f.failures.Add(1)
		if f.tr.on() {
			f.tracedFailures.Add(1)
		}
	}
	if !f.tr.on() || route == "health" {
		return resp, err
	}
	f.calls.Add(1)
	key := req.URL.Host + "/" + job
	if route == "events" && err == nil {
		resp.Body = &streamBody{ReadCloser: resp.Body, end: func() {
			f.tr.add("fed.downstream_stream", 0, 0, key, t0, time.Now())
		}}
		return resp, err
	}
	f.tr.add("fed.downstream_"+route, 0, 0, key, t0, time.Now())
	return resp, err
}

// streamBody reports when a downstream event stream is closed.
type streamBody struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *streamBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}
