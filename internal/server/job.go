package server

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Job is one campaign's lifecycle and event log. The daemon and the
// federation coordinator share it: they differ only in what runs the job
// (the engine fleet, or the shard scheduler) and in the detail hook that
// adds their results to its status. All mutable state is guarded by mu;
// notify is closed and replaced on every change, which is what lets any
// number of SSE streams wait for "something new" without polling. Every
// event additionally flows through the table's firehose (which stamps it
// with a global sequence) and is written through to the journal.
type Job struct {
	id     string
	seq    int // table-assigned creation order; ids are for the wire
	kind   string
	boards int
	// ctx/cancel exist from submission: a DELETE can always cancel, whether
	// the job is still queued, mid-handoff, or running.
	ctx    context.Context
	cancel context.CancelFunc
	t      *JobTable
	// jnMu serializes this job's journal writes with their snapshots (and
	// with eviction's record delete); it nests OUTSIDE mu and must never
	// be taken while holding it. jnDropped and jnNext are guarded by jnMu:
	// jnNext is the Seq of the first event not yet handed to the journal,
	// so the events in ev from jnNext on are the journal's pending queue.
	jnMu      sync.Mutex
	jnDropped bool
	jnNext    int64

	mu       sync.Mutex
	state    JobState
	created  time.Time
	started  time.Time
	finished time.Time
	progress float64
	// ev is the in-memory tail of the job's event log, numbered by Seq. It
	// is trimmed to the table's window once events are durably appended —
	// older sequences are paged back from the journal on demand — so a long
	// campaign's history does not live in RAM twice.
	ev window
	// jnDegraded marks that a journal write for this job has failed and the
	// one-time journal_degraded marker event has been emitted. The job keeps
	// running — durability degrades, service does not.
	jnDegraded bool
	err        error
	// detail adds what the runner knows to a status snapshot: the daemon's
	// board rows, or the coordinator's merged rows, shards and retries. It
	// is called without mu held, so it may take the runner's own locks.
	detail func(st *JobStatus, full bool)
	notify chan struct{}
	// restored holds the journaled status snapshot of a job replayed from
	// a previous process. Such jobs never run again; their status is
	// served from this snapshot instead of recomputed from their results.
	restored *JobStatus
}

// Context is the job's context: cancelled by DELETE, by shutdown, and once
// the job is terminal.
func (j *Job) Context() context.Context { return j.ctx }

// signalLocked wakes every waiter; callers hold j.mu.
func (j *Job) signalLocked() {
	close(j.notify)
	j.notify = make(chan struct{})
}

// appendLocked stamps ev with the job's next Seq and the next global
// sequence, adds it to the tail (which queues it for the journal), and
// wakes the streams; callers hold j.mu and must call j.t.jn.sync(j) after
// releasing it.
func (j *Job) appendLocked(ev JobEvent) {
	ev.Job = j.id
	ev.Seq = int(j.ev.end())
	// Concurrent boards race to emit; monotonicize so dashboards never see
	// the bar move backwards.
	if ev.Progress < j.progress {
		ev.Progress = j.progress
	}
	j.progress = ev.Progress
	j.t.fh.append(&ev) // stamps ev.GSeq; fh.mu nests inside j.mu everywhere
	j.ev.evs = append(j.ev.evs, ev)
	j.signalLocked()
}

// Append records one event under the job's numbering — its Job, Seq and
// GSeq are overwritten and its progress never moves backwards — journals
// it, and wakes the streams.
func (j *Job) Append(ev JobEvent) {
	j.mu.Lock()
	j.appendLocked(ev)
	j.mu.Unlock()
	j.t.jn.sync(j)
}

// noteJournalDegraded appends the one-time journal_degraded marker event
// after a failed journal write: the job keeps running, and live streams
// learn its durable history has a gap instead of discovering it after a
// restart. Callers hold jnMu (both journal error paths do), so the marker
// is only queued for the journal — the next successful drain persists it; a
// recursive jn.sync here would deadlock on jnMu. The marker draws a real
// Seq, so live SSE stays dense. Terminal and replayed jobs are skipped:
// their streams have already been told the job's story ended.
func (j *Job) noteJournalDegraded() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.jnDegraded || j.restored != nil || j.state.Terminal() {
		return
	}
	j.jnDegraded = true
	j.appendLocked(JobEvent{
		Type:  "journal_degraded",
		Error: "journal write failed: event history may not survive a restart",
	})
}

// SetRunning transitions queued → running. It reports false when the job
// was cancelled while queued, in which case the runner must skip it.
func (j *Job) SetRunning() bool {
	j.mu.Lock()
	if j.state != JobQueued {
		j.mu.Unlock()
		return false
	}
	j.state = JobRunning
	j.started = time.Now()
	j.signalLocked()
	j.mu.Unlock()
	j.t.jn.putMeta(j)
	return true
}

// Finish records the outcome of a running job, appends the terminal event,
// and journals the terminal status. A non-nil detail replaces the status
// hook in the same step, so no snapshot shows the results without the
// terminal state.
//
// Cancellation is classified by intent, not by error identity: an error
// that wraps context.DeadlineExceeded, or a board-level error that does not
// wrap either sentinel at all, still means "the job's context was ended on
// purpose" whenever j.ctx is done — reporting such a job as failed would
// send an operator hunting for a fault that was actually their own DELETE.
func (j *Job) Finish(err error, detail func(*JobStatus, bool)) {
	j.mu.Lock()
	j.finished = time.Now()
	j.err = err
	if detail != nil {
		j.detail = detail
	}
	switch {
	case err == nil:
		j.state = JobDone
		j.progress = 100
	case errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded),
		j.ctx.Err() != nil:
		j.state = JobCancelled
	default:
		j.state = JobFailed
	}
	te := JobEvent{Type: "campaign", State: j.state}
	if err != nil {
		te.Error = err.Error()
	}
	j.appendLocked(te)
	j.mu.Unlock()
	j.end()
}

// markCancelled flips a still-queued job straight to cancelled (running jobs
// go through Finish when their runner sees the cancelled context).
func (j *Job) markCancelled() {
	j.mu.Lock()
	if j.state != JobQueued {
		j.mu.Unlock()
		return
	}
	j.state = JobCancelled
	j.finished = time.Now()
	j.appendLocked(JobEvent{Type: "campaign", State: JobCancelled, Error: context.Canceled.Error()})
	j.mu.Unlock()
	j.end()
}

// end settles a job that just turned terminal: its last events and status
// are journaled, retention applies, its context is released, and the table
// may evict finished history.
func (j *Job) end() {
	j.t.jn.sync(j)
	j.t.jn.putMeta(j)
	j.t.jn.retainTerminal(j.id)
	j.cancel()
	j.t.sweep()
}

// terminal reports the job's state under its own lock.
func (j *Job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state.Terminal()
}

// status snapshots the job for the wire. full controls whether the
// aggregate and per-board rows ride along: detail endpoints want them, but
// the jobs listing would otherwise ship O(jobs × boards) payload on every
// dashboard poll.
func (j *Job) status(full bool) JobStatus {
	j.mu.Lock()
	if j.restored != nil {
		// Replayed from the journal: the snapshot is the truth — the
		// results that produced it belong to a dead process.
		st := *j.restored
		j.mu.Unlock()
		if !full {
			st.Aggregate = nil
			st.BoardResults = nil
		}
		return st
	}
	st := JobStatus{
		ID:       j.id,
		Kind:     j.kind,
		State:    j.state,
		Boards:   j.boards,
		Progress: j.progress,
		Created:  j.created,
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	detail := j.detail
	j.mu.Unlock()
	if detail != nil {
		detail(&st, full)
	}
	return st
}

// Accepted journals a just-admitted job and answers 202 with its status.
// From here on a crash replays the job, as failed with the restart message.
func (j *Job) Accepted(w http.ResponseWriter) {
	j.t.jn.putMeta(j)
	WriteJSON(w, http.StatusAccepted, j.status(true))
}

// eventsSince returns the events at sequence ≥ from and a channel closed
// on the next change — nil when waiting would bring nothing: the job is
// terminal, or the events were paged from the journal and more follow at
// once. Sequences below the in-memory tail — trimmed live history, or any
// history of a job restored after a restart — are paged from the journal,
// so a client can resume from sequence 0 without the server holding the
// log in RAM.
func (j *Job) eventsSince(from int64) ([]JobEvent, <-chan struct{}) {
	j.mu.Lock()
	// from == end is a legitimate tail-wait; anything outside [0, end] is a
	// bogus cursor and replays from the start — otherwise a beyond-the-log
	// cursor would wait forever and never see the terminal event.
	if from < 0 || from > j.ev.end() {
		from = 0
	}
	evs, ok := j.ev.from(from)
	if !ok {
		j.mu.Unlock()
		// Cursor predates the tail: page the gap from the journal. A page may
		// overlap the tail (the same immutable events) or come back short
		// when best-effort writes were dropped; either way the cursor
		// advances by what is served and the next call continues from there.
		if evs = j.t.jn.readEvents(j.id, int(from), ssePageSize); len(evs) > 0 {
			return evs, nil
		}
		// Nothing journaled at this depth (a gap): fall forward to the tail.
		j.mu.Lock()
		evs, _ = j.ev.from(j.ev.base)
	}
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return evs, nil
	}
	return evs, j.notify
}

// JobTable is the job-and-stream layer the daemon and the federation
// coordinator share: the job registry, the firehose that stamps and
// multiplexes every job's events, the journal they write through to, and
// the endpoints that list, cancel and stream them. Retention is bounded:
// beyond max entries, the oldest terminal jobs are evicted and unjournaled
// (FVMs live on in the store; only the job row and its event log go). Live
// jobs are never evicted, so the table can exceed max only while that many
// campaigns are actually queued or running.
type JobTable struct {
	ctx       context.Context // parent of every job context; ends every stream
	prefix    string          // job ids read <prefix>-0001, <prefix>-0002, ...
	max       int
	jobWindow int // Config.JobEventWindow
	keepAlive time.Duration
	fh        *firehose
	jn        *journal

	mu    sync.Mutex
	seq   int
	jobs  map[string]*Job
	order []string // creation order, for oldest-first eviction
}

// NewJobTable builds the layer over cfg's store, retention, window and
// stream settings (defaults applied), then replays the journal: jobs it
// holds in a non-terminal state come back failed with restartMsg. Cancelling
// ctx cancels every job and closes every open stream.
func NewJobTable(ctx context.Context, cfg Config, prefix, restartMsg string) (*JobTable, error) {
	cfg = cfg.withDefaults()
	t := &JobTable{
		ctx: ctx, prefix: prefix, max: cfg.MaxJobHistory,
		jobWindow: cfg.JobEventWindow, keepAlive: cfg.SSEKeepAlive,
		fh:   newFirehose(cfg.FirehoseBuffer),
		jn:   newJournal(cfg.Store, cfg.JobRetain),
		jobs: make(map[string]*Job),
	}
	if err := t.replay(restartMsg); err != nil {
		return nil, err
	}
	return t, nil
}

// Create registers a new queued job of the given kind over boards boards.
// detail, when non-nil, is the job's status hook from the start.
func (t *JobTable) Create(kind string, boards int, detail func(*JobStatus, bool)) *Job {
	ctx, cancel := context.WithCancel(t.ctx)
	t.mu.Lock()
	t.seq++
	j := &Job{
		id: fmt.Sprintf("%s-%04d", t.prefix, t.seq), seq: t.seq, kind: kind, boards: boards,
		ctx: ctx, cancel: cancel, t: t, detail: detail,
		state: JobQueued, created: time.Now(), notify: make(chan struct{}),
	}
	t.jobs[j.id] = j
	t.order = append(t.order, j.id)
	evicted := t.evictLocked()
	t.mu.Unlock()
	t.jn.drop(evicted...)
	return j
}

// JournalErrors reports how many journal writes have been dropped.
func (t *JobTable) JournalErrors() uint64 { return t.jn.errs.Load() }

// sweep evicts excess terminal jobs. Every job calls it as it turns
// terminal, so a table that filled up with live jobs shrinks as soon as
// they finish rather than on the next submission.
func (t *JobTable) sweep() {
	t.mu.Lock()
	evicted := t.evictLocked()
	t.mu.Unlock()
	t.jn.drop(evicted...)
}

// evictLocked drops the oldest terminal jobs until the table fits max,
// compacting the order slice in a single pass (the old per-entry
// slice-delete made a full table turn quadratic).
func (t *JobTable) evictLocked() []*Job {
	excess := len(t.jobs) - t.max
	if excess <= 0 {
		return nil
	}
	var evicted []*Job
	kept := t.order[:0]
	for _, id := range t.order {
		j, ok := t.jobs[id]
		if !ok {
			continue
		}
		if excess > 0 && j.terminal() {
			delete(t.jobs, id)
			evicted = append(evicted, j)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	t.order = kept
	return evicted
}

// remove deregisters a job that was never admitted, so a rejected
// submission leaves no phantom entry in the listing.
func (t *JobTable) remove(id string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.jobs, id)
	for i, o := range t.order {
		if o == id {
			t.order = append(t.order[:i], t.order[i+1:]...)
			break
		}
	}
}

// list snapshots every job's status, oldest first. Ordering follows the
// creation sequence, not the id string — "job-10000" must list after
// "job-9999", which lexicographic id order would get wrong.
func (t *JobTable) list() []JobStatus {
	t.mu.Lock()
	jobs := make([]*Job, 0, len(t.jobs))
	for _, j := range t.jobs {
		jobs = append(jobs, j)
	}
	t.mu.Unlock()
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].seq < jobs[k].seq })
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.status(false))
	}
	return out
}

// Routes registers the job and stream endpoints on mux. Cancelling a job
// requires token when one is set; listings and streams stay open.
func (t *JobTable) Routes(mux *http.ServeMux, token string) {
	mux.HandleFunc("GET /v1/jobs", t.handleJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", t.handleJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", RequireAuth(token, t.handleCancel))
	mux.HandleFunc("GET /v1/jobs/{id}/events", t.handleEvents)
	mux.HandleFunc("GET /v1/events", t.handleFirehose)
}

func (t *JobTable) handleJobs(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, t.list())
}

func (t *JobTable) lookupJob(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	t.mu.Lock()
	job, ok := t.jobs[r.PathValue("id")]
	t.mu.Unlock()
	if !ok {
		WriteError(w, &APIStatusError{StatusCode: http.StatusNotFound,
			Message: fmt.Sprintf("unknown job %q", r.PathValue("id"))})
	}
	return job, ok
}

func (t *JobTable) handleJob(w http.ResponseWriter, r *http.Request) {
	if job, ok := t.lookupJob(w, r); ok {
		WriteJSON(w, http.StatusOK, job.status(true))
	}
}

// handleCancel cancels a queued or running job. Cancelling a terminal job is
// a no-op that reports the final state.
func (t *JobTable) handleCancel(w http.ResponseWriter, r *http.Request) {
	job, ok := t.lookupJob(w, r)
	if !ok {
		return
	}
	job.markCancelled() // queued → cancelled immediately
	job.cancel()        // running → the runner unwinds via ctx and calls Finish
	WriteJSON(w, http.StatusOK, job.status(true))
}

// sseRetryHint is the reconnect delay SSE streams advertise to clients.
const sseRetryHint = 2 * time.Second

// startSSE emits the stream headers, a retry hint, and an immediate flush,
// returning the flusher (or false when the writer cannot stream). The
// retry hint and the keepalive ticker the handlers run afterwards are what
// keep an idle stream alive across proxies: without them a stream attached
// to a job stuck behind a full queue writes nothing after the headers
// until the job starts, and an intermediary severs it long before that.
func startSSE(w http.ResponseWriter) (http.Flusher, bool) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		WriteError(w, &APIStatusError{StatusCode: http.StatusInternalServerError, Message: "response writer cannot stream"})
		return nil, false
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, "retry: %d\n\n", sseRetryHint.Milliseconds())
	flusher.Flush()
	return flusher, true
}

// sseKeepAlive writes one comment frame; proxies pass it through, clients
// ignore it, and both learn the connection is still alive.
func sseKeepAlive(w http.ResponseWriter, flusher http.Flusher) {
	fmt.Fprint(w, ": keepalive\n\n")
	flusher.Flush()
}

// ssePageSize bounds how many journaled events one read of a deep resume
// pages back into memory; the SSE loop drains page after page.
const ssePageSize = 512

// serveSSE streams events as Server-Sent Events from the client's resume
// cursor: the Last-Event-ID header (or ?after=), or -1 when it is absent,
// malformed or negative. read returns the events after a cursor and a
// channel closed on the next change; a nil channel means waiting would
// bring nothing, so the loop reads again at once and ends the stream when
// such a read comes back empty. id gives each frame's id, which is also the
// cursor the next read resumes after. Comment keepalives flow while the
// source is idle (e.g. a job queued behind a full worker pool).
func (t *JobTable) serveSSE(w http.ResponseWriter, r *http.Request, id func(*JobEvent) int64,
	read func(after int64) ([]JobEvent, <-chan struct{})) {
	after := int64(-1)
	if c := cmp.Or(r.Header.Get("Last-Event-ID"), r.URL.Query().Get("after")); c != "" {
		if n, err := strconv.ParseInt(c, 10, 64); err == nil && n >= 0 {
			after = n
		}
	}
	flusher, ok := startSSE(w)
	if !ok {
		return
	}
	keepalive := time.NewTicker(t.keepAlive)
	defer keepalive.Stop()

	for {
		evs, changed := read(after)
		for i := range evs {
			data, err := json.Marshal(&evs[i])
			if err != nil {
				return
			}
			after = id(&evs[i])
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", after, evs[i].Type, data)
		}
		if len(evs) > 0 {
			flusher.Flush()
		}
		if changed == nil {
			if len(evs) == 0 {
				return
			}
			continue
		}
		select {
		case <-changed:
		case <-keepalive.C:
			sseKeepAlive(w, flusher)
		case <-r.Context().Done():
			return
		case <-t.ctx.Done():
			return
		}
	}
}

// handleEvents streams one job's event log, ids being its Seq: history
// first, then live events, closing after the terminal "campaign" event. A
// resume cursor outside the log replays from the start.
func (t *JobTable) handleEvents(w http.ResponseWriter, r *http.Request) {
	if job, ok := t.lookupJob(w, r); ok {
		t.serveSSE(w, r, func(ev *JobEvent) int64 { return int64(ev.Seq) },
			func(after int64) ([]JobEvent, <-chan struct{}) { return job.eventsSince(after + 1) })
	}
}

// handleFirehose streams every job's events, multiplexed in global-sequence
// order and tagged with job ids — the fleet dashboard feed. The stream has
// no terminal event; it runs until the client disconnects or the service
// shuts down. The cursor is a global sequence, which survives restarts via
// the journal; a cursor older than the in-memory replay window — any depth,
// including 0 across a restart — is paged out of the journal until it
// catches up to the window, then streams live. Only a gap from dropped
// best-effort writes clamps the cursor forward to the window's edge.
func (t *JobTable) handleFirehose(w http.ResponseWriter, r *http.Request) {
	t.serveSSE(w, r, func(ev *JobEvent) int64 { return ev.GSeq },
		func(after int64) ([]JobEvent, <-chan struct{}) {
			after = max(after, 0) // GSeqs start at 1, so no cursor reads after 0
			for {
				if evs, changed, ok := t.fh.since(after); ok {
					return evs, changed
				}
				if page := t.jn.firehosePage(after, ssePageSize); len(page) > 0 {
					return page, nil
				}
				// Nothing journaled below the window: clamp to its edge. The
				// low-water mark only rises, so this always makes progress.
				after = t.fh.lowWater()
			}
		})
}
