package server

import (
	"context"
	"encoding/json"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/store"
)

// jobMeta is the journaled metadata of one job: its full wire status
// (terminal results included), O(1) in the job's event count. Events are
// appended separately through the store's event log, so a journal write on
// an event mutation costs O(that event), not O(the job's history).
type jobMeta struct {
	Status JobStatus `json:"status"`
}

// journal write-throughs job state into the store, so the job table — not
// just the FVMs it produced — survives a restart. Job metadata is one
// record, rewritten only on state transitions; events are appended to the
// store's per-job event log, one O(1) write each, and read back in pages
// for deep SSE/firehose resume.
//
// Journal writes are deliberately best-effort: a full disk must degrade
// the service (jobs forgotten on restart), not fail live campaigns.
// Failures are counted and surfaced through /healthz; readers tolerate the
// resulting gaps.
type journal struct {
	st store.Store
	// retain, when > 0, trims each terminal job's durable event log to (at
	// least) its last retain events — Config.JobRetain.
	retain int
	errs   atomic.Uint64
}

func newJournal(st store.Store, retain int) *journal {
	return &journal{st: st, retain: retain}
}

// retainTerminal applies the journal's retention bound to a job that just
// reached (or was replayed in) a terminal state. Best-effort, like every
// journal write: a failed trim keeps more history, never less.
func (jn *journal) retainTerminal(id string) {
	if jn.retain <= 0 {
		return
	}
	if err := jn.st.TrimJobEvents(id, jn.retain); err != nil {
		jn.errs.Add(1)
	}
}

// putMeta persists j's metadata record. The job's journal mutex is held
// across snapshot AND write: two racing puts (say, the submit handler's
// queued-state write and the runner's running transition) would otherwise
// be free to land on disk in the opposite order of their snapshots, leaving
// a stale status as the job's journaled truth.
func (jn *journal) putMeta(j *Job) {
	j.jnMu.Lock()
	defer j.jnMu.Unlock()
	if j.jnDropped {
		// The table evicted this job and its record was deleted; writing
		// now would resurrect it on the next restart.
		return
	}
	payload, err := json.Marshal(jobMeta{Status: j.status(true)})
	if err == nil {
		err = jn.st.PutJob(&store.JobRecord{ID: j.id, Seq: j.seq, Payload: payload})
	}
	if err != nil {
		jn.errs.Add(1)
		j.noteJournalDegraded()
	}
}

// sync hands j's pending events — the tail from jnNext on — to the store's
// event log. The drain is serialized by jnMu (outside j.mu, like every
// journal write), so two appenders racing here cannot land their batches
// out of order — each drain takes whatever is queued, in queue order, and
// the loser finds the queue empty. A batch is handed over once: on success
// the job trims its tail down to its window, never past jnNext; on failure
// the events stay counted as journal errors, are not retried, and the tail
// is kept whole, so SSE never depends on a write that did not happen.
func (jn *journal) sync(j *Job) {
	j.jnMu.Lock()
	defer j.jnMu.Unlock()
	if j.jnDropped {
		return
	}
	j.mu.Lock()
	pending, _ := j.ev.from(j.jnNext)
	j.mu.Unlock()
	if len(pending) == 0 {
		return
	}
	j.jnNext += int64(len(pending))
	recs := make([]store.EventRecord, 0, len(pending))
	for i := range pending {
		payload, err := json.Marshal(&pending[i])
		if err != nil {
			jn.errs.Add(1)
			continue
		}
		recs = append(recs, store.EventRecord{
			Job: j.id, Seq: pending[i].Seq, GSeq: pending[i].GSeq, Payload: payload,
		})
	}
	if len(recs) == 0 {
		return
	}
	if err := jn.st.AppendJobEvents(j.id, recs); err != nil {
		jn.errs.Add(1)
		j.noteJournalDegraded()
		return
	}
	j.mu.Lock()
	j.ev.trim(j.t.jobWindow, j.jnNext)
	j.mu.Unlock()
}

// readEvents pages one job's journaled events with Seq >= from. Corrupt
// payloads are skipped; a store read failure degrades to an empty page (the
// caller falls forward to the in-memory tail).
func (jn *journal) readEvents(id string, from, limit int) []JobEvent {
	recs, err := jn.st.ReadJobEvents(id, from, limit)
	if err != nil {
		return nil
	}
	return decodeEventRecords(recs)
}

// firehosePage pages journaled events across all jobs with GSeq > after.
func (jn *journal) firehosePage(after int64, limit int) []JobEvent {
	recs, err := jn.st.ReadFirehose(after, limit)
	if err != nil {
		return nil
	}
	return decodeEventRecords(recs)
}

func decodeEventRecords(recs []store.EventRecord) []JobEvent {
	evs := make([]JobEvent, 0, len(recs))
	for _, rec := range recs {
		if rec.Truncated {
			// Synthetic marker, no payload: the store dropped this job's
			// history through rec.Seq. Surface it as its own event type so
			// resuming clients see the gap instead of inferring one.
			evs = append(evs, JobEvent{Seq: rec.Seq, GSeq: rec.GSeq, Job: rec.Job, Type: "truncated"})
			continue
		}
		var ev JobEvent
		if err := json.Unmarshal(rec.Payload, &ev); err != nil {
			continue
		}
		evs = append(evs, ev)
	}
	return evs
}

// drop deletes evicted jobs' records (event logs included) and tombstones
// the jobs, so an in-flight write racing with the eviction cannot write a
// record back.
func (jn *journal) drop(jobs ...*Job) {
	for _, j := range jobs {
		j.jnMu.Lock()
		j.jnDropped = true
		if err := jn.st.DeleteJob(j.id); err != nil {
			jn.errs.Add(1)
		}
		j.jnMu.Unlock()
	}
}

// replay rebuilds the table from the journal at boot. Only metadata
// records and the stores' bounded event-log indexes are read — never the
// event bodies — so boot cost is O(jobs), not O(events); deep SSE and
// firehose resumes page events on demand instead. Jobs journaled in a
// non-terminal state were running or queued when the previous process
// died; they are marked failed with restartMsg. Torn journal records are
// skipped — replay must degrade, not refuse to boot.
func (t *JobTable) replay(restartMsg string) error {
	recs, err := t.jn.st.ListJobs()
	if err != nil {
		return fmt.Errorf("replay journal: %w", err)
	}
	type loaded struct {
		rec    *store.JobRecord
		status JobStatus
	}
	var docs []loaded
	for _, rec := range recs {
		var meta jobMeta
		if err := json.Unmarshal(rec.Payload, &meta); err != nil || meta.Status.ID != rec.ID {
			continue
		}
		// Ids are never reissued, not even those of jobs dropped below.
		t.seq = max(t.seq, rec.Seq)
		docs = append(docs, loaded{rec, meta.Status})
	}
	// The global sequence must resume past every journaled event — read it
	// before retention trims any job, so a dropped job's sequences are
	// never reissued.
	maxGSeq, err := t.jn.st.LastGSeq()
	if err != nil {
		return fmt.Errorf("replay journal: %w", err)
	}
	// The table's retention bound applies to replayed jobs too: keep the
	// newest max, unjournal the rest. recs (and so docs) are already in
	// submission order, and none of them is a live Job yet, so no racing
	// writer exists to tombstone.
	if drop := len(docs) - t.max; drop > 0 {
		for _, d := range docs[:drop] {
			if err := t.jn.st.DeleteJob(d.rec.ID); err != nil {
				t.jn.errs.Add(1)
			}
		}
		docs = docs[drop:]
	}
	// The firehose window starts empty: restart markers appended below draw
	// fresh sequences, and resumes below the window page from the journal.
	t.fh.startAfter(maxGSeq)

	var interrupted []*Job
	for _, d := range docs {
		// Restored jobs never run again: their context is born cancelled,
		// and their tail (and journal cursor) starts at the log's end, so
		// any SSE replay pages from the store instead of RAM.
		nextSeq, _, err := t.jn.st.JobEventStats(d.rec.ID)
		if err != nil {
			nextSeq = 0
		}
		ctx, cancel := context.WithCancel(t.ctx)
		cancel()
		st := d.status
		j := &Job{
			id: d.rec.ID, seq: d.rec.Seq, kind: st.Kind, boards: st.Boards,
			ctx: ctx, cancel: cancel, t: t,
			state: st.State, created: st.Created, progress: st.Progress,
			ev: window{base: int64(nextSeq)}, jnNext: int64(nextSeq),
			notify: make(chan struct{}), restored: &st,
		}
		t.jobs[j.id] = j
		t.order = append(t.order, j.id)
		if !st.State.Terminal() {
			interrupted = append(interrupted, j)
		} else {
			// Retention applies to replayed history too, so a service whose
			// JobRetain was lowered (or first set) reclaims disk at boot.
			t.jn.retainTerminal(j.id)
		}
	}
	for _, j := range interrupted {
		j.failRestored(restartMsg)
	}
	return nil
}

// failRestored finishes a replayed job that was queued or running when the
// previous process died: state failed, a terminal event (with a fresh
// global sequence) appended and journaled, and the metadata record updated.
func (j *Job) failRestored(msg string) {
	j.mu.Lock()
	now := time.Now()
	j.state = JobFailed
	j.finished = now
	j.restored.State = JobFailed
	j.restored.Error = msg
	j.restored.Finished = &now
	j.appendLocked(JobEvent{Type: "campaign", State: JobFailed, Error: msg})
	j.mu.Unlock()
	j.end()
}
