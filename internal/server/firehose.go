package server

import (
	"math"
	"sync"
)

// firehose is the job table's event multiplexer behind GET /v1/events:
// every job event, tagged with its job id and stamped with a global
// sequence number, in one totally ordered stream. The global sequence is
// what makes the stream resumable — it rides each event into the job
// journal, so after a restart the firehose resumes exactly where the
// previous process left off.
//
// The replay log is a bounded in-memory window holding only events
// appended since boot. A subscriber whose cursor predates the window (a
// deep resume, or any resume across a restart) is paged out of the journal
// by the handler until it catches up to the low-water mark; live events are
// never dropped for a connected subscriber, because delivery is pull-based
// off this log.
type firehose struct {
	mu     sync.Mutex
	w      window // the newest max events by GSeq; the next stamp is w.end()
	max    int
	notify chan struct{}
}

func newFirehose(max int) *firehose {
	return &firehose{w: window{base: 1}, max: max, notify: make(chan struct{})}
}

// append stamps ev with the next global sequence, admits it to the replay
// log, trims the log to its window, and wakes subscribers. The stamp is
// written through the pointer so the per-job event log keeps it too — that
// is how the global cursor survives in the journal.
func (f *firehose) append(ev *JobEvent) {
	f.mu.Lock()
	ev.GSeq = f.w.end()
	f.w.evs = append(f.w.evs, *ev)
	f.w.trim(f.max, math.MaxInt64)
	close(f.notify)
	f.notify = make(chan struct{})
	f.mu.Unlock()
}

// startAfter resumes the sequence counter after a restart: the next stamp
// is maxGSeq+1, and the (empty) window covers nothing older — deep resumes
// page from the journal.
func (f *firehose) startAfter(maxGSeq int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.w.trim(0, maxGSeq+1)
	f.w.base = max(f.w.base, maxGSeq+1) // only moves an emptied window
}

// lowWater reports the newest global sequence NOT retained in the window —
// a cursor must be >= it for since to serve the resume.
func (f *firehose) lowWater() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.w.base - 1
}

// since returns the retained events with GSeq > after and a channel closed
// on the next append. ok is false when the cursor predates the window; the
// caller must page the gap from the journal (or clamp to lowWater when
// there is none).
func (f *firehose) since(after int64) ([]JobEvent, <-chan struct{}, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	evs, ok := f.w.from(after + 1)
	return evs, f.notify, ok
}
