package server

import (
	"sort"
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
// by the handler until it catches up to low; live events are never dropped
// for a connected subscriber, because delivery is pull-based off this log.
type firehose struct {
	mu     sync.Mutex
	next   int64      // next global sequence to assign (starts at 1)
	low    int64      // every event with GSeq > low is retained in buf
	buf    []JobEvent // recent events in GSeq order
	max    int
	notify chan struct{}
}

func newFirehose(max int) *firehose {
	return &firehose{next: 1, max: max, notify: make(chan struct{})}
}

// append stamps ev with the next global sequence, admits it to the replay
// log, and wakes subscribers. The stamp is written through the pointer so
// the per-job event log keeps it too — that is how the global cursor
// survives in the journal.
func (f *firehose) append(ev *JobEvent) {
	f.mu.Lock()
	ev.GSeq = f.next
	f.next++
	f.admitLocked(*ev)
	close(f.notify)
	f.notify = make(chan struct{})
	f.mu.Unlock()
}

// admitLocked appends one event and trims the log to its window; callers
// hold f.mu. Trimming reallocates so the dropped prefix is actually freed,
// and raises low past the dropped events — cursors below it must page from
// the journal instead.
func (f *firehose) admitLocked(ev JobEvent) {
	f.buf = append(f.buf, ev)
	if len(f.buf) > f.max {
		drop := len(f.buf) - f.max
		if g := f.buf[drop-1].GSeq; g > f.low {
			f.low = g
		}
		f.buf = append([]JobEvent(nil), f.buf[drop:]...)
	}
}

// startAfter resumes the sequence counter after a restart: the next stamp
// is maxGSeq+1, and the (empty) window covers nothing older — deep resumes
// page from the journal.
func (f *firehose) startAfter(maxGSeq int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if maxGSeq >= f.next {
		f.next = maxGSeq + 1
	}
	if maxGSeq > f.low {
		f.low = maxGSeq
	}
}

// lowWater reports the newest global sequence NOT retained in the window —
// a cursor must be >= it for since to serve the resume.
func (f *firehose) lowWater() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.low
}

// since returns the retained events with GSeq > after and a channel closed
// on the next append — the same drain-then-wait triple the per-job streams
// use, minus the terminal flag (the firehose never ends). ok is false when
// the cursor predates the window; the caller must page the gap from the
// journal (or clamp to lowWater when there is none).
func (f *firehose) since(after int64) ([]JobEvent, <-chan struct{}, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if after < f.low {
		return nil, f.notify, false
	}
	i := sort.Search(len(f.buf), func(i int) bool { return f.buf[i].GSeq > after })
	var evs []JobEvent
	if i < len(f.buf) {
		evs = append(evs, f.buf[i:]...)
	}
	return evs, f.notify, true
}
