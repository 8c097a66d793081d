package server

// window is a dense, numbered run of events: it holds the events numbered
// [base, base+len(evs)), an event's number being base plus its position.
// The firehose numbers its window by GSeq and each job numbers its
// in-memory tail by Seq; both append to evs and trim from the front.
type window struct {
	base int64
	evs  []JobEvent
}

// end is the number the next appended event takes.
func (w *window) end() int64 { return w.base + int64(len(w.evs)) }

// from returns a copy of the events numbered ≥ n (none when n is at or past
// the end), or false when n is below base: those events were trimmed away.
func (w *window) from(n int64) ([]JobEvent, bool) {
	if n < w.base {
		return nil, false
	}
	if n >= w.end() {
		return nil, true
	}
	return append([]JobEvent(nil), w.evs[n-w.base:]...), true
}

// trim drops the events numbered below min(end-keep, upto). It reslices
// instead of copying the survivors: the dropped prefix stays in the backing
// array only until append outgrows it and copies the window into a fresh
// one, so a full window costs amortized O(1) per append and never holds
// more than a constant factor over keep.
func (w *window) trim(keep int, upto int64) {
	if cut := min(w.end()-int64(keep), upto); cut > w.base {
		w.evs = w.evs[cut-w.base:]
		w.base = cut
	}
}
