package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// This file is the per-job event log: the storage that makes journaling a
// job event O(bytes of that event) instead of O(bytes of the job's whole
// history).
//
// Layout per job:
//
//	jobs/<id>.json                                the metadata record (PutJob)
//	jobs/<id>.log                                 append-only JSONL tail
//	jobs/<id>.segs/seg-<s0>-<s1>-<g0>-<g1>.json   sealed, immutable segments
//	jobs/<id>.trunc                               truncation edge, once segments drop
//
// Appends go to the tail — one JSON line per event, O_APPEND + fsync, no
// rewrite of anything. When the tail grows past compactTail live events, a
// background compactor seals full segments of segSize events (atomic write,
// fsynced) and rewrites the tail with only the remainder, so the total
// bytes ever written for an n-event log is O(n), not O(n²), and replay
// after a restart only scans the bounded tail plus segment *names*. Segment
// filenames carry their Seq and GSeq ranges, which is what lets boot and
// firehose paging prune without opening segment bodies.
//
// Crash discipline: a segment is sealed before the tail is rewritten, so a
// crash in between leaves the same events in both places — readers dedup by
// Seq (sealed copy wins) and the next compaction drops the stale tail
// prefix. A torn final tail line (power cut mid-append) fails to decode and
// is skipped. Dropping sealed segments (the live cap or retention) first
// writes the new truncation edge to <id>.trunc, and boot reads it back, so
// the edge's exact (Seq, GSeq) survives a restart; a log without the file
// predates persisted edges and boot re-derives its edge from the lowest
// surviving event. No state here is authoritative for the blobs or the
// index; losing a tail line degrades the journal, never the store.

const (
	// defaultEventSegSize is how many events a sealed segment holds.
	defaultEventSegSize = 256
	// defaultCompactTail is the live-tail length that triggers compaction.
	defaultCompactTail = 512
)

// segInfo describes one sealed segment without its body: the Seq range it
// covers and the GSeq range it contains, both recoverable from the filename
// alone.
type segInfo struct {
	minSeq, maxSeq int
	firstG, lastG  int64
}

func (s segInfo) fileName() string {
	return fmt.Sprintf("seg-%d-%d-%d-%d.json", s.minSeq, s.maxSeq, s.firstG, s.lastG)
}

// parseSegName inverts fileName; ok is false for anything else in the dir.
func parseSegName(name string) (segInfo, bool) {
	var s segInfo
	n, err := fmt.Sscanf(name, "seg-%d-%d-%d-%d.json", &s.minSeq, &s.maxSeq, &s.firstG, &s.lastG)
	if err != nil || n != 4 || s.fileName() != name {
		return segInfo{}, false
	}
	return s, true
}

// jobLog is the in-memory index of one job's event log. The map holding
// these is guarded by evMu; the fields of one jobLog are guarded by the
// job's stripe lock (write lock to mutate, read lock to read), the same
// lock that serializes the job's file I/O.
type jobLog struct {
	segs     []segInfo // ascending by minSeq
	sealedTo int       // 1 + highest Seq covered by a sealed segment
	liveTail int       // tail events with Seq >= sealedTo
	nextSeq  int       // 1 + highest Seq seen anywhere in the log
	lastG    int64     // highest GSeq seen anywhere in the log
	minAvail int       // 1 + highest Seq dropped (live cap or retention); 0 = nothing dropped
	truncG   int64     // highest GSeq dropped (re-derived conservatively for a log without <id>.trunc)
	f        *os.File  // cached append handle; nil when closed
}

func (d *Disk) jobLogPath(id string) string {
	return filepath.Join(d.root, "jobs", id+".log")
}

func (d *Disk) jobSegsDir(id string) string {
	return filepath.Join(d.root, "jobs", id+".segs")
}

// evLog returns id's log index, creating it if absent. Callers hold the
// job's stripe write lock.
func (d *Disk) evLog(id string) *jobLog {
	d.evMu.Lock()
	defer d.evMu.Unlock()
	jl := d.evLogs[id]
	if jl == nil {
		jl = &jobLog{}
		d.evLogs[id] = jl
	}
	return jl
}

// evLogPeek returns id's log index or nil. Callers hold at least the job's
// stripe read lock if they read the returned struct's fields.
func (d *Disk) evLogPeek(id string) *jobLog {
	d.evMu.Lock()
	defer d.evMu.Unlock()
	return d.evLogs[id]
}

// SetEventLogTuning adjusts the compaction geometry: segSize events per
// sealed segment, compaction once the live tail exceeds compactTail. A
// test/bench hook — call before concurrent use; zero or negative values
// keep the defaults.
func (d *Disk) SetEventLogTuning(segSize, compactTail int) {
	if segSize > 0 {
		d.segSize = segSize
	}
	if compactTail > 0 {
		d.compactTail = compactTail
	}
}

// SetLiveSegCap bounds how many sealed segments one job's event log may
// accumulate while the job is still appending: each compaction drops the
// oldest sealed segments past the cap, so a long-running campaign's journal
// holds the newest cap*segSize sealed events plus the live tail instead of
// its entire history. Readers paging below the dropped range receive a
// synthetic Truncated marker record (see EventRecord.Truncated) in place of
// the missing prefix, so deep resumes learn the history is gone instead of
// silently skipping it. Zero or negative keeps the default: unlimited.
func (d *Disk) SetLiveSegCap(n int) {
	if n > 0 {
		d.liveSegCap = n
	}
}

// JournalBytes reports the total bytes written to the job journal — meta
// records, event appends, and compaction rewrites. Instrumentation for the
// bytes-per-event benchmarks; not part of the Store interface.
func (d *Disk) JournalBytes() uint64 { return d.jnBytes.Load() }

func (d *Disk) addJnBytes(n int) { d.jnBytes.Add(uint64(n)) }

// AppendJobEvents appends events to one job's tail: one marshal and one
// O_APPEND write per call, fsynced, with no rewrite of prior history.
func (d *Disk) AppendJobEvents(id string, evs []EventRecord) error {
	if !ValidJobID(id) {
		return fmt.Errorf("store: malformed job id %q", id)
	}
	if len(evs) == 0 {
		return nil
	}
	var buf bytes.Buffer
	for i := range evs {
		rec := evs[i]
		rec.Job = id
		line, err := json.Marshal(&rec)
		if err != nil {
			return fmt.Errorf("store: encode event %s/%d: %w", id, rec.Seq, err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	mu := d.jobStripe(id)
	mu.Lock()
	defer mu.Unlock()
	jl := d.evLog(id)
	if jl.f == nil {
		f, err := d.openTail(id)
		if err != nil {
			return err
		}
		jl.f = f
	}
	if err := d.faultAppendWrite(id); err != nil {
		return fmt.Errorf("store: append events %s: %w", id, err)
	}
	if _, err := jl.f.Write(buf.Bytes()); err != nil {
		return fmt.Errorf("store: append events %s: %w", id, err)
	}
	if err := d.faultAppendSync(id); err != nil {
		return fmt.Errorf("store: sync event log %s: %w", id, err)
	}
	if err := jl.f.Sync(); err != nil {
		return fmt.Errorf("store: sync event log %s: %w", id, err)
	}
	d.addJnBytes(buf.Len())
	for i := range evs {
		if evs[i].Seq >= jl.sealedTo {
			jl.liveTail++
		}
		if evs[i].Seq >= jl.nextSeq {
			jl.nextSeq = evs[i].Seq + 1
		}
		if evs[i].GSeq > jl.lastG {
			jl.lastG = evs[i].GSeq
		}
	}
	if jl.liveTail >= d.compactTail {
		d.kickCompact(id)
	}
	return nil
}

// openTail opens id's tail for appending. A tail whose last byte is not a
// newline ends in a torn line from a crashed append; terminate it first, so
// the next event starts a fresh line instead of fusing with (and corrupting)
// the torn one.
func (d *Disk) openTail(id string) (*os.File, error) {
	path := d.jobLogPath(id)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open event log %s: %w", id, err)
	}
	if rf, err := os.Open(path); err == nil {
		if info, err := rf.Stat(); err == nil && info.Size() > 0 {
			last := make([]byte, 1)
			if _, err := rf.ReadAt(last, info.Size()-1); err == nil && last[0] != '\n' {
				if _, err := f.Write([]byte{'\n'}); err != nil {
					rf.Close()
					f.Close()
					return nil, fmt.Errorf("store: heal torn tail %s: %w", id, err)
				}
			}
		}
		rf.Close()
	}
	return f, nil
}

// readTail decodes the tail log, skipping torn or corrupt lines. Callers
// hold at least the job's stripe read lock.
func (d *Disk) readTail(id string) []EventRecord {
	raw, err := os.ReadFile(d.jobLogPath(id))
	if err != nil {
		return nil
	}
	var out []EventRecord
	for _, line := range bytes.Split(raw, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var ev EventRecord
		if err := json.Unmarshal(line, &ev); err != nil {
			continue
		}
		out = append(out, ev)
	}
	return out
}

// readSeg decodes one sealed segment; a corrupt segment degrades to empty
// rather than failing the read.
func (d *Disk) readSeg(id string, sg segInfo) []EventRecord {
	raw, err := os.ReadFile(filepath.Join(d.jobSegsDir(id), sg.fileName()))
	if err != nil {
		return nil
	}
	var out []EventRecord
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil
	}
	return out
}

// ReadJobEvents returns id's events with Seq >= from, ascending and
// de-duplicated by Seq, reading only the segments whose range overlaps.
// Events below the truncation edge are never served, even when a failed
// tail rewrite left copies of them in the tail.
func (d *Disk) ReadJobEvents(id string, from, limit int) ([]EventRecord, error) {
	if !ValidJobID(id) {
		return nil, fmt.Errorf("store: malformed job id %q", id)
	}
	mu := d.jobStripe(id)
	mu.RLock()
	defer mu.RUnlock()
	jl := d.evLogPeek(id)
	if jl == nil {
		return nil, nil
	}
	lo := max(from, jl.minAvail)
	var out []EventRecord
	for _, sg := range jl.segs {
		if sg.maxSeq < lo {
			continue
		}
		for _, ev := range d.readSeg(id, sg) {
			if ev.Seq >= lo {
				out = append(out, ev)
			}
		}
		if limit > 0 && len(out) >= limit && sg.maxSeq >= jl.nextSeq-1 {
			break
		}
	}
	// Sealed copies were appended first, so dedup keeps them over any stale
	// tail duplicates left by a crash mid-compaction.
	for _, ev := range d.readTail(id) {
		if ev.Seq >= lo {
			out = append(out, ev)
		}
	}
	out = sortDedupEvents(out)
	if jl.minAvail > 0 && from < jl.minAvail {
		// The caller asked for history the live cap or retention dropped:
		// lead the page with a marker instead of a silent gap, so a deep SSE
		// resume knows events through minAvail-1 are unrecoverable.
		marker := EventRecord{Job: id, Seq: jl.minAvail - 1, GSeq: jl.truncG, Truncated: true}
		out = append([]EventRecord{marker}, out...)
	}
	return capEvents(out, limit), nil
}

// JobEventStats reports the next event sequence and the highest global
// sequence in id's log, from the in-memory index alone.
func (d *Disk) JobEventStats(id string) (int, int64, error) {
	if !ValidJobID(id) {
		return 0, 0, fmt.Errorf("store: malformed job id %q", id)
	}
	mu := d.jobStripe(id)
	mu.RLock()
	defer mu.RUnlock()
	jl := d.evLogPeek(id)
	if jl == nil {
		return 0, 0, nil
	}
	return jl.nextSeq, jl.lastG, nil
}

// ReadFirehose returns events across all jobs with GSeq > after, in GSeq
// order, pruning jobs and segments by their indexed GSeq ranges so a resume
// near the live edge never reads cold history.
func (d *Disk) ReadFirehose(after int64, limit int) ([]EventRecord, error) {
	d.evMu.Lock()
	ids := make([]string, 0, len(d.evLogs))
	for id := range d.evLogs {
		ids = append(ids, id)
	}
	d.evMu.Unlock()
	sort.Strings(ids)
	var all []EventRecord
	for _, id := range ids {
		mu := d.jobStripe(id)
		mu.RLock()
		jl := d.evLogPeek(id)
		if jl == nil || jl.lastG <= after {
			mu.RUnlock()
			continue
		}
		var evs []EventRecord
		for _, sg := range jl.segs {
			if sg.lastG <= after {
				continue
			}
			evs = append(evs, d.readSeg(id, sg)...)
		}
		evs = append(evs, d.readTail(id)...)
		minAvail, truncG := jl.minAvail, jl.truncG
		mu.RUnlock()
		if minAvail > 0 && truncG > after {
			// The resume point predates dropped history: mark the truncation
			// at its global position so the consumer sees it before this
			// job's surviving events.
			all = append(all, EventRecord{Job: id, Seq: minAvail - 1, GSeq: truncG, Truncated: true})
		}
		evs = sortDedupEvents(evs)
		for _, ev := range evs {
			if ev.GSeq > after && ev.Seq >= minAvail {
				all = append(all, ev)
			}
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].GSeq < all[j].GSeq })
	return capEvents(all, limit), nil
}

// LastGSeq reports the highest global sequence in any job's log.
func (d *Disk) LastGSeq() (int64, error) {
	d.evMu.Lock()
	ids := make([]string, 0, len(d.evLogs))
	for id := range d.evLogs {
		ids = append(ids, id)
	}
	d.evMu.Unlock()
	var max int64
	for _, id := range ids {
		mu := d.jobStripe(id)
		mu.RLock()
		if jl := d.evLogPeek(id); jl != nil && jl.lastG > max {
			max = jl.lastG
		}
		mu.RUnlock()
	}
	return max, nil
}

// kickCompact queues id for background compaction; a full queue skips — the
// next append past the threshold retries.
func (d *Disk) kickCompact(id string) {
	select {
	case d.compactCh <- id:
	default:
	}
}

// compactLoop drains compaction requests until Close.
func (d *Disk) compactLoop() {
	defer d.wg.Done()
	for {
		select {
		case <-d.quit:
			return
		case id := <-d.compactCh:
			_ = d.CompactJob(id)
		}
	}
}

// CompactJob folds id's tail into sealed segments: every full segSize chunk
// of live tail events becomes an immutable segment file, then the tail is
// rewritten with only the remainder. Exported so tests and operators can
// force a fold; the background compactor calls it on its own past the tail
// threshold. Sealing happens before the tail rewrite, so a crash in between
// duplicates events rather than losing them — readers dedup by Seq.
func (d *Disk) CompactJob(id string) error {
	if !ValidJobID(id) {
		return fmt.Errorf("store: malformed job id %q", id)
	}
	mu := d.jobStripe(id)
	mu.Lock()
	defer mu.Unlock()
	jl := d.evLogPeek(id)
	if jl == nil {
		return nil
	}
	tail := d.readTail(id)
	live := make([]EventRecord, 0, len(tail))
	for _, ev := range tail {
		if ev.Seq >= jl.sealedTo {
			live = append(live, ev)
		}
	}
	live = sortDedupEvents(live)
	sealed := 0
	for len(live)-sealed >= d.segSize {
		chunk := live[sealed : sealed+d.segSize]
		sg := segInfo{minSeq: chunk[0].Seq, maxSeq: chunk[len(chunk)-1].Seq}
		sg.firstG, sg.lastG = chunk[0].GSeq, chunk[0].GSeq
		for _, ev := range chunk {
			if ev.GSeq < sg.firstG {
				sg.firstG = ev.GSeq
			}
			if ev.GSeq > sg.lastG {
				sg.lastG = ev.GSeq
			}
		}
		raw, err := json.Marshal(chunk)
		if err != nil {
			return fmt.Errorf("store: encode segment %s: %w", id, err)
		}
		if err := os.MkdirAll(d.jobSegsDir(id), 0o755); err != nil {
			return fmt.Errorf("store: segment dir %s: %w", id, err)
		}
		if err := d.atomicWrite(filepath.Join(d.jobSegsDir(id), sg.fileName()), raw); err != nil {
			return err
		}
		d.addJnBytes(len(raw))
		jl.segs = append(jl.segs, sg)
		jl.sealedTo = sg.maxSeq + 1
		sealed += d.segSize
	}
	if d.liveSegCap > 0 {
		d.dropSegsLocked(id, jl, len(jl.segs)-d.liveSegCap)
	}
	rest := live[sealed:]
	if sealed == 0 && len(rest) == len(tail) {
		return nil // nothing sealed, no stale prefix: leave the tail alone
	}
	var buf bytes.Buffer
	for i := range rest {
		line, err := json.Marshal(&rest[i])
		if err != nil {
			return fmt.Errorf("store: encode event %s/%d: %w", id, rest[i].Seq, err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	// The rewrite replaces the tail's inode; drop the cached append handle
	// so the next append reopens the new file instead of a deleted one.
	if jl.f != nil {
		jl.f.Close()
		jl.f = nil
	}
	if err := d.atomicWrite(d.jobLogPath(id), buf.Bytes()); err != nil {
		return err
	}
	d.addJnBytes(buf.Len())
	jl.liveTail = len(rest)
	return nil
}

// dropSegsLocked drops the oldest n sealed segments and advances the log's
// truncation edge past them, so a read below it gets a Truncated marker
// instead of a silent gap. The new edge is written to <id>.trunc before
// anything is unlinked, so a reopen reads the exact edge back instead of
// guessing it from the survivors; if that write fails, nothing is dropped
// and the next compaction or trim retries. Once the edge is durable the
// segments are gone from the log: one that fails to unlink lies wholly
// below the edge, and the next open discards it. The live cap and
// retention both drop through here. Callers hold the job's stripe write
// lock.
func (d *Disk) dropSegsLocked(id string, jl *jobLog, n int) {
	if n = min(n, len(jl.segs)); n <= 0 {
		return
	}
	edge := truncEdge{MinAvail: max(jl.minAvail, jl.segs[n-1].maxSeq+1), TruncG: jl.truncG}
	for _, sg := range jl.segs[:n] {
		edge.TruncG = max(edge.TruncG, sg.lastG)
	}
	raw, err := json.Marshal(edge)
	if err == nil {
		err = d.atomicWrite(d.jobTruncPath(id), raw)
	}
	if err != nil {
		return
	}
	d.addJnBytes(len(raw))
	for _, sg := range jl.segs[:n] {
		_ = os.Remove(filepath.Join(d.jobSegsDir(id), sg.fileName())) // a leftover lies below the edge
	}
	jl.segs = jl.segs[n:]
	jl.minAvail, jl.truncG = edge.MinAvail, edge.TruncG
}

// truncEdge is a log's persisted truncation edge: every event with Seq
// below MinAvail is gone, and TruncG is the highest GSeq among them.
type truncEdge struct {
	MinAvail int   `json:"min_avail"`
	TruncG   int64 `json:"trunc_g"`
}

func (d *Disk) jobTruncPath(id string) string {
	return filepath.Join(d.root, "jobs", id+".trunc")
}

// readTruncEdge reads id's persisted truncation edge; ok is false when the
// log has none — nothing was dropped, or the log predates persisted edges.
func (d *Disk) readTruncEdge(id string) (e truncEdge, ok bool) {
	raw, err := os.ReadFile(d.jobTruncPath(id))
	return e, err == nil && json.Unmarshal(raw, &e) == nil
}

// TrimJobEvents drops sealed segments whose entire Seq range falls below
// the job's last keepLast events. Only whole immutable segments go — the
// live tail and any segment straddling the cutoff stay — so retention is
// coarse but can never lose an event newer than the bound. A read below the
// dropped range starts with the same Truncated marker the live cap leaves.
// This is what keeps a terminal job's journal from pinning its whole event
// history on disk at federation scale.
func (d *Disk) TrimJobEvents(id string, keepLast int) error {
	if !ValidJobID(id) {
		return fmt.Errorf("store: malformed job id %q", id)
	}
	if keepLast <= 0 {
		return nil
	}
	mu := d.jobStripe(id)
	mu.Lock()
	defer mu.Unlock()
	jl := d.evLogPeek(id)
	if jl == nil {
		return nil
	}
	cutoff := jl.nextSeq - keepLast
	n := 0
	for n < len(jl.segs) && jl.segs[n].maxSeq < cutoff {
		n++
	}
	d.dropSegsLocked(id, jl, n)
	return nil
}

// dropEventLog removes id's tail, segments, truncation edge, and index
// entry. Callers hold the job's stripe write lock.
func (d *Disk) dropEventLog(id string) error {
	d.evMu.Lock()
	jl := d.evLogs[id]
	delete(d.evLogs, id)
	d.evMu.Unlock()
	if jl != nil && jl.f != nil {
		jl.f.Close()
		jl.f = nil
	}
	if err := os.Remove(d.jobLogPath(id)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("store: delete event log %s: %w", id, err)
	}
	if err := os.RemoveAll(d.jobSegsDir(id)); err != nil {
		return fmt.Errorf("store: delete segments %s: %w", id, err)
	}
	if err := os.Remove(d.jobTruncPath(id)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("store: delete truncation edge %s: %w", id, err)
	}
	return nil
}

// scanEventLogs rebuilds the in-memory event-log index at open: segment
// ranges come from filenames alone, and only the bounded tails are read —
// boot cost is O(jobs + tail events), never O(all events).
func (d *Disk) scanEventLogs() error {
	dir := filepath.Join(d.root, "jobs")
	des, err := os.ReadDir(dir)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		return fmt.Errorf("store: scan event logs: %w", err)
	}
	logs := make(map[string]*jobLog)
	get := func(id string) *jobLog {
		jl := logs[id]
		if jl == nil {
			jl = &jobLog{}
			logs[id] = jl
		}
		return jl
	}
	// firstAvail tracks each job's lowest surviving (Seq, GSeq). A log with
	// no persisted edge predates them: job event sequences are dense from 0,
	// so if its lowest Seq is positive it lost its prefix to the live cap
	// (or a retention trim) before the restart, and minAvail is rederived so
	// the truncation marker survives reboot.
	type firstAvail struct {
		seq int
		g   int64
		any bool
	}
	firsts := make(map[string]*firstAvail)
	// Pass 1: segment directories, so sealedTo is known before tails are
	// classified.
	for _, de := range des {
		if !de.IsDir() || !strings.HasSuffix(de.Name(), ".segs") {
			continue
		}
		id := strings.TrimSuffix(de.Name(), ".segs")
		if !ValidJobID(id) {
			continue
		}
		segDes, err := os.ReadDir(filepath.Join(dir, de.Name()))
		if err != nil {
			continue
		}
		jl := get(id)
		edge, hasEdge := d.readTruncEdge(id)
		for _, sde := range segDes {
			sg, ok := parseSegName(sde.Name())
			if !ok {
				continue
			}
			if hasEdge && sg.maxSeq < edge.MinAvail {
				// Dropped, but a crash or a failed unlink left it behind. It is
				// never indexed, so removing it is best-effort.
				_ = os.Remove(filepath.Join(dir, de.Name(), sde.Name()))
				continue
			}
			jl.segs = append(jl.segs, sg)
		}
		if hasEdge {
			jl.minAvail, jl.truncG = edge.MinAvail, edge.TruncG
			jl.sealedTo = edge.MinAvail // everything below the edge was sealed
		}
		sort.Slice(jl.segs, func(i, j int) bool { return jl.segs[i].minSeq < jl.segs[j].minSeq })
		if len(jl.segs) > 0 {
			firsts[id] = &firstAvail{seq: jl.segs[0].minSeq, g: jl.segs[0].firstG, any: true}
		}
		for _, sg := range jl.segs {
			if sg.maxSeq+1 > jl.sealedTo {
				jl.sealedTo = sg.maxSeq + 1
			}
			if sg.maxSeq+1 > jl.nextSeq {
				jl.nextSeq = sg.maxSeq + 1
			}
			if sg.lastG > jl.lastG {
				jl.lastG = sg.lastG
			}
		}
	}
	// Pass 2: tails.
	for _, de := range des {
		if de.IsDir() || !strings.HasSuffix(de.Name(), ".log") {
			continue
		}
		id := strings.TrimSuffix(de.Name(), ".log")
		if !ValidJobID(id) {
			continue
		}
		jl := get(id)
		fa := firsts[id]
		if fa == nil {
			fa = &firstAvail{}
			firsts[id] = fa
		}
		for _, ev := range d.readTail(id) {
			if ev.Seq >= jl.sealedTo {
				jl.liveTail++
			}
			if ev.Seq+1 > jl.nextSeq {
				jl.nextSeq = ev.Seq + 1
			}
			if ev.GSeq > jl.lastG {
				jl.lastG = ev.GSeq
			}
			if !fa.any || ev.Seq < fa.seq {
				fa.seq, fa.g, fa.any = ev.Seq, ev.GSeq, true
			}
		}
	}
	for id, fa := range firsts {
		if jl := logs[id]; fa.any && fa.seq > 0 && jl.minAvail == 0 {
			jl.minAvail = fa.seq
			// The dropped events' exact GSeqs are gone with them; everything
			// below the first surviving GSeq is a safe over-approximation.
			if fa.g > 0 {
				jl.truncG = fa.g - 1
			}
		}
	}
	d.evMu.Lock()
	d.evLogs = logs
	d.evMu.Unlock()
	return nil
}
