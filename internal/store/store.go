// Package store persists characterization products — sweeps and their Fault
// Variation Maps — beyond the life of one process, plus the campaign job
// journal the service layer replays after a restart. The paper's FVM is a
// one-time-per-chip artifact: fault locations are deterministic per die
// (Section II-C), so the expensive Listing 1 sweep never has to be repeated
// once its result is on disk. The engine's in-memory LRU cache uses a Store
// as its write-through second level, which is what lets a fleet survive a
// restart without re-characterizing a single board.
//
// # On-disk layout
//
//	root/
//	  index.json              rebuildable map of blob id → key + summary
//	  objects/<aa>/<id>.json  one Record per blob, sharded by id prefix
//	  jobs/<id>.json          one journaled campaign job per file
//	  jobs/<id>.log, .segs/   its event log: live tail and sealed segments
//	  jobs/<id>.trunc         the log's truncation edge, once segments drop
//
// Blobs are content-addressed: a record's id is the SHA-256 of its
// measurement identity (platform, serial, temperature, runs, sweep-option
// fingerprint), so a Get never needs the index — the index only accelerates
// List. Each index entry also carries a Summary of the blob's
// listing-relevant shape (site count, fault window, Vmin), so a listing of
// a million-record store never has to open a single blob. Every write lands
// in a temp file first and is renamed into place, so readers observe either
// the old blob or the new one, never a torn write. Per-blob access is
// serialized by a striped RWMutex keyed on the id, so concurrent writers
// racing on one key cannot interleave, while traffic on distinct keys
// proceeds in parallel.
//
// A corrupt or missing index.json is not fatal: opening the store rebuilds
// it by scanning the object tree and re-deriving each blob's key and summary
// from its embedded metadata (corrupt blobs are skipped).
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"time"

	"repro/internal/characterize"
	"repro/internal/fvm"
)

// Key identifies one measurement: a board (platform + serial + pool
// geometry — a scaled pool is a different simulated die) characterized
// under a specific temperature, run count, and sweep-option fingerprint.
// It mirrors the engine's cache key, so the disk store and the in-memory
// cache always agree on what "the same characterization" means.
type Key struct {
	Platform string  `json:"platform"`
	Serial   string  `json:"serial"`
	BRAMs    int     `json:"brams,omitempty"`
	GridCols int     `json:"grid_cols,omitempty"`
	GridRows int     `json:"grid_rows,omitempty"`
	TempC    float64 `json:"temp_c"`
	Runs     int     `json:"runs"`
	Options  string  `json:"options"`
}

// ID returns the key's content address: the SHA-256 of its canonical string
// form, in hex. Deterministic, so a record can be located without the index.
func (k Key) ID() string {
	s := k.Platform + "\x00" + k.Serial + "\x00" +
		strconv.Itoa(k.BRAMs) + "\x00" +
		strconv.Itoa(k.GridCols) + "x" + strconv.Itoa(k.GridRows) + "\x00" +
		strconv.FormatFloat(k.TempC, 'g', -1, 64) + "\x00" +
		strconv.Itoa(k.Runs) + "\x00" + k.Options
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// Record is one stored characterization product: its identity plus the
// sweep and the FVM it defined. The key is embedded in the blob itself,
// which is what makes a lost index rebuildable, and it is the same Key type
// the cache layers address by, so the two can never drift apart.
type Record struct {
	Key   Key                 `json:"key"`
	Sweep *characterize.Sweep `json:"sweep,omitempty"`
	FVM   *fvm.Map            `json:"fvm,omitempty"`
}

// Validate rejects records whose payload is missing or internally
// inconsistent, so a torn or hand-edited blob never enters the cache.
func (r *Record) Validate() error {
	if r.Key.Platform == "" || r.Key.Serial == "" {
		return fmt.Errorf("store: record missing platform/serial identity")
	}
	if r.Sweep == nil {
		return fmt.Errorf("store: record %s/%s has no sweep", r.Key.Platform, r.Key.Serial)
	}
	if r.FVM != nil && len(r.FVM.Sites) != len(r.FVM.Counts) {
		return fmt.Errorf("store: record %s/%s has a corrupt FVM (%d sites, %d counts)",
			r.Key.Platform, r.Key.Serial, len(r.FVM.Sites), len(r.FVM.Counts))
	}
	return nil
}

// Summary caches a record's listing-relevant shape in the index, so List
// answers dashboard queries without reading a single blob. It is derived
// from the record at Put time (and again on reindex), never hand-edited.
type Summary struct {
	Sites         int     `json:"sites,omitempty"`
	ZeroShare     float64 `json:"zero_share,omitempty"`
	MaxRate       float64 `json:"max_rate,omitempty"`
	VFromV        float64 `json:"v_from_v,omitempty"`
	VToV          float64 `json:"v_to_v,omitempty"`
	HasFVM        bool    `json:"has_fvm,omitempty"`
	Levels        int     `json:"levels,omitempty"` // sweep levels (0 = no sweep)
	VminV         float64 `json:"vmin_v,omitempty"`
	VcrashV       float64 `json:"vcrash_v,omitempty"`
	FaultsPerMbit float64 `json:"faults_per_mbit,omitempty"` // at the deepest level
}

// Summarize derives a record's index summary.
func Summarize(rec *Record) *Summary {
	s := &Summary{}
	if rec.FVM != nil {
		s.HasFVM = true
		s.Sites = rec.FVM.NumSites()
		s.ZeroShare = rec.FVM.ZeroShare()
		s.MaxRate = rec.FVM.Summary().Max
		s.VFromV = rec.FVM.VFrom
		s.VToV = rec.FVM.VTo
	}
	if sw := rec.Sweep; sw != nil && len(sw.Levels) > 0 {
		s.Levels = len(sw.Levels)
		s.VminV = SweepVmin(sw)
		s.VcrashV = sw.Final().V
		s.FaultsPerMbit = sw.Final().FaultsPerMbit
	}
	return s
}

// SweepVmin returns the lowest voltage level of a sweep that stayed
// fault-free — the board's empirical Vmin. It lives here (not in the
// engine) so index summaries and the engine's aggregates share one
// definition.
func SweepVmin(s *characterize.Sweep) float64 {
	if len(s.Levels) == 0 {
		return 0
	}
	vmin := s.Levels[0].V
	for _, l := range s.Levels {
		if l.MedianFaults > 0 {
			break
		}
		vmin = l.V
	}
	return vmin
}

// Meta is one index entry: a record's id, key, and cached summary, without
// its payload. StoredAt is when the record was last written.
type Meta struct {
	ID       string    `json:"id"`
	Key      Key       `json:"key"`
	StoredAt time.Time `json:"stored_at,omitempty"`
	Summary  *Summary  `json:"summary,omitempty"`
}

// JobRecord is one journaled campaign job: the service layer's document
// (an opaque payload to the store) plus the identity the store files it
// under. Seq preserves submission order across restarts, so a replayed job
// table lists jobs in the order they were created and new ids never collide
// with journaled ones.
//
// The payload carries only the job's metadata — its status snapshot —
// while events are appended separately via AppendJobEvents.
type JobRecord struct {
	ID      string          `json:"id"`
	Seq     int             `json:"seq"`
	Payload json.RawMessage `json:"payload"`
}

// EventRecord is one appended job event: an opaque payload plus the
// ordering the store indexes it by. Seq orders events within one job
// (dense from 0 in healthy operation, but readers must tolerate gaps from
// dropped best-effort writes); GSeq is the service-wide total order the
// firehose pages by. Appending one event writes O(len(Payload)) bytes —
// never the job's history — which is what makes journaling O(1) per event
// instead of O(events²) per job.
type EventRecord struct {
	Job     string          `json:"job"`
	Seq     int             `json:"seq"`
	GSeq    int64           `json:"gseq"`
	Payload json.RawMessage `json:"payload"`
	// Truncated marks a synthetic marker record, never an appended event:
	// the store dropped this job's history at and below Seq (the live
	// sealed-segment cap or a retention trim unlinked the oldest segments),
	// so a reader paging from earlier than this cannot get those events
	// from anyone. Marker records carry no Payload.
	Truncated bool `json:"truncated,omitempty"`
}

// ValidJobID reports whether id is safe to use as a journal filename:
// non-empty, bounded, and built only from [a-zA-Z0-9._-] without a leading
// dot. Ids arrive from the HTTP layer; anything else must never reach the
// filesystem.
func ValidJobID(id string) bool {
	if id == "" || len(id) > 128 || id[0] == '.' {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '.' || c == '_' || c == '-':
		default:
			return false
		}
	}
	return true
}

// Store is a durable, concurrency-safe record repository with a campaign
// job journal riding alongside. Implementations must tolerate concurrent
// Put/Get on the same key (last write wins; reads never observe a torn
// record). Records handed to Put and returned by Get must be treated as
// immutable by callers.
type Store interface {
	// Put stores the record under its derived key, replacing any previous
	// version.
	Put(rec *Record) error
	// Get returns the record stored under k, or ok=false when absent.
	Get(k Key) (rec *Record, ok bool, err error)
	// GetID returns the record with the given content address.
	GetID(id string) (rec *Record, ok bool, err error)
	// List returns the index of stored records in a stable order. Entries
	// carry cached summaries, so listing never reads blobs.
	List() ([]Meta, error)
	// Delete removes the record with the given content address, returning
	// its index entry and whether it existed.
	Delete(id string) (Meta, bool, error)
	// GC bounds the store to the newest keep records per (platform,
	// serial), returning what it removed. keep <= 0 is a no-op.
	GC(keep int) ([]Meta, error)
	// PutJob journals one campaign job's metadata record, replacing any
	// previous version. The payload should stay O(1) in the job's event
	// count — events belong in AppendJobEvents.
	PutJob(rec *JobRecord) error
	// ListJobs returns every journaled job in submission (Seq) order.
	ListJobs() ([]*JobRecord, error)
	// DeleteJob removes one journaled job, its event log included; absent
	// ids are not an error.
	DeleteJob(id string) error
	// AppendJobEvents appends events to one job's event log. The cost is
	// O(bytes appended), independent of how many events the job already
	// has. Records are copied; the caller keeps ownership of evs.
	AppendJobEvents(id string, evs []EventRecord) error
	// ReadJobEvents returns the job's events with Seq >= from, ascending,
	// de-duplicated by Seq, capped at limit (limit <= 0 means no cap). A
	// read from below a dropped range starts with a Truncated record.
	ReadJobEvents(id string, from, limit int) ([]EventRecord, error)
	// JobEventStats reports the sequence the job's next event would take
	// (0 when it has none) and the highest global sequence in its log,
	// without reading the log body.
	JobEventStats(id string) (nextSeq int, lastGSeq int64, err error)
	// ReadFirehose returns events across all jobs with GSeq > after, in
	// GSeq order, capped at limit (limit <= 0 means no cap). This is the
	// paging primitive behind deep firehose resume. A job whose dropped
	// range lies above after contributes a Truncated record at that
	// range's GSeq, ahead of its surviving events.
	ReadFirehose(after int64, limit int) ([]EventRecord, error)
	// TrimJobEvents drops a job's oldest durable events so that at least
	// the last keepLast remain readable. Retention is best-effort and
	// coarse: implementations may keep more than asked (the Disk store
	// trims whole sealed segments and never the live tail) but must never
	// keep fewer. keepLast <= 0 is a no-op. Trimming a job that is still
	// appending is allowed; readers see a shorter history, not a torn one,
	// and a read from below the dropped range starts with a Truncated
	// record.
	TrimJobEvents(id string, keepLast int) error
	// LastGSeq reports the highest global sequence present in any job's
	// event log, so a restarted service can resume issuing sequences
	// without replaying event bodies.
	LastGSeq() (int64, error)
	// Close releases any resources. The store must not be used afterwards.
	Close() error
}

// idxEntry is the indexed form of one record: its key, its cached summary,
// and the bookkeeping GC orders by. Seq is a
// monotonic per-store put counter — wall clocks are too coarse to order two
// back-to-back Puts, and GC's "newest" must be deterministic.
type idxEntry struct {
	Key      Key      `json:"key"`
	StoredAt int64    `json:"stored_at"` // unix nanos, informational
	Seq      int64    `json:"seq"`       // put order, what GC sorts by
	Summary  *Summary `json:"summary,omitempty"`
}

func (e idxEntry) meta(id string) Meta {
	m := Meta{ID: id, Key: e.Key, Summary: e.Summary}
	if e.StoredAt != 0 {
		m.StoredAt = time.Unix(0, e.StoredAt)
	}
	return m
}

// gcVictims picks the ids to drop so every (platform, serial) keeps only
// its newest keep entries. Newest is put order (Seq), tie-broken by id so
// the choice is total.
func gcVictims(entries map[string]idxEntry, keep int) []string {
	if keep <= 0 {
		return nil
	}
	type aged struct {
		id  string
		seq int64
	}
	groups := make(map[string][]aged)
	for id, e := range entries {
		g := e.Key.Platform + "\x00" + e.Key.Serial
		groups[g] = append(groups[g], aged{id, e.Seq})
	}
	var victims []string
	for _, g := range groups {
		if len(g) <= keep {
			continue
		}
		sort.Slice(g, func(i, j int) bool {
			if g[i].seq != g[j].seq {
				return g[i].seq > g[j].seq // newest first
			}
			return g[i].id < g[j].id
		})
		for _, v := range g[keep:] {
			victims = append(victims, v.id)
		}
	}
	sort.Strings(victims)
	return victims
}

// sortDedupEvents orders records by Seq and drops duplicate sequences,
// keeping the first occurrence. Duplicates are legitimate on-disk states: a
// crash between sealing a segment and rewriting the tail leaves the same
// event in two places, and the contract is that readers — not writers —
// make the log exactly-once.
func sortDedupEvents(evs []EventRecord) []EventRecord {
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Seq < evs[j].Seq })
	out := evs[:0]
	for _, ev := range evs {
		if n := len(out); n > 0 && out[n-1].Seq == ev.Seq {
			continue
		}
		out = append(out, ev)
	}
	return out
}

// capEvents truncates to the first limit records; limit <= 0 means no cap.
func capEvents(evs []EventRecord, limit int) []EventRecord {
	if limit > 0 && len(evs) > limit {
		return evs[:limit]
	}
	return evs
}

// sortJobs orders journal records by submission sequence (ties by id).
func sortJobs(js []*JobRecord) {
	sort.Slice(js, func(i, j int) bool {
		if js[i].Seq != js[j].Seq {
			return js[i].Seq < js[j].Seq
		}
		return js[i].ID < js[j].ID
	})
}

// sortMetas orders index entries by platform, serial, temperature, runs,
// options — a stable, human-meaningful listing order.
func sortMetas(ms []Meta) {
	sort.Slice(ms, func(i, j int) bool {
		a, b := ms[i].Key, ms[j].Key
		if a.Platform != b.Platform {
			return a.Platform < b.Platform
		}
		if a.Serial != b.Serial {
			return a.Serial < b.Serial
		}
		if a.TempC != b.TempC {
			return a.TempC < b.TempC
		}
		if a.Runs != b.Runs {
			return a.Runs < b.Runs
		}
		return a.Options < b.Options
	})
}
