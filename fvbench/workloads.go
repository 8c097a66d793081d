package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/fpgavolt"
)

// windowEvents is the daemon's and the coordinator's default firehose
// replay window. Once it is full every append copies the whole window, so
// timing starts only after each window has seen more events than this.
const windowEvents = 8192

// recoveryCycles is how many restarts sweep-cold and fed-warm time, a
// third after each timed segment; recovery_ms is the median.
const recoveryCycles = 36

// jobsFor returns a timed phase's fixed job count: the workload's nominal
// rate on a 2-core runner times --seconds, and never fewer than least. It
// is capped so no node's job table reaches its 256-job history limit, where
// eviction would start mid-run.
func (b *bench) jobsFor(perSecond float64, least int) int {
	return min(setupRepeats*maxSegmentJobs, max(least, int(perSecond*float64(b.seconds))))
}

// minJobs keeps a tail percentile in the untraced segments of a traced run.
const minJobs = 2 * (tailKeep + 2)

// maxSegmentJobs keeps setup plus one segment's timed jobs on the node the
// clients talk to below its 256-job history. fed-warm's daemons, which run
// several chunk jobs per federated job, are primed past that history
// instead, so every node stays in one history state for a whole segment.
const maxSegmentJobs = 160

func newClients(b *bench, url string, n int) []*client {
	cs := make([]*client, n)
	for i := range cs {
		cs[i] = newClient(b, url)
	}
	return cs
}

func closeClients(cs []*client) {
	for _, c := range cs {
		c.t.close()
	}
}

// startTracing turns spans and the CPU profile on; the returned stop turns
// both off and returns the profile.
func (b *bench) startTracing() (func() []byte, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	b.tr.enabled.Store(true)
	return func() []byte {
		b.tr.enabled.Store(false)
		pprof.StopCPUProfile()
		return buf.Bytes()
	}, nil
}

// prime runs req, a priming job over tiny dies, again and again until the
// node has stamped more than gseqs global sequences and created more than
// jobs jobs. Priming past windowEvents sequences leaves its firehose window
// full before timing starts; priming past historyJobs jobs leaves it
// evicting a finished job for every new one.
func prime(ctx context.Context, b *bench, clients []*client, req fpgavolt.CampaignRequest, gseqs, jobs int64) error {
	var lastG, lastJob atomic.Int64
	raise := func(v *atomic.Int64, x int64) {
		for old := v.Load(); x > old && !v.CompareAndSwap(old, x); old = v.Load() {
		}
	}
	var mu sync.Mutex
	var errs []error
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for lastG.Load() <= gseqs || lastJob.Load() <= jobs {
				r := runJob(ctx, b, c, -1, req, false)
				if !r.ok() {
					mu.Lock()
					errs = append(errs, errAll([]*jobRun{r}))
					mu.Unlock()
					return
				}
				for _, g := range r.gseqs {
					raise(&lastG, g)
				}
				raise(&lastJob, jobNumber(r.id))
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// fullWindow is the sequence count priming passes: a full firehose window
// and a margin.
const fullWindow = windowEvents + 64

// jobNumber is the sequence number in a daemon or coordinator job id
// ("job-0042" → 42): how many jobs the node has created.
func jobNumber(id string) int64 {
	i := strings.LastIndexByte(id, '-')
	n, _ := strconv.ParseInt(id[i+1:], 10, 64)
	return n
}

// historyJobs is the daemon's default job history; a node that has created
// more jobs evicts the oldest finished one for every new one.
const historyJobs = 256

// runOK runs one untimed job and fails unless it ends done.
func runOK(ctx context.Context, b *bench, c *client, req fpgavolt.CampaignRequest, fetch bool) (*jobRun, error) {
	r := runJob(ctx, b, c, -1, req, fetch)
	if !r.ok() {
		return nil, errAll([]*jobRun{r})
	}
	return r, nil
}

// timedJobs is what the timed segments of a closed-loop job workload ran
// and measured, pooled over the segments.
type timedJobs struct {
	n        int // timed jobs over all segments
	req      func(int) fpgavolt.CampaignRequest
	hitShare int          // every board must hit the FVM cache (1) or none may (0)
	samples  map[int]bool // jobs checked against the in-process engine
	rec      *fedRecorder // the coordinator's downstream recorder, if any
	front    string       // span layer of the node the clients talk to

	plain   []*phase // untraced segments
	traced  *phase   // a traced run's last segment
	prof    []byte
	journal uint64 // journal bytes written while jobs were timed
	refused int    // downstream calls refused or failed while jobs were timed

	recovery, open, replay []float64 // ms per restart
}

// newTimedJobs prints the digest of a job workload's n timed requests and
// picks the jobs the reference check compares.
func (b *bench) newTimedJobs(n int, req func(int) fpgavolt.CampaignRequest, hitShare int, rec *fedRecorder) (*timedJobs, error) {
	if err := b.printInputs(n, req); err != nil {
		return nil, err
	}
	return &timedJobs{n: n, req: req, hitShare: hitShare, samples: sampleJobs(b.seed, n, 2), rec: rec}, nil
}

// segment runs timed segment i against front: its share of the jobs in a
// closed loop, the check that their global sequences are contiguous, then
// the restarts of front that time recovery. nodes are every node whose
// journal counts.
func (b *bench) segment(ctx context.Context, t *timedJobs, i int, front *node, nodes []*node) error {
	from, to := share(i, t.n)
	t.front = front.layer
	var fail0 int64
	if t.rec != nil {
		fail0 = t.rec.failures.Load()
	}
	cs := newClients(b, front.url, 2)
	jb0 := journalBytes(nodes...)
	var ph *phase
	if b.tracedSegment(i) {
		stop, err := b.startTracing()
		if err != nil {
			closeClients(cs)
			return err
		}
		ph = drive(ctx, b, cs, from, to, t.req, func(int) bool { return true })
		t.traced, t.prof = ph, stop()
	} else {
		ph = drive(ctx, b, cs, from, to, t.req, func(j int) bool { return t.samples[j] })
		t.plain = append(t.plain, ph)
	}
	closeClients(cs)
	t.journal += journalBytes(nodes...) - jb0
	if t.rec != nil {
		t.refused += int(t.rec.failures.Load() - fail0)
	}
	b.check(fmt.Sprintf("gseq union of segment %d", i), gseqError(ph))
	return b.restartCycles(t, front, recoveryCycles/setupRepeats)
}

// reportJobs applies the correctness gate to every timed job and reports a
// job workload's metrics: end-to-end from an untraced run, per-layer from
// a traced one.
func (b *bench) reportJobs(ctx context.Context, t *timedJobs) error {
	if t.refused > 0 {
		b.attempted += t.refused
		b.failed += t.refused
		b.problem("%d downstream calls refused or failed in the timed segments", t.refused)
	}
	phases := t.plain
	if t.traced != nil {
		phases = append(phases, t.traced)
	}
	runs := runsOf(phases...)
	b.checkJobs(runs, t.hitShare)
	if err := b.checkReference(ctx, runs, t.samples, t.req, t.hitShare == 1); err != nil {
		return err
	}
	b.reportLayer("store.open_ms", "ms", median(t.open))
	b.reportLayer("server.replay_ms", "ms", median(t.replay))
	if b.traced {
		if err := b.reportLayers(t.traced, boardRate(t.plain), t.prof, t.rec, t.front); err != nil {
			return err
		}
	} else {
		b.reportJobPhases(t.plain, t.journal)
	}
	b.finish(t.recovery)
	return nil
}

// reportJobPhases reports the end-to-end metrics of a job workload's timed
// segments; journal is the journal bytes they wrote. Latencies are pooled
// over the segments, rates are medians over all the segments' slices, and
// wall-clock metrics are steal-free, each segment by its own factor.
func (b *bench) reportJobPhases(phases []*phase, journal uint64) {
	var lat []float64
	var sl []slice
	var boards, events int
	segRates := make([]string, len(phases))
	for i, ph := range phases {
		f := ph.stealFree
		for _, l := range ph.latencies() {
			lat = append(lat, l*f)
		}
		s := ph.slices(rateSlices)
		for j := range s {
			s[j].boardsPerS /= f
			s[j].eventsPerS /= f
		}
		sl = append(sl, s...)
		rates := make([]float64, len(s))
		for j := range s {
			rates[j] = s[j].boardsPerS
		}
		segRates[i] = fmtFloats(rates, 1)
		n, e := ph.totals()
		boards += n
		events += e
	}
	b.report("job_p50_ms", "ms", median(lat))
	tv, pct, ok := tail(lat)
	if !ok {
		b.problem("only %d job latencies: too few for a tail percentile", len(lat))
	}
	b.report("job_tail_ms", "ms", tv)
	b.report("boards_per_s", "1/s", medianOf(sl, func(s slice) float64 { return s.boardsPerS }))
	b.report("events_per_s", "1/s", medianOf(sl, func(s slice) float64 { return s.eventsPerS }))
	b.report("cpu_ms_per_board", "ms", medianOf(sl, func(s slice) float64 { return s.cpuMsPerBoard }))
	b.report("cpu_us_per_event", "us", medianOf(sl, func(s slice) float64 { return s.cpuUsPerEvent }))
	b.report("journal_bytes_per_event", "B", float64(journal)/float64(events))
	fmt.Fprintf(b.out, "timed: %d jobs, %d boards, %d events in %d segments; job_tail is p%d of %d\n",
		len(lat), boards, events, len(phases), pct, len(lat))
	h := len(sl) / 2
	fmt.Fprintf(b.out, "boards/s by slice, steal-free, per segment %s; median of halves %.2f / %.2f\n",
		strings.Join(segRates, " "), medianOf(sl[:h], func(s slice) float64 { return s.boardsPerS }),
		medianOf(sl[h:], func(s slice) float64 { return s.boardsPerS }))
}

// finish reports the metrics every workload shares and fills every
// per-layer metric a workload does not load with 0.
func (b *bench) finish(recovery []float64) {
	b.report("recovery_ms", "ms", median(recovery))
	b.report("peak_rss_mb", "MB", peakRSSMB())
	b.report("ops_ok_frac", "1", float64(b.attempted-b.failed)/float64(max(b.attempted, 1)))
	fmt.Fprintf(b.out, "recovery: %s ms\n", fmtFloats(recovery, 1))
	for _, m := range layerMetrics {
		if _, ok := b.layer[m.name]; !ok {
			b.layer[m.name] = metric{0, m.unit}
		}
	}
}

// journalBytes sums the journal byte counters of every node's store.
func journalBytes(nodes ...*node) uint64 {
	var n uint64
	for _, nd := range nodes {
		n += nd.st.journalBytes()
	}
	return n
}

// restartCycles restarts nd k times and adds each steal-free recovery time,
// and the store open and replay times within it, to t.
func (b *bench) restartCycles(t *timedJobs, nd *node, k int) error {
	steal0 := readSteal()
	var rec []float64
	for i := 0; i < k; i++ {
		b.attempted++
		if err := nd.restart(b); err != nil {
			b.failed++
			return fmt.Errorf("restart %d: %w", i, err)
		}
		rec = append(rec, ms(nd.startDur))
		t.open = append(t.open, ms(nd.openDur))
		t.replay = append(t.replay, ms(nd.replayDur))
	}
	f := stealFree(steal0)
	for _, r := range rec {
		t.recovery = append(t.recovery, r*f)
	}
	return nil
}

// sweepCold: one daemon; every job characterizes four never-seen full-chip
// dies, so the simulation layers do nearly all the work.
func sweepCold(ctx context.Context, b *bench) error {
	req := func(i int) fpgavolt.CampaignRequest { return coldJob(b.seed, i) }
	n := b.jobsFor(sweepColdJobsPerSecond, minJobs)
	t, err := b.newTimedJobs(n, req, 0, nil)
	if err != nil {
		return err
	}
	if b.traced {
		if err := b.replayDies(ctx, req(pickIndex(b.seed, n))); err != nil {
			return err
		}
	}
	var nd *node
	err = b.segments(func(i int) (func() error, error) {
		n, err := startNode(b, b.subdir("daemon-"+strconv.Itoa(i)), "server", daemonService)
		if err != nil {
			return nil, err
		}
		cs := newClients(b, n.url, 2)
		defer closeClients(cs)
		if err := prime(ctx, b, cs, primeHits(b.seed, "d", cacheEntries), fullWindow, 0); err != nil {
			n.stop()
			return nil, fmt.Errorf("prime window: %w", err)
		}
		// Warm-up on dies no timed job uses, after priming: the store's
		// background compaction of the priming logs finishes, and the heap,
		// the GC pacer and the FVM cache reach their steady state.
		ph := drive(ctx, b, cs, warmIndex, warmIndex+sweepWarmUpJobs, req, func(int) bool { return false })
		if err := errAll(ph.runs); err != nil {
			n.stop()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		nd = n
		return n.stop, nil
	}, func(i int) error { return b.segment(ctx, t, i, nd, []*node{nd}) })
	if err != nil {
		return err
	}
	return b.reportJobs(ctx, t)
}

// Nominal timed-phase rates on a 2-core runner: they fix each workload's
// job count for a given --seconds.
const (
	sweepColdJobsPerSecond = 8.5
	fedWarmJobsPerSecond   = 7
	resumeCyclesPerSecond  = 1.3
)

// sweepWarmUpJobs is how many cold jobs sweep-cold's setup runs after
// priming, so each timed segment starts in the state it keeps.
const sweepWarmUpJobs = 8

// warmIndex is the first job index of sweep-cold's warm-up jobs, far past
// any timed job, so their dies never collide.
const warmIndex = 1_000_000

// fedWarm: a coordinator over three daemons; every job re-runs the same
// sixteen boards, all FVM cache hits, so the serving layers do the work.
func fedWarm(ctx context.Context, b *bench) error {
	rec := &fedRecorder{inner: &http.Transport{}, tr: b.tr}
	defer rec.inner.(*http.Transport).CloseIdleConnections()
	set := warmSet(b.seed)
	t, err := b.newTimedJobs(b.jobsFor(fedWarmJobsPerSecond, minJobs), func(int) fpgavolt.CampaignRequest { return set }, 1, rec)
	if err != nil {
		return err
	}
	var coord *node
	var daemons []*node
	err = b.segments(func(i int) (func() error, error) {
		var ds []*node
		stopAll := func() error {
			var errs []error
			for _, d := range ds {
				errs = append(errs, d.stop())
			}
			return errors.Join(errs...)
		}
		var urls []string
		for k := 0; k < 3; k++ {
			d, err := startNode(b, b.subdir(fmt.Sprintf("fed-%d", i), "d"+strconv.Itoa(k)), "server", daemonService)
			if err != nil {
				stopAll()
				return nil, err
			}
			ds = append(ds, d)
			urls = append(urls, d.url)
		}
		c, err := startNode(b, b.subdir(fmt.Sprintf("fed-%d", i), "coord"), "fed", coordinatorService(urls, rec))
		if err != nil {
			stopAll()
			return nil, err
		}
		td := func() error { return errors.Join(c.stop(), stopAll()) }
		if err := warmFederation(ctx, b, c, ds, set); err != nil {
			td()
			return nil, err
		}
		coord, daemons = c, ds
		return td, nil
	}, func(i int) error { return b.segment(ctx, t, i, coord, append([]*node{coord}, daemons...)) })
	if err != nil {
		return err
	}
	return b.reportJobs(ctx, t)
}

// cacheEntries is a daemon's default FVM cache capacity: sweep-cold primes
// with that many tiny dies, which its warm-up then evicts.
const cacheEntries = 64

// warmFederation fills every node's job history and firehose window, then
// warms every daemon for every board of set directly: work stealing can
// hand any chunk to any daemon, so warming through the coordinator alone
// leaves misses whose number depends on timing. The coordinator's window
// fills first, alongside the daemons' job histories, while the daemons'
// windows are still cheap to append to; then each daemon's window. A few
// jobs of set through the coordinator bring the heap to its steady state.
func warmFederation(ctx context.Context, b *bench, coord *node, daemons []*node, set fpgavolt.CampaignRequest) error {
	cs := newClients(b, coord.url, 2)
	defer closeClients(cs)
	var wg sync.WaitGroup
	errs := make([]error, len(daemons)+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		errs[len(daemons)] = prime(ctx, b, cs, primeLevels(b.seed, "f", 16), fullWindow, 0)
	}()
	for k, d := range daemons {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dc := newClients(b, d.url, 1)
			defer closeClients(dc)
			// One-board jobs of three events each fill the job history
			// with few appends.
			errs[k] = prime(ctx, b, dc, primeHits(b.seed, "h"+strconv.Itoa(k), 1), 0, historyJobs+16)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("prime coordinator window and daemon histories: %w", err)
	}
	for k, d := range daemons {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dc := newClients(b, d.url, 1)
			defer closeClients(dc)
			errs[k] = prime(ctx, b, dc, primeHits(b.seed, "d"+strconv.Itoa(k), cacheEntries-len(set.Boards)-1), fullWindow, 0)
			if errs[k] == nil {
				_, errs[k] = runOK(ctx, b, dc[0], set, false)
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("prime and warm daemons: %w", err)
	}
	ph := drive(ctx, b, cs, 0, fedWarmUpJobs, func(int) fpgavolt.CampaignRequest { return set }, func(int) bool { return false })
	if err := errAll(ph.runs); err != nil {
		return fmt.Errorf("warm coordinator: %w", err)
	}
	for _, r := range ph.runs {
		if r.hits != r.boards {
			return fmt.Errorf("warm coordinator job hit the cache on %d of %d boards", r.hits, r.boards)
		}
	}
	return nil
}

// fedWarmUpJobs is how many jobs of the warm set setup runs through the
// coordinator before timing.
const fedWarmUpJobs = 6

// printInputs prints a digest of the n request bodies req generates: the
// same seed must print the same digest.
func (b *bench) printInputs(n int, req func(int) fpgavolt.CampaignRequest) error {
	reqs := make([]fpgavolt.CampaignRequest, n)
	for i := range reqs {
		reqs[i] = req(i)
	}
	d, err := inputDigest(reqs)
	if err != nil {
		return err
	}
	fmt.Fprintf(b.out, "inputs: %d requests, sha256 %s\n", n, d)
	return nil
}

// checkJobs applies the per-job gate: every job done, with the workload's
// exact cache-hit share (0 = all cold, 1 = all hits).
func (b *bench) checkJobs(runs []*jobRun, hitShare int) {
	b.attempted += len(runs)
	var boards, hits int
	for _, r := range runs {
		if !r.ok() {
			b.failed++
			continue
		}
		boards += r.boards
		hits += r.hits
	}
	b.check("jobs", errAll(runs))
	if boards == 0 || hits != hitShare*boards {
		b.problem("from_cache on %d of %d boards, want share exactly %d", hits, boards, hitShare)
	}
}

// sampleJobs picks k of n job indices from the seed: the jobs whose rows
// the reference check compares.
func sampleJobs(seed uint64, n, k int) map[int]bool {
	r := derive(seed, "sample")
	out := make(map[int]bool, k)
	for len(out) < min(k, n) {
		out[r.intn(n)] = true
	}
	return out
}

func pickIndex(seed uint64, n int) int { return derive(seed, "replay").intn(n) }

// traceFile returns the path of this run's trace artifact with suffix.
func (b *bench) traceFile(suffix string) (string, error) {
	if err := os.MkdirAll(b.traceDir, 0o755); err != nil {
		return "", err
	}
	return filepath.Join(b.traceDir, fmt.Sprintf("%s-seed%d%s", b.workload, b.seed, suffix)), nil
}
