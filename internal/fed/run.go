package fed

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/server"
)

// chunk is the federation work unit: a run of consecutive fleet positions
// (global board indices) that hash to the same daemon, capped at
// Config.ChunkBoards. A chunk rides one downstream campaign; on daemon
// death the whole chunk is retried on a survivor, and the per-board dedup
// in fedJob keeps a partially-completed first attempt from double counting.
type chunk struct {
	boards   []int
	attempts int
}

// sched is one job's work-stealing scheduler: a chunk queue per daemon plus
// a pending count covering queued AND in-flight chunks — a retried chunk is
// still pending while it waits on a survivor's queue, so completion cannot
// be declared from empty queues alone.
type sched struct {
	mu      sync.Mutex
	cond    *sync.Cond
	queues  map[string][]*chunk
	pending int
	stopped bool
}

func newSched(daemons []string) *sched {
	s := &sched{queues: make(map[string][]*chunk, len(daemons))}
	s.cond = sync.NewCond(&s.mu)
	for _, d := range daemons {
		s.queues[d] = nil
	}
	return s
}

// push queues ch on daemon d and wakes every runner (any of them may steal
// it).
func (s *sched) push(d string, ch *chunk) {
	s.mu.Lock()
	s.queues[d] = append(s.queues[d], ch)
	s.mu.Unlock()
	s.cond.Broadcast()
}

// done retires one chunk for good — merged or permanently failed.
func (s *sched) done() {
	s.mu.Lock()
	s.pending--
	s.mu.Unlock()
	s.cond.Broadcast()
}

// stop unblocks every runner (job cancelled).
func (s *sched) stop() {
	s.mu.Lock()
	s.stopped = true
	s.mu.Unlock()
	s.cond.Broadcast()
}

// pop blocks until daemon d has work (its own queue first, then the longest
// other queue — the steal), every chunk is retired, or the job stops.
// stolen reports whether the chunk came from another daemon's queue. A
// runner whose daemon is unhealthy takes no work — unless NO daemon is
// healthy, where optimistic attempts (bounded by the chunk retry limit) are
// the only way the job can still terminate.
func (s *sched) pop(d string, healthy func(string) bool) (ch *chunk, stolen bool, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.stopped || s.pending == 0 {
			return nil, false, false
		}
		take := healthy(d)
		if !take {
			take = true
			for v := range s.queues {
				if v != d && healthy(v) {
					take = false
					break
				}
			}
		}
		if take {
			if q := s.queues[d]; len(q) > 0 {
				ch = q[0]
				s.queues[d] = q[1:]
				return ch, false, true
			}
			victim, best := "", 0
			for v, q := range s.queues {
				if v != d && len(q) > best {
					victim, best = v, len(q)
				}
			}
			if victim != "" {
				q := s.queues[victim]
				// Steal from the tail: the victim drains its queue from the
				// head, so the two contend on opposite ends.
				ch = q[len(q)-1]
				s.queues[victim] = q[:len(q)-1]
				return ch, true, true
			}
		}
		s.cond.Wait()
	}
}

// errCancelled is the terminal error of a cancelled federated campaign.
var errCancelled = errors.New("campaign cancelled")

// runJob executes one federated campaign to its terminal state, unless it
// was cancelled while queued. Finish releases the job context, so the
// per-job watcher goroutine exits with it.
func (c *Coordinator) runJob(j *fedJob) {
	// The request's bulk payload (an nn-inference network and test set) is
	// dead weight once the shards are done; the status hook keeps j alive.
	defer func() { j.req = server.CampaignRequest{} }()
	ctx := j.job.Context()
	if !j.job.SetRunning() {
		return
	}
	if ctx.Err() != nil {
		j.job.Finish(errCancelled, nil)
		return
	}

	// Shard plan: every board's home daemon comes off the hash ring,
	// skipping daemons that are currently dead. If nothing is healthy the
	// plan falls back to the full ring — the optimistic attempts below fail
	// fast and bounded rather than hanging the job.
	owners := make([]string, len(j.flat))
	for i, b := range j.flat {
		key := boardKey(b.Platform, b.Serial)
		o := c.ring.owner(key, func(d string) bool { return !c.isHealthy(d) })
		if o == "" {
			o = c.ring.owner(key, nil)
		}
		if o == "" {
			j.job.Finish(errors.New("federation has no downstream daemons"), nil)
			return
		}
		owners[i] = o
	}
	s := newSched(c.cfg.Downstreams)
	for i := 0; i < len(owners); {
		k := i + 1
		for k < len(owners) && owners[k] == owners[i] && k-i < c.cfg.ChunkBoards {
			k++
		}
		ch := &chunk{boards: make([]int, 0, k-i)}
		for g := i; g < k; g++ {
			ch.boards = append(ch.boards, g)
		}
		s.queues[owners[i]] = append(s.queues[owners[i]], ch)
		s.pending++
		i = k
	}

	// The watcher wakes blocked runners when the job is cancelled, and on
	// the health cadence so a runner parked on a dead daemon re-checks after
	// the daemon revives (or after every other daemon dies).
	go func() {
		t := time.NewTicker(c.cfg.HealthEvery)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				s.stop()
				return
			case <-t.C:
				s.cond.Broadcast()
			}
		}
	}()

	var wg sync.WaitGroup
	for _, d := range c.cfg.Downstreams {
		wg.Add(1)
		go func(d string) {
			defer wg.Done()
			for {
				ch, stolen, ok := s.pop(d, c.isHealthy)
				if !ok {
					return
				}
				c.runChunk(j, s, d, ch, stolen)
			}
		}(d)
	}
	wg.Wait()

	if ctx.Err() != nil {
		j.job.Finish(errCancelled, nil)
		return
	}
	// Every chunk merged or failed its boards: fold the wire results into
	// the same fleet aggregate a single daemon computes. The fold runs over
	// the global fleet order, so the summary is bit-identical to the
	// unsharded run.
	j.mu.Lock()
	samples := make([]engine.BoardSample, len(j.flat))
	for i := range j.flat {
		samples[i] = server.SampleFromStatus(j.req.Kind, j.results[i])
	}
	agg := engine.AggregateSamples(samples)
	j.agg = &agg
	j.mu.Unlock()
	j.job.Finish(nil, nil)
}

// runChunk executes one chunk on one daemon: submit the chunk's boards as a
// downstream campaign, re-stamp its event stream, and merge its results.
// Failures route through chunkFailed, which decides between retrying on a
// survivor and failing the chunk's boards.
func (c *Coordinator) runChunk(j *fedJob, s *sched, daemon string, ch *chunk, stolen bool) {
	req := j.req
	req.Boards = make([]server.BoardSpec, len(ch.boards))
	for i, g := range ch.boards {
		req.Boards[i] = j.flat[g]
	}
	cl := c.clients[daemon]
	var sub server.JobStatus
	bo := newBackoff(submitBackoffBase, submitBackoffCap)
	for attempt := 0; ; attempt++ {
		var err error
		sub, err = func() (server.JobStatus, error) {
			ctx, cancel := c.callCtx(j.job.Context())
			defer cancel()
			return cl.Submit(ctx, req)
		}()
		if err == nil {
			c.health.ok(daemon)
			break
		}
		// Queue-full is the daemon's admission control working, not a
		// failure: jittered backoff until a downstream worker drains a job,
		// without burning the chunk's retry budget. A chaos-injected 503
		// rides the same path — retried in place, invisible to the job.
		var se *server.APIStatusError
		if errors.As(err, &se) && se.StatusCode == http.StatusServiceUnavailable && attempt < 1000 {
			if !bo.sleep(j.job.Context()) {
				s.done()
				return
			}
			continue
		}
		c.chunkFailed(j, s, daemon, ch, fmt.Errorf("submit: %w", err))
		return
	}
	j.noteShard(daemon, len(ch.boards), sub.ID, stolen)
	final, err := c.waitChunk(j, cl, daemon, sub.ID, ch)
	if err != nil {
		if j.job.Context().Err() != nil {
			// Cancelled above: stop the orphaned downstream run, best-effort.
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			cl.Cancel(ctx, sub.ID)
			cancel()
			s.done()
			return
		}
		c.chunkFailed(j, s, daemon, ch, fmt.Errorf("stream %s: %w", sub.ID, err))
		return
	}
	switch final.State {
	case server.JobDone:
		j.mergeResults(ch, final.BoardResults)
		s.done()
	default:
		// The daemon stayed reachable but its job died (or was cancelled
		// underneath us): retry elsewhere without declaring the daemon dead.
		c.chunkFailed(j, s, daemon, ch, fmt.Errorf("downstream job %s ended %s: %s", sub.ID, final.State, final.Error))
	}
}

// waitChunk follows one downstream campaign to its terminal event, resuming
// a broken stream from the last re-stamped Seq (the Last-Event-ID cursor) so
// a chaos-severed connection — or a daemon mid-restart — costs a reconnect,
// not a full chunk failover. Every break feeds the breaker; a resume that
// delivered fresh events resets the break budget, so only StreamRetries
// consecutive *fruitless* reconnects abandon the stream. Deterministic
// refusals (4xx: the downstream job is gone) surface immediately — resuming
// cannot help, chunkFailed must re-shard.
func (c *Coordinator) waitChunk(j *fedJob, cl *server.Client, daemon, jobID string, ch *chunk) (server.JobStatus, error) {
	after := -1
	breaks := 0
	bo := newBackoff(streamBackoffBase, streamBackoffCap)
	for {
		progressed := false
		err := cl.EventsFrom(j.job.Context(), jobID, after, func(ev server.JobEvent) error {
			if ev.Seq > after {
				after = ev.Seq
				progressed = true
			}
			switch ev.Type {
			case "start", "level", "done", "failed":
				if ev.Board >= 0 && ev.Board < len(ch.boards) {
					j.boardEvent(ev, ch.boards[ev.Board])
				}
			}
			// Everything else — the downstream terminal "campaign" event,
			// its retry/truncated/journal_degraded markers — is absorbed:
			// the federated job has exactly one terminal event and one
			// journal, the coordinator's.
			return nil
		})
		if err == nil {
			return c.finalStatus(j.job.Context(), cl, daemon, jobID)
		}
		if j.job.Context().Err() != nil {
			return server.JobStatus{}, err
		}
		if permanentRefusal(err) {
			return server.JobStatus{}, err
		}
		c.health.fail(daemon)
		if progressed {
			breaks = 0
		}
		breaks++
		if breaks > c.cfg.StreamRetries {
			return server.JobStatus{}, fmt.Errorf("stream broke %d times without progress: %w", breaks, err)
		}
		if !bo.sleep(j.job.Context()) {
			return server.JobStatus{}, j.job.Context().Err()
		}
	}
}

// finalStatus fetches a finished downstream job's full document — board
// results included — under per-call deadlines, retrying transient failures:
// the chunk already ran to completion, so giving up here over one dropped
// response would waste the whole run.
func (c *Coordinator) finalStatus(ctx context.Context, cl *server.Client, daemon, jobID string) (server.JobStatus, error) {
	bo := newBackoff(submitBackoffBase, submitBackoffCap)
	var last error
	for attempt := 0; attempt < 5; attempt++ {
		st, err := func() (server.JobStatus, error) {
			cctx, cancel := c.callCtx(ctx)
			defer cancel()
			return cl.Job(cctx, jobID)
		}()
		if err == nil {
			c.health.ok(daemon)
			return st, nil
		}
		last = err
		if permanentRefusal(err) {
			return server.JobStatus{}, err
		}
		c.health.fail(daemon)
		if !bo.sleep(ctx) {
			break
		}
	}
	return server.JobStatus{}, fmt.Errorf("final status: %w", last)
}

// permanentRefusal reports whether err is a downstream 4xx other than 408
// and 429: the daemon understood the request and refused it, so retrying
// it, here or on another daemon, cannot succeed.
func permanentRefusal(err error) bool {
	var se *server.APIStatusError
	return errors.As(err, &se) && se.StatusCode >= 400 && se.StatusCode < 500 &&
		se.StatusCode != http.StatusRequestTimeout && se.StatusCode != http.StatusTooManyRequests
}

// chunkFailed routes one failed chunk attempt: permanent request rejections
// fail the chunk's boards outright, transport errors mark the daemon dead,
// and everything retryable goes back on a survivor's queue — recorded as a
// ShardRetry and a "retry" event, the federation-visible trace of the
// failover.
func (c *Coordinator) chunkFailed(j *fedJob, s *sched, daemon string, ch *chunk, err error) {
	reason := err.Error()
	var se *server.APIStatusError
	switch {
	case permanentRefusal(err):
		// The daemon understood the request and refused it (bad token,
		// disagreeing validation). Deterministic — no daemon will differ.
		j.failBoards(ch, reason)
		s.done()
		return
	case !errors.As(err, &se):
		// Transport-level death: unambiguous evidence, so trip the breaker
		// open immediately — waiting out failN probe ticks would stall the
		// chunk's migration to a survivor.
		c.health.trip(daemon)
	}
	ch.attempts++
	if ch.attempts >= c.cfg.RetryLimit {
		j.failBoards(ch, fmt.Sprintf("%s (attempt %d of %d)", reason, ch.attempts, c.cfg.RetryLimit))
		s.done()
		return
	}
	key := boardKey(j.flat[ch.boards[0]].Platform, j.flat[ch.boards[0]].Serial)
	to := c.ring.owner(key, func(d string) bool { return d == daemon || !c.isHealthy(d) })
	if to == "" {
		// Nothing else is healthy; re-queue on the ring wherever it lands
		// (possibly the same daemon, if it revives) rather than giving up
		// while retry budget remains.
		to = c.ring.owner(key, nil)
	}
	if to == "" {
		j.failBoards(ch, "no downstream daemon available: "+reason)
		s.done()
		return
	}
	j.noteRetry(daemon, to, len(ch.boards), reason)
	s.push(to, ch)
}

// --- fedJob bookkeeping for the scheduler ------------------------------

// noteShard credits daemon with one executed chunk in the job's shard map.
func (j *fedJob) noteShard(daemon string, boards int, downstreamJob string, stolen bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for i := range j.shards {
		if j.shards[i].Daemon == daemon {
			j.shards[i].Boards += boards
			j.shards[i].Jobs = append(j.shards[i].Jobs, downstreamJob)
			if stolen {
				j.shards[i].Stolen++
			}
			return
		}
	}
	sh := server.ShardStatus{Daemon: daemon, Boards: boards, Jobs: []string{downstreamJob}}
	if stolen {
		sh.Stolen = 1
	}
	j.shards = append(j.shards, sh)
}

// noteRetry records one chunk failover in the job detail and its event
// stream.
func (j *fedJob) noteRetry(from, to string, boards int, reason string) {
	j.mu.Lock()
	j.retries = append(j.retries, server.ShardRetry{From: from, To: to, Boards: boards, Reason: reason})
	j.mu.Unlock()
	j.job.Append(server.JobEvent{Type: "retry", Error: reason})
}

// mergeResults lands one successful chunk's board rows at their global
// fleet positions. The downstream Board indices are shard-local; they are
// rewritten to the coordinator's global order.
func (j *fedJob) mergeResults(ch *chunk, finals []server.BoardStatus) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, bs := range finals {
		if bs.Board < 0 || bs.Board >= len(ch.boards) {
			continue
		}
		g := ch.boards[bs.Board]
		bs.Board = g
		j.results[g] = bs
	}
}

// failBoards marks every board of a permanently failed chunk. Chunks merge
// atomically, so a chunk that reaches here merged nothing — every one of
// its boards gets the failure row, and boards that streamed a premature
// "done" on an earlier partial attempt stay counted (the dedup in
// boardEvent) without resurrecting results that were never merged.
func (j *fedJob) failBoards(ch *chunk, reason string) {
	for _, g := range ch.boards {
		spec := j.flat[g]
		j.mu.Lock()
		j.results[g] = server.BoardStatus{Board: g, Platform: spec.Platform, Serial: spec.Serial, Error: reason}
		j.mu.Unlock()
		j.boardEvent(server.JobEvent{Type: "failed", Platform: spec.Platform, Serial: spec.Serial, Error: reason}, g)
	}
}
