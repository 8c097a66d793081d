package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/fpgavolt"
)

// restartResume: setup journals completed mitigation campaigns through one
// daemon; each timed cycle restarts the daemon from its store and resumes
// the firehose and a fixed set of jobs from the very start.
func restartResume(ctx context.Context, b *bench) error {
	if err := b.printInputs(populateJobs, func(i int) fpgavolt.CampaignRequest { return mitigationJob(b.seed, i) }); err != nil {
		return err
	}
	k := b.jobsFor(resumeCyclesPerSecond, setupRepeats)
	var nd *node
	var pop *population
	var plain, traced cycles
	var prof []byte
	var journal uint64
	var events int
	err := b.segments(func(i int) (func() error, error) {
		n, err := startNode(b, b.subdir("resume-"+strconv.Itoa(i)), "server", daemonService)
		if err != nil {
			return nil, err
		}
		p, err := populate(ctx, b, n)
		if err != nil {
			n.stop()
			return nil, err
		}
		nd, pop = n, p
		return n.stop, nil
	}, func(i int) error {
		fmt.Fprintf(b.out, "populate %d: %d jobs, %d events, resume set %v\n", i, len(pop.jobs), len(pop.events), pop.resumeSet)
		journal += pop.journalBytes
		events += len(pop.events)
		from, to := share(i, k)
		if !b.tracedSegment(i) {
			return b.resumeCycles(ctx, nd, pop, to-from, &plain)
		}
		stop, err := b.startTracing()
		if err != nil {
			return err
		}
		err = b.resumeCycles(ctx, nd, pop, to-from, &traced)
		prof = stop()
		return err
	})
	if err != nil {
		return err
	}
	b.report("journal_bytes_per_event", "B", float64(journal)/float64(events))
	if b.traced {
		if err := b.reportResumeLayers(&plain, &traced, prof); err != nil {
			return err
		}
	} else {
		b.reportResume(&plain)
	}
	b.finish(append(plain.recovery, traced.recovery...))
	return nil
}

// populateJobs is how many mitigation jobs setup journals; with per-level
// events that is more than one firehose window.
const populateJobs = 12

// resumeSetSize is how many jobs the second client resumes per cycle.
const resumeSetSize = 8

// population is what restart-resume's setup journaled, as its clients saw
// it live.
type population struct {
	jobs         []string
	perJob       map[string]string // job id → digest of its events
	events       []fpgavolt.JobEvent
	digest       string // all events in GSeq order
	lastGSeq     int64
	boards       int
	resumeSet    []string
	journalBytes uint64
}

// populate runs the mitigation jobs through nd with two clients, recording
// every event each job stream delivered.
func populate(ctx context.Context, b *bench, nd *node) (*population, error) {
	cs := newClients(b, nd.url, 2)
	defer closeClients(cs)
	jb0 := nd.st.journalBytes()
	type jobEvents struct {
		id  string
		evs []fpgavolt.JobEvent
		err error
	}
	out := make([]jobEvents, populateJobs)
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= populateJobs {
					return
				}
				st, err := c.Submit(ctx, mitigationJob(b.seed, i))
				if err != nil {
					out[i].err = err
					return
				}
				out[i].id = st.ID
				out[i].err = c.Events(ctx, st.ID, func(ev fpgavolt.JobEvent) error {
					out[i].evs = append(out[i].evs, ev)
					return nil
				})
			}
		}()
	}
	wg.Wait()
	p := &population{perJob: map[string]string{}, journalBytes: nd.st.journalBytes() - jb0}
	for i, je := range out {
		if je.err != nil || je.id == "" {
			return nil, fmt.Errorf("populate job %d: %v", i, je.err)
		}
		if last := je.evs[len(je.evs)-1]; last.State != fpgavolt.JobDone {
			return nil, fmt.Errorf("populate job %s ended %q", je.id, last.State)
		}
		evs := normalize(je.id, je.evs)
		p.jobs = append(p.jobs, je.id)
		p.perJob[je.id] = digest(evs)
		p.events = append(p.events, evs...)
	}
	sort.Slice(p.events, func(i, j int) bool { return p.events[i].GSeq < p.events[j].GSeq })
	for _, ev := range p.events {
		if ev.Type == "done" {
			p.boards++
		}
	}
	p.digest = digest(p.events)
	p.lastGSeq = p.events[len(p.events)-1].GSeq
	if len(p.events) <= windowEvents || p.lastGSeq != int64(len(p.events)) {
		return nil, fmt.Errorf("populate journaled %d events up to gseq %d: want a dense journal over one %d-event window",
			len(p.events), p.lastGSeq, windowEvents)
	}
	r := derive(b.seed, "resume-set")
	for _, i := range r.perm(len(p.jobs))[:resumeSetSize] {
		p.resumeSet = append(p.resumeSet, p.jobs[i])
	}
	return p, nil
}

// normalize stamps every event with its job id, so per-job and firehose
// deliveries of one event hash alike.
func normalize(id string, evs []fpgavolt.JobEvent) []fpgavolt.JobEvent {
	out := make([]fpgavolt.JobEvent, len(evs))
	for i, ev := range evs {
		ev.Job = id
		out[i] = ev
	}
	return out
}

func digest(evs []fpgavolt.JobEvent) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, ev := range evs {
		enc.Encode(ev)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cycles is what restart-resume's timed cycles measured, pooled over the
// segments. Wall-clock times are steal-free, each segment's by its own
// factor.
type cycles struct {
	recovery, open, replay []float64 // ms per restart
	resumeMs               []float64 // per-job resume latencies
	events, boards         []int     // delivered per cycle
	wall, cpu              []time.Duration
	rt0, rt1               runtimeSample // over the last segment
}

var errStop = errors.New("stop")

// resumeCycles runs k restart-and-resume cycles and adds them to cy.
func (b *bench) resumeCycles(ctx context.Context, nd *node, pop *population, k int, cy *cycles) error {
	cy.rt0 = readRuntime()
	steal0 := readSteal()
	var recovery, resumeMs []float64
	var wall []time.Duration
	for i := 0; i < k; i++ {
		b.attempted++
		if err := nd.restart(b); err != nil {
			b.failed++
			return fmt.Errorf("restart: %w", err)
		}
		recovery = append(recovery, ms(nd.startDur))
		cy.open = append(cy.open, ms(nd.openDur))
		cy.replay = append(cy.replay, ms(nd.replayDur))
		cs := newClients(b, nd.url, 2)
		cpu0, t0 := cpuTime(), time.Now()
		var wg sync.WaitGroup
		var fhEvents []fpgavolt.JobEvent
		var fhErr error
		wg.Add(1)
		go func() {
			defer wg.Done()
			fhErr = cs[0].Firehose(ctx, 0, func(ev fpgavolt.JobEvent) error {
				fhEvents = append(fhEvents, ev)
				if ev.GSeq >= pop.lastGSeq {
					return errStop
				}
				return nil
			})
		}()
		jobEvents, jobBoards := 0, 0
		for _, id := range pop.resumeSet {
			b.attempted++
			s0 := time.Now()
			var evs []fpgavolt.JobEvent
			err := cs[1].EventsFrom(ctx, id, -1, func(ev fpgavolt.JobEvent) error {
				evs = append(evs, ev)
				return nil
			})
			lat := time.Since(s0)
			if err == nil && digest(normalize(id, evs)) != pop.perJob[id] {
				err = fmt.Errorf("resumed events differ from the %d journaled", len(evs))
			}
			if err != nil {
				b.failed++
				b.problem("resume job %s: %v", id, err)
				continue
			}
			resumeMs = append(resumeMs, ms(lat))
			jobEvents += len(evs)
			for _, ev := range evs {
				if ev.Type == "done" {
					jobBoards++
				}
			}
		}
		wg.Wait()
		wall = append(wall, time.Since(t0))
		cy.cpu = append(cy.cpu, cpuTime()-cpu0)
		closeClients(cs)
		b.attempted++
		if !errors.Is(fhErr, errStop) {
			b.failed++
			b.problem("firehose resume: %v", fhErr)
		} else if len(fhEvents) != len(pop.events) || digest(fhEvents) != pop.digest {
			b.failed++
			b.problem("firehose resume delivered %d events (digest mismatch or count), journaled %d", len(fhEvents), len(pop.events))
		}
		cy.events = append(cy.events, len(fhEvents)+jobEvents)
		cy.boards = append(cy.boards, pop.boards+jobBoards)
	}
	cy.rt1 = readRuntime()
	f := stealFree(steal0)
	for _, r := range recovery {
		cy.recovery = append(cy.recovery, r*f)
	}
	for _, l := range resumeMs {
		cy.resumeMs = append(cy.resumeMs, l*f)
	}
	for _, w := range wall {
		cy.wall = append(cy.wall, time.Duration(float64(w)*f))
	}
	return nil
}

func (cy *cycles) totals() (events, boards int, wall time.Duration) {
	for i := range cy.wall {
		events += cy.events[i]
		boards += cy.boards[i]
		wall += cy.wall[i]
	}
	return
}

// reportResume reports restart-resume's end-to-end metrics; rates are
// medians over cycles.
func (b *bench) reportResume(cy *cycles) {
	b.report("job_p50_ms", "ms", median(cy.resumeMs))
	tv, pct, ok := tail(cy.resumeMs)
	if !ok {
		b.problem("only %d resume latencies: too few for a tail percentile", len(cy.resumeMs))
	}
	b.report("job_tail_ms", "ms", tv)
	var eps, bps, cpe, cpb []float64
	for i, w := range cy.wall {
		eps = append(eps, float64(cy.events[i])/w.Seconds())
		bps = append(bps, float64(cy.boards[i])/w.Seconds())
		cpe = append(cpe, cy.cpu[i].Seconds()*1e6/float64(cy.events[i]))
		cpb = append(cpb, cy.cpu[i].Seconds()*1e3/float64(cy.boards[i]))
	}
	b.report("events_per_s", "1/s", median(eps))
	b.report("boards_per_s", "1/s", median(bps))
	b.report("cpu_us_per_event", "us", median(cpe))
	b.report("cpu_ms_per_board", "ms", median(cpb))
	events, _, wall := cy.totals()
	fmt.Fprintf(b.out, "timed: %d cycles, %d events in %.3f s of resume, steal-free; job_tail is p%d of %d\n",
		len(cy.wall), events, wall.Seconds(), pct, len(cy.resumeMs))
	h := len(eps) / 2
	fmt.Fprintf(b.out, "events/s by cycle %s; median of halves %.0f / %.0f\n",
		fmtFloats(eps, 0), median(eps[:h]), median(eps[h:]))
}
