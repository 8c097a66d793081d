package main

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/fpgavolt"
)

// jobRun is one job as its client saw it: submitted, streamed from Seq 0 to
// the terminal campaign event.
type jobRun struct {
	idx    int
	id     string
	submit time.Time
	end    time.Time     // terminal event received
	cpuEnd time.Duration // process CPU time then
	state  string        // terminal event's job state
	err    error         // refused submit, stream error or sequence gap

	events, boards, hits int
	gseqs                []int64
	boardMs              []float64           // start→done per board, traced runs only
	status               *fpgavolt.JobStatus // fetched after the end when asked
}

func (r *jobRun) latency() time.Duration { return r.end.Sub(r.submit) }

// ok reports whether the job ran to a done terminal event with a dense
// stream.
func (r *jobRun) ok() bool { return r.err == nil && r.state == string(fpgavolt.JobDone) }

// runJob submits req and follows the job's event stream to its terminal
// event, checking Seq density as events arrive. With fetch it then reads
// the job's status (after the latency is taken).
func runJob(ctx context.Context, b *bench, c *client, idx int, req fpgavolt.CampaignRequest, fetch bool) *jobRun {
	r := &jobRun{idx: idx}
	traced := b.tr.on()
	var jobSpan int64
	if traced {
		jobSpan = b.tr.newID()
		ctx = withSpan(ctx, jobSpan)
	}
	r.submit = time.Now()
	st, err := c.Submit(ctx, req)
	if traced {
		b.tr.add("client.submit", 0, jobSpan, st.ID, r.submit, time.Now())
	}
	if err != nil {
		r.err = fmt.Errorf("submit job %d: %w", idx, err)
		return r
	}
	r.id = st.ID
	s0 := time.Now()
	var starts map[int]time.Time
	if traced {
		starts = make(map[int]time.Time)
	}
	next := 0
	err = c.Events(ctx, st.ID, func(ev fpgavolt.JobEvent) error {
		now := time.Now()
		if ev.Seq != next {
			return fmt.Errorf("seq %d after %d", ev.Seq, next-1)
		}
		next++
		r.events++
		r.gseqs = append(r.gseqs, ev.GSeq)
		switch ev.Type {
		case "start":
			if traced {
				starts[ev.Board] = now
			}
		case "done":
			r.boards++
			if ev.FromCache {
				r.hits++
			}
			if t, ok := starts[ev.Board]; ok {
				r.boardMs = append(r.boardMs, ms(now.Sub(t)))
			}
		case "campaign":
			r.end, r.cpuEnd, r.state = now, cpuTime(), string(ev.State)
		}
		return nil
	})
	if traced {
		b.tr.add("client.stream", 0, jobSpan, r.id, s0, time.Now())
		b.tr.add("client.job", jobSpan, 0, r.id, r.submit, r.end)
	}
	if err != nil {
		r.err = fmt.Errorf("job %s events: %w", r.id, err)
		return r
	}
	if fetch {
		st, err := c.Job(ctx, r.id)
		if err != nil {
			r.err = fmt.Errorf("job %s status: %w", r.id, err)
			return r
		}
		r.status = &st
	}
	return r
}

// phase is one measured stretch of closed-loop work.
type phase struct {
	runs       []*jobRun
	start, end time.Time
	cpu0       time.Duration // process CPU time at the start
	rt0, rt1   runtimeSample
	stealFree  float64 // see stealFree
}

// drive runs jobs [from, to) in a closed loop: each client submits its next
// job only after its previous one ended. fetch selects the jobs whose
// status is read back.
func drive(ctx context.Context, b *bench, clients []*client, from, to int,
	req func(int) fpgavolt.CampaignRequest, fetch func(int) bool) *phase {
	ph := &phase{runs: make([]*jobRun, to-from)}
	var next atomic.Int64
	next.Store(int64(from))
	var wg sync.WaitGroup
	steal0 := readSteal()
	ph.rt0, ph.cpu0, ph.start = readRuntime(), cpuTime(), time.Now()
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= to {
					return
				}
				ph.runs[i-from] = runJob(ctx, b, c, i, req(i), fetch(i))
			}
		}()
	}
	wg.Wait()
	ph.rt1 = readRuntime()
	ph.stealFree = stealFree(steal0)
	// The phase ends at its last terminal event, not when the clients
	// noticed the loop was over.
	ph.end = ph.start
	for _, r := range ph.runs {
		if r.ok() && r.end.After(ph.end) {
			ph.end = r.end
		}
	}
	return ph
}

func (ph *phase) wall() time.Duration { return ph.end.Sub(ph.start) }

// boardRate is the boards the phases completed per second of their summed
// wall time.
func boardRate(phases []*phase) float64 {
	var boards int
	var wall time.Duration
	for _, ph := range phases {
		n, _ := ph.totals()
		boards += n
		wall += ph.wall()
	}
	return float64(boards) / wall.Seconds()
}

// totals sums boards and events over the phase.
func (ph *phase) totals() (boards, events int) {
	for _, r := range ph.runs {
		boards += r.boards
		events += r.events
	}
	return
}

// latencies returns the client-observed latency of every successful job,
// in milliseconds.
func (ph *phase) latencies() []float64 {
	var out []float64
	for _, r := range ph.runs {
		if r.ok() {
			out = append(out, ms(r.latency()))
		}
	}
	return out
}

// rateSlices is how many consecutive slices each timed segment's
// throughput is measured over; the reported rate is the median over all
// the segments' slices, so a stall of the runner that hits one or two
// slices does not move it.
const rateSlices = 3

// slice is the throughput of one run of consecutive job completions.
type slice struct {
	boardsPerS, eventsPerS, cpuMsPerBoard, cpuUsPerEvent float64
}

// slices splits the phase's completed jobs, in completion order, into k
// runs of equal count, each timed from the previous run's last completion
// (the first from the phase start) to its own.
func (ph *phase) slices(k int) []slice {
	var done []*jobRun
	for _, r := range ph.runs {
		if r.ok() {
			done = append(done, r)
		}
	}
	sort.Slice(done, func(i, j int) bool { return done[i].end.Before(done[j].end) })
	k = min(k, len(done))
	out := make([]slice, 0, k)
	from, cpuFrom := ph.start, ph.cpu0
	for i := 0; i < k; i++ {
		part := done[i*len(done)/k : (i+1)*len(done)/k]
		var boards, events int
		for _, r := range part {
			boards += r.boards
			events += r.events
		}
		last := part[len(part)-1]
		wall, cpu := last.end.Sub(from).Seconds(), (last.cpuEnd - cpuFrom).Seconds()
		out = append(out, slice{
			boardsPerS: float64(boards) / wall, eventsPerS: float64(events) / wall,
			cpuMsPerBoard: cpu * 1e3 / float64(boards), cpuUsPerEvent: cpu * 1e6 / float64(events),
		})
		from, cpuFrom = last.end, last.cpuEnd
	}
	return out
}

// medianOf returns the median of one field over slices.
func medianOf(sl []slice, field func(slice) float64) float64 {
	xs := make([]float64, len(sl))
	for i, s := range sl {
		xs[i] = field(s)
	}
	return median(xs)
}

// gseqError checks that the union of the global sequences every job stream
// carried is contiguous and duplicate-free.
func gseqError(phases ...*phase) error {
	var all []int64
	for _, ph := range phases {
		for _, r := range ph.runs {
			all = append(all, r.gseqs...)
		}
	}
	if len(all) == 0 {
		return fmt.Errorf("no events delivered")
	}
	lo := all[0]
	for _, g := range all {
		lo = min(lo, g)
	}
	return densityError(all, lo)
}

// runsOf concatenates the phases' jobs in index order.
func runsOf(phases ...*phase) []*jobRun {
	var out []*jobRun
	for _, ph := range phases {
		out = append(out, ph.runs...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].idx < out[j].idx })
	return out
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (ru_maxrss) in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }
