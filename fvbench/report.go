package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"time"

	"repro/fpgavolt"
	"repro/internal/board"
	"repro/internal/characterize"
	"repro/internal/fvm"
	"repro/internal/silicon"
)

// e2eMetrics are the end-to-end metrics every untraced run prints, with
// their units; BENCHMARK.json lists the same names.
var e2eMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"job_p50_ms", "ms"},
	{"job_tail_ms", "ms"},
	{"boards_per_s", "1/s"},
	{"events_per_s", "1/s"},
	{"cpu_ms_per_board", "ms"},
	{"cpu_us_per_event", "us"},
	{"peak_rss_mb", "MB"},
	{"journal_bytes_per_event", "B"},
	{"recovery_ms", "ms"},
	{"ops_ok_frac", "1"},
}

// layerMetrics are the per-layer metrics every traced run prints. A layer a
// workload does not load reports 0.
var layerMetrics = []struct{ name, unit string }{
	{"silicon.new_die_ms", "ms"},
	{"board.new_ms", "ms"},
	{"characterize.run_ms", "ms"},
	{"board.read_pass_us", "us"},
	{"fvm.from_sweep_ms", "ms"},
	{"engine.board_ms", "ms"},
	{"engine.cache_hit_ratio", "1"},
	{"server.submit_ms", "ms"},
	{"server.queue_wait_ms", "ms"},
	{"server.run_ms", "ms"},
	{"server.delivery_ms", "ms"},
	{"store.append_us", "us"},
	{"store.append_calls_per_job", "count"},
	{"store.put_job_us", "us"},
	{"store.put_ms", "ms"},
	{"store.get_calls_per_board", "count"},
	{"store.read_firehose_us_per_event", "us"},
	{"store.read_job_events_us_per_event", "us"},
	{"store.open_ms", "ms"},
	{"server.replay_ms", "ms"},
	{"fed.downstream_submit_ms", "ms"},
	{"fed.downstream_stream_ms", "ms"},
	{"fed.downstream_calls_per_job", "count"},
	{"fed.downstream_failures", "count"},
	{"fed.chunks_per_job", "count"},
	{"fed.stolen_per_job", "count"},
	{"fed.fanin_ms", "ms"},
	{"runtime.gc_cpu_share", "1"},
	{"runtime.alloc_mb_per_job", "MB"},
	{"cpu_share.silicon", "1"},
	{"cpu_share.board", "1"},
	{"cpu_share.characterize", "1"},
	{"cpu_share.engine", "1"},
	{"cpu_share.store", "1"},
	{"cpu_share.server", "1"},
	{"cpu_share.fed", "1"},
	{"cpu_share.gc", "1"},
	{"cpu_share.other", "1"},
	{"trace.overhead_pct", "%"},
}

// reportLayers reports the per-layer metrics of a traced job phase.
// plainRate is the untraced segments' boards per second, which the tracing
// overhead is measured against; front is the span layer of the node the
// clients talk to.
func (b *bench) reportLayers(ph *phase, plainRate float64, prof []byte, rec *fedRecorder, front string) error {
	spans := b.tr.snapshot()
	jobs := float64(len(ph.runs))
	boards, _ := ph.totals()
	streams := make(map[string]float64) // daemon host/job id → stream ms
	for _, s := range spans {
		if s.Name == "fed.downstream_stream" {
			streams[s.Job] = ms(s.dur())
		}
	}
	var boardMs, queue, run, delivery, fanin []float64
	var hits, chunks, stolen int
	for _, r := range ph.runs {
		boardMs = append(boardMs, r.boardMs...)
		hits += r.hits
		st := r.status
		if st == nil || st.Started == nil || st.Finished == nil {
			continue
		}
		runDur := st.Finished.Sub(*st.Started)
		queue = append(queue, ms(st.Started.Sub(st.Created)))
		run = append(run, ms(runDur))
		delivery = append(delivery, ms(r.latency()-st.Finished.Sub(st.Created)))
		if len(st.Shards) == 0 {
			continue
		}
		longest := 0.0
		for _, sh := range st.Shards {
			chunks += len(sh.Jobs)
			stolen += sh.Stolen
			host := strings.TrimPrefix(sh.Daemon, "http://")
			for _, j := range sh.Jobs {
				longest = max(longest, streams[host+"/"+j])
			}
		}
		fanin = append(fanin, ms(runDur)-longest)
	}
	b.reportLayer("engine.board_ms", "ms", median(boardMs))
	b.reportLayer("engine.cache_hit_ratio", "1", float64(hits)/float64(boards))
	b.reportLayer("server.submit_ms", "ms", median(durations(spans, front+".submit", time.Millisecond)))
	b.reportLayer("server.queue_wait_ms", "ms", median(queue))
	b.reportLayer("server.run_ms", "ms", median(run))
	b.reportLayer("server.delivery_ms", "ms", median(delivery))
	b.reportLayer("store.append_us", "us", median(durations(spans, "store.append", time.Microsecond)))
	b.reportLayer("store.append_calls_per_job", "count", float64(b.ops[opAppend].calls.Load())/jobs)
	b.reportLayer("store.put_job_us", "us", median(durations(spans, "store.put_job", time.Microsecond)))
	b.reportLayer("store.put_ms", "ms", median(durations(spans, "store.put", time.Millisecond)))
	b.reportLayer("store.get_calls_per_board", "count", float64(b.ops[opGet].calls.Load())/float64(boards))
	if rec != nil {
		b.reportLayer("fed.downstream_submit_ms", "ms", median(durations(spans, "fed.downstream_submit", time.Millisecond)))
		b.reportLayer("fed.downstream_stream_ms", "ms", median(durations(spans, "fed.downstream_stream", time.Millisecond)))
		b.reportLayer("fed.downstream_calls_per_job", "count", float64(rec.calls.Load())/jobs)
		b.reportLayer("fed.downstream_failures", "count", float64(rec.tracedFailures.Load()))
		b.reportLayer("fed.chunks_per_job", "count", float64(chunks)/jobs)
		b.reportLayer("fed.stolen_per_job", "count", float64(stolen)/jobs)
		b.reportLayer("fed.fanin_ms", "ms", median(fanin))
	}
	return b.reportCommon(spans, prof, ph.rt0, ph.rt1, len(ph.runs), plainRate, boardRate([]*phase{ph}))
}

// reportCommon reports the per-layer metrics every workload shares — the
// Go runtime's GC share and allocation per job, the CPU profile's shares
// per layer and the tracing overhead — and writes the trace artifacts.
func (b *bench) reportCommon(spans []span, prof []byte, rt0, rt1 runtimeSample, jobs int, plainRate, tracedRate float64) error {
	used := (rt1.totalCPU - rt1.idleCPU) - (rt0.totalCPU - rt0.idleCPU)
	b.reportLayer("runtime.gc_cpu_share", "1", (rt1.gcCPU-rt0.gcCPU)/used)
	b.reportLayer("runtime.alloc_mb_per_job", "MB", (rt1.allocBytes-rt0.allocBytes)/(1<<20)/float64(jobs))
	shares, samples, err := cpuShares(prof)
	if err != nil {
		return err
	}
	for _, l := range profileLayers {
		b.reportLayer("cpu_share."+l, "1", shares[l])
	}
	b.reportLayer("trace.overhead_pct", "%", 100*(plainRate/tracedRate-1))
	fmt.Fprintf(b.out, "traced: %d spans, %d profile samples; throughput untraced %.2f/s, traced %.2f/s\n",
		len(spans), samples, plainRate, tracedRate)
	path, err := b.traceFile(".json")
	if err == nil {
		err = writeTrace(path, spans, b.layer)
	}
	if err == nil {
		err = os.WriteFile(strings.TrimSuffix(path, ".json")+".pprof", prof, 0o644)
	}
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	fmt.Fprintf(b.out, "trace: %s\n", path)
	return nil
}

// reportResumeLayers reports restart-resume's per-layer metrics from its
// traced cycles.
func (b *bench) reportResumeLayers(plain, traced *cycles, prof []byte) error {
	spans := b.tr.snapshot()
	perEvent := func(op int) float64 {
		items := b.ops[op].items.Load()
		if items == 0 {
			return 0
		}
		var total time.Duration
		for _, s := range spans {
			if s.Name == opNames[op] {
				total += s.dur()
			}
		}
		return total.Seconds() * 1e6 / float64(items)
	}
	b.reportLayer("store.read_firehose_us_per_event", "us", perEvent(opReadFirehose))
	b.reportLayer("store.read_job_events_us_per_event", "us", perEvent(opReadJobEvents))
	b.reportLayer("store.open_ms", "ms", median(traced.open))
	b.reportLayer("server.replay_ms", "ms", median(traced.replay))
	rate := func(cy *cycles) float64 {
		events, _, wall := cy.totals()
		return float64(events) / wall.Seconds()
	}
	ops := len(traced.wall) * (resumeSetSize + 1)
	return b.reportCommon(spans, prof, traced.rt0, traced.rt1, ops, rate(plain), rate(traced))
}

// sink keeps the replay's die alive so its construction cannot be elided.
var sink any

// replayDies times, for each die of req, the public calls the engine makes
// for a cold characterization board — silicon.NewDie, board.New,
// characterize.Run, fvm.FromSweep — one reader at a time, as spans under
// one replay span per die.
func (b *bench) replayDies(ctx context.Context, req fpgavolt.CampaignRequest) error {
	var die, newB, run, from, pass []float64
	for _, spec := range req.Boards {
		p, err := platformOf(spec)
		if err != nil {
			return err
		}
		root := b.tr.newID()
		t0 := time.Now()
		sink = silicon.NewDie(p.Cal, p.Serial, p.Sites())
		t1 := time.Now()
		bd := board.New(p)
		t2 := time.Now()
		s, err := characterize.Run(ctx, bd, characterize.Options{Runs: sweepRuns, Workers: 1})
		if err != nil {
			return fmt.Errorf("replay %s: %w", p.Serial, err)
		}
		t3 := time.Now()
		m, err := fvm.FromSweep(bd.Platform, s)
		if err != nil {
			return fmt.Errorf("replay %s: %w", p.Serial, err)
		}
		t4 := time.Now()
		sink = m
		b.tr.add("silicon.new_die", 0, root, p.Serial, t0, t1)
		b.tr.add("board.new", 0, root, p.Serial, t1, t2)
		b.tr.add("characterize.run", 0, root, p.Serial, t2, t3)
		b.tr.add("fvm.from_sweep", 0, root, p.Serial, t3, t4)
		b.tr.add("replay.board", root, 0, p.Serial, t0, t4)
		die = append(die, ms(t1.Sub(t0)))
		newB = append(newB, ms(t2.Sub(t1)))
		run = append(run, ms(t3.Sub(t2)))
		from = append(from, ms(t4.Sub(t3)))
		pass = append(pass, t3.Sub(t2).Seconds()*1e6/float64(len(s.Levels)*sweepRuns))
	}
	b.reportLayer("silicon.new_die_ms", "ms", mean(die))
	b.reportLayer("board.new_ms", "ms", mean(newB))
	b.reportLayer("characterize.run_ms", "ms", mean(run))
	b.reportLayer("board.read_pass_us", "us", mean(pass))
	b.reportLayer("fvm.from_sweep_ms", "ms", mean(from))
	return nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// platformOf resolves one board spec to the platform the daemon enrolls.
func platformOf(spec fpgavolt.BoardSpec) (fpgavolt.Platform, error) {
	p, err := fpgavolt.PlatformByName(spec.Platform)
	if err != nil {
		return p, err
	}
	if spec.BRAMs > 0 {
		p = p.Scaled(spec.BRAMs)
	}
	return p.WithSerial(spec.Serial), nil
}

// checkReference compares the aggregate and board rows of every sampled
// job with an in-process engine campaign over the same inventory. With
// warm, the reference campaign runs twice and the second, all-cache-hit
// result is compared, as the service's are.
func (b *bench) checkReference(ctx context.Context, runs []*jobRun, samples map[int]bool, req func(int) fpgavolt.CampaignRequest, warm bool) error {
	cache := fpgavolt.NewFleetCache(64, nil)
	for _, r := range runs {
		if !samples[r.idx] || !r.ok() {
			continue
		}
		if r.status == nil {
			b.problem("sampled job %d: no status", r.idx)
			continue
		}
		q := req(r.idx)
		inv := make([]fpgavolt.Platform, len(q.Boards))
		for i, spec := range q.Boards {
			p, err := platformOf(spec)
			if err != nil {
				return err
			}
			inv[i] = p
		}
		fleet := fpgavolt.NewFleet(inv, fpgavolt.FleetOptions{Cache: cache})
		c := fpgavolt.Campaign{Kind: fpgavolt.CampaignCharacterization, Sweep: fpgavolt.SweepOptions{Runs: q.Runs}}
		res, err := fpgavolt.RunCampaign(ctx, fleet, c)
		if err == nil && warm {
			res, err = fpgavolt.RunCampaign(ctx, fleet, c)
		}
		if err != nil {
			return fmt.Errorf("reference campaign: %w", err)
		}
		b.check(fmt.Sprintf("job %s against the in-process engine", r.id), sameResult(r.status, res))
	}
	return nil
}

// row is the part of a board's result both sides report.
type row struct {
	Board                                    int
	Platform, Serial, Error                  string
	FaultsPerMbit, VminV, VcrashV, ZeroShare float64
}

// sameResult reports how st's aggregate and board rows differ from res.
func sameResult(st *fpgavolt.JobStatus, res *fpgavolt.CampaignResult) error {
	raw, err := json.Marshal(res.Agg)
	if err != nil {
		return err
	}
	var want fpgavolt.FleetAggregate
	if err := json.Unmarshal(raw, &want); err != nil {
		return err
	}
	if st.Aggregate == nil || !reflect.DeepEqual(*st.Aggregate, want) {
		return fmt.Errorf("aggregate differs: got %+v, want %+v", st.Aggregate, want)
	}
	if len(st.BoardResults) != len(res.Boards) {
		return fmt.Errorf("%d board rows, want %d", len(st.BoardResults), len(res.Boards))
	}
	for i, bs := range st.BoardResults {
		got := row{bs.Board, bs.Platform, bs.Serial, bs.Error, bs.FaultsPerMbit, bs.VminV, bs.VcrashV, bs.ZeroShare}
		r := res.Boards[i]
		want := row{Board: r.Board, Platform: r.Platform, Serial: r.Serial}
		if r.Err != nil {
			want.Error = r.Err.Error()
		}
		if s := r.Sweep; s != nil && len(s.Levels) > 0 {
			want.FaultsPerMbit, want.VminV, want.VcrashV = s.Final().FaultsPerMbit, fpgavolt.ObservedVmin(s), s.Final().V
		}
		if r.FVM != nil {
			want.ZeroShare = r.FVM.ZeroShare()
		}
		if got != want {
			return fmt.Errorf("board row %d: got %+v, want %+v", i, got, want)
		}
	}
	return nil
}
