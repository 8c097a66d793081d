package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	// An interrupt cancels the run, which then stops its nodes and removes
	// its scratch directory before exiting.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one run: its options, its scratch directory, the tracer every
// layer hook reports to, and what the workload measured and checked.
type bench struct {
	workload string
	seed     uint64
	seconds  int
	traced   bool
	dir      string // this run's scratch root, removed at exit
	traceDir string

	tr  *tracer
	ops [numOps]opCount // traced store calls, summed over every store
	out io.Writer

	e2e       map[string]metric
	layer     map[string]metric
	attempted int
	failed    int
	problems  []string // correctness failures
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(context.Context, *bench) error{
	"sweep-cold":     sweepCold,
	"fed-warm":       fedWarm,
	"restart-resume": restartResume,
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fvbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: sweep-cold, fed-warm or restart-resume")
	seed := fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 20, "nominal length of the timed phase")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	dir := fs.String("dir", ".bench_build", "directory for stores and trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drv, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "fvbench: need -workload (sweep-cold|fed-warm|restart-resume), -seconds >= 1, -trace 0|1\n")
		return 2
	}
	root, err := filepath.Abs(*dir)
	if err == nil {
		err = os.MkdirAll(root, 0o755)
	}
	var runDir string
	if err == nil {
		runDir, err = os.MkdirTemp(root, "run-")
	}
	if err != nil {
		fmt.Fprintf(stderr, "fvbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(runDir)
	b := &bench{
		workload: *workload, seed: *seed, seconds: *seconds, traced: *trace == 1,
		dir: runDir, traceDir: filepath.Join(root, "traces"),
		tr: newTracer(), out: stdout,
		e2e: map[string]metric{}, layer: map[string]metric{},
	}
	b.printEnv()
	steal0 := readSteal()
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	defer cancel()
	if err := drv(ctx, b); err != nil {
		fmt.Fprintf(stderr, "fvbench: %s: %v\n", b.workload, err)
		return 1
	}
	if s := readSteal().share(steal0); s >= 0 {
		fmt.Fprintf(stdout, "env: cpu steal over the run %.1f%%\n", 100*s)
	}
	res := result{
		Correct:   len(b.problems) == 0 && b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   b.e2e,
	}
	if b.traced {
		res.Metrics = b.layer
	}
	for _, p := range b.problems {
		fmt.Fprintf(stdout, "CHECK FAILED: %s\n", p)
	}
	b.printMetrics(res.Metrics)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "fvbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct || res.Attempted == 0 {
		return 1
	}
	return 0
}

// runDeadline bounds a whole run: a hung stream or node fails the run well
// inside the three minutes a run may take, instead of hanging it.
const runDeadline = 150 * time.Second

// problem records a failed correctness check; the run then reports
// correct=false.
func (b *bench) problem(format string, args ...any) {
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

// check records err, if any, as a failed correctness check.
func (b *bench) check(what string, err error) {
	if err != nil {
		b.problem("%s: %v", what, err)
	}
}

func (b *bench) report(name, unit string, v float64) { b.e2e[name] = metric{v, unit} }
func (b *bench) reportLayer(name, unit string, v float64) {
	b.layer[name] = metric{v, unit}
}

// subdir returns a fresh store directory under the run's scratch root.
func (b *bench) subdir(parts ...string) string {
	return filepath.Join(append([]string{b.dir}, parts...)...)
}

// setupRepeats is how many times a run sets its workload up; setup_s is the
// median, so one slow boot or fsync stall cannot move it.
const setupRepeats = 3

// segments sets the workload up setupRepeats times. After each setup it
// runs measure(i), setup i's share of the timed work, on what that setup
// built, and then the setup's teardown. The runner's speed wanders over
// tens of seconds, so timed work spread over the whole run, between the
// setups, averages over more of that wander than one stretch at the end
// would. It reports setup_s, the median steal-free setup time. A setup
// returns its teardown.
func (b *bench) segments(setup func(i int) (func() error, error), measure func(i int) error) error {
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		steal0, t0 := readSteal(), time.Now()
		teardown, err := setup(i)
		if err != nil {
			return fmt.Errorf("setup %d: %w", i, err)
		}
		times = append(times, time.Since(t0).Seconds()*stealFree(steal0))
		err = measure(i)
		if terr := teardown(); terr != nil {
			err = errors.Join(err, fmt.Errorf("teardown of setup %d: %w", i, terr))
		}
		if err != nil {
			return err
		}
	}
	b.report("setup_s", "s", median(times))
	fmt.Fprintf(b.out, "setup: %.3f s median of %s, steal-free\n", median(times), fmtFloats(times, 3))
	return nil
}

// share is segment i's part [from, to) of n timed jobs or cycles.
func share(i, n int) (from, to int) {
	return i * n / setupRepeats, (i + 1) * n / setupRepeats
}

// tracedSegment reports whether segment i runs with spans and the CPU
// profile on: in a traced run the last one does, and the others are the
// untraced work the tracing overhead is measured against.
func (b *bench) tracedSegment(i int) bool { return b.traced && i == setupRepeats-1 }

// printEnv records the run environment next to its results.
func (b *bench) printEnv() {
	fmt.Fprintf(b.out, "fvbench workload=%s seed=%d seconds=%d trace=%v\n", b.workload, b.seed, b.seconds, b.traced)
	fmt.Fprintf(b.out, "env: nproc=%d GOMAXPROCS=%d go=%s cpu=%q scratch-fs=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), fsType(b.dir))
}

func (b *bench) printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(b.out, "  %-36s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// cpuModel reads the CPU model name from /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTicks is the machine-wide CPU time from /proc/stat: the share stolen
// by the hypervisor tells a noisy neighbour from a slow build.
type cpuTicks struct{ total, steal uint64 }

func readSteal() cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	var t cpuTicks
	for i, f := range strings.Fields(line)[1:] {
		n, _ := strconv.ParseUint(f, 10, 64)
		t.total += n
		if i == 7 {
			t.steal = n
		}
	}
	return t
}

// share returns the stolen share of CPU time since t0, or -1 if unknown.
func (t cpuTicks) share(t0 cpuTicks) float64 {
	if t.total <= t0.total {
		return -1
	}
	return float64(t.steal-t0.steal) / float64(t.total-t0.total)
}

// stealFree returns the factor that takes a wall-clock duration measured
// since t0 to the duration it would have had without hypervisor steal: on
// a busy VM every CPU lost the stolen share of its time, so the work ran
// that much slower. Durations are multiplied by it, rates divided. Process
// CPU time needs no such factor: the guest does not charge stolen time to
// the process.
func stealFree(t0 cpuTicks) float64 {
	s := readSteal().share(t0)
	if s < 0 {
		return 1
	}
	return 1 - min(s, 0.9)
}

// fsType names the filesystem holding dir, from its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xef53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x58465342: "xfs", 0x9123683e: "btrfs", 0x6969: "nfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

func fmtFloats(xs []float64, prec int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.*f", prec, x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// errAll joins the errors of failed jobs, at most a few of them.
func errAll(runs []*jobRun) error {
	var errs []error
	for _, r := range runs {
		if !r.ok() && len(errs) < 3 {
			if r.err != nil {
				errs = append(errs, r.err)
			} else {
				errs = append(errs, fmt.Errorf("job %s ended %q", r.id, r.state))
			}
		}
	}
	return errors.Join(errs...)
}
