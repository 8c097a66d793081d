package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"os"
	"reflect"
	"runtime/pprof"
	"slices"
	"testing"
	"time"

	"repro/fpgavolt"
	"repro/internal/store"
)

func TestTailKeepsTenBeyond(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	for n := 0; n <= 300; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		rnd.Shuffle(n, func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		v, pct, ok := tail(xs)
		if n <= tailKeep {
			if ok {
				t.Fatalf("n=%d: tail reported with too few samples", n)
			}
			continue
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if !ok || beyond < tailKeep {
			t.Fatalf("n=%d: p%d=%v has %d samples beyond it, want >= %d", n, pct, v, beyond, tailKeep)
		}
		// The next percentile up would leave fewer than tailKeep beyond.
		if rank := int(math.Ceil(float64(pct+1) * float64(n) / 100)); pct < 99 && n-rank >= tailKeep {
			t.Fatalf("n=%d: p%d is not the highest percentile with %d beyond", n, pct, tailKeep)
		}
	}
}

func TestDensityCatchesGapAndDuplicate(t *testing.T) {
	dense := []int64{5, 3, 4, 7, 6}
	if err := densityError(dense, 3); err != nil {
		t.Fatalf("dense sequence rejected: %v", err)
	}
	if err := densityError([]int64{3, 4, 6, 7}, 3); err == nil {
		t.Fatal("gap at 5 not caught")
	}
	if err := densityError([]int64{3, 4, 4, 5}, 3); err == nil {
		t.Fatal("duplicate 4 not caught")
	}
	if err := densityError([]int64{4, 5}, 3); err == nil {
		t.Fatal("missing first sequence not caught")
	}
	ph := &phase{runs: []*jobRun{{gseqs: []int64{10, 11, 13}}, {gseqs: []int64{12, 14}}}}
	if err := gseqError(ph); err != nil {
		t.Fatalf("interleaved dense union rejected: %v", err)
	}
	ph.runs[1].gseqs = []int64{12, 12, 14}
	if err := gseqError(ph); err == nil {
		t.Fatal("duplicate across job streams not caught")
	}
}

// fakeStore records which store.Store methods were called and fails each
// with errFake, so forwarding of both the call and its result shows.
type fakeStore struct{ calls map[string]int }

var errFake = errors.New("fake")

func (f *fakeStore) hit(name string) { f.calls[name]++ }

func (f *fakeStore) Put(*store.Record) error { f.hit("Put"); return errFake }
func (f *fakeStore) Get(store.Key) (*store.Record, bool, error) {
	f.hit("Get")
	return nil, false, errFake
}
func (f *fakeStore) GetID(string) (*store.Record, bool, error) {
	f.hit("GetID")
	return nil, false, errFake
}
func (f *fakeStore) List() ([]store.Meta, error) { f.hit("List"); return nil, errFake }
func (f *fakeStore) Delete(string) (store.Meta, bool, error) {
	f.hit("Delete")
	return store.Meta{}, false, errFake
}
func (f *fakeStore) GC(int) ([]store.Meta, error)          { f.hit("GC"); return nil, errFake }
func (f *fakeStore) PutJob(*store.JobRecord) error         { f.hit("PutJob"); return errFake }
func (f *fakeStore) ListJobs() ([]*store.JobRecord, error) { f.hit("ListJobs"); return nil, errFake }
func (f *fakeStore) DeleteJob(string) error                { f.hit("DeleteJob"); return errFake }
func (f *fakeStore) AppendJobEvents(string, []store.EventRecord) error {
	f.hit("AppendJobEvents")
	return errFake
}
func (f *fakeStore) ReadJobEvents(string, int, int) ([]store.EventRecord, error) {
	f.hit("ReadJobEvents")
	return nil, errFake
}
func (f *fakeStore) JobEventStats(string) (int, int64, error) {
	f.hit("JobEventStats")
	return 0, 0, errFake
}
func (f *fakeStore) ReadFirehose(int64, int) ([]store.EventRecord, error) {
	f.hit("ReadFirehose")
	return nil, errFake
}
func (f *fakeStore) TrimJobEvents(string, int) error { f.hit("TrimJobEvents"); return errFake }
func (f *fakeStore) LastGSeq() (int64, error)        { f.hit("LastGSeq"); return 0, errFake }
func (f *fakeStore) Close() error                    { f.hit("Close"); return errFake }

func TestRecStoreForwardsEveryMethod(t *testing.T) {
	fake := &fakeStore{calls: map[string]int{}}
	var ops [numOps]opCount
	tr := newTracer()
	rs := &recStore{inner: fake, tr: tr, ops: &ops}
	iface := reflect.TypeOf((*store.Store)(nil)).Elem()
	if iface.NumMethod() != numOps {
		t.Fatalf("store.Store has %d methods, the decorator times %d", iface.NumMethod(), numOps)
	}
	call := func() {
		for i := 0; i < iface.NumMethod(); i++ {
			m := iface.Method(i)
			fn := reflect.ValueOf(rs).MethodByName(m.Name)
			args := make([]reflect.Value, m.Type.NumIn())
			for j := range args {
				in := m.Type.In(j)
				if in.Kind() == reflect.Pointer {
					args[j] = reflect.New(in.Elem())
				} else {
					args[j] = reflect.Zero(in)
				}
			}
			out := fn.Call(args)
			if err, _ := out[len(out)-1].Interface().(error); !errors.Is(err, errFake) {
				t.Errorf("%s: result not forwarded: %v", m.Name, err)
			}
		}
	}
	call()
	tr.enabled.Store(true)
	call()
	for i := 0; i < iface.NumMethod(); i++ {
		if name := iface.Method(i).Name; fake.calls[name] != 2 {
			t.Errorf("%s forwarded %d times, want 2", name, fake.calls[name])
		}
	}
	spans := tr.snapshot()
	for op, name := range opNames {
		if n := len(durations(spans, name, 1)); ops[op].calls.Load() != 1 || n != 1 {
			t.Errorf("%s: %d traced calls and %d spans, want 1 each", name, ops[op].calls.Load(), n)
		}
	}
}

func TestGeneratorIsSeeded(t *testing.T) {
	gen := func(seed uint64) []fpgavolt.CampaignRequest {
		out := []fpgavolt.CampaignRequest{warmSet(seed), primeHits(seed, "d0", 48), primeLevels(seed, "f", 16)}
		for i := 0; i < 50; i++ {
			out = append(out, coldJob(seed, i), mitigationJob(seed, i))
		}
		return out
	}
	a, err := inputDigest(gen(7))
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := inputDigest(gen(7)); a != b {
		t.Fatalf("same seed, different bodies: %s vs %s", a, b)
	}
	if c, _ := inputDigest(gen(8)); a == c {
		t.Fatal("different seeds gave identical bodies")
	}
	seen := map[string]bool{}
	for _, q := range gen(7) {
		for _, bs := range q.Boards {
			if seen[bs.Serial] {
				t.Fatalf("serial %s minted twice", bs.Serial)
			}
			seen[bs.Serial] = true
		}
	}
	for _, q := range gen(7) {
		if err := q.Validate(256); err != nil {
			t.Fatalf("generated request rejected: %v", err)
		}
	}
}

func TestCoveredMergesOverlaps(t *testing.T) {
	p := span{Start: 0, End: 100}
	kids := []span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 90, End: 120}}
	if got := covered(p, kids); got != 40 {
		t.Fatalf("covered = %d, want 40", got)
	}
	self := selfTimes([]span{{Name: "client.job", ID: 1, Start: 0, End: 100},
		{Name: "server.submit", ID: 2, Parent: 1, Start: 10, End: 30}})
	if self["client"] != 80 || self["server"] != 20 {
		t.Fatalf("self times %v, want client 80 server 20", self)
	}
}

func TestLayerOfStack(t *testing.T) {
	cases := []struct {
		funcs []string
		want  string
	}{
		{[]string{"repro/internal/prng.Mix64", "repro/internal/silicon.(*Die).Eval", "repro/internal/board.New"}, "silicon"},
		{[]string{"runtime.memmove", "repro/internal/bram.(*Pool).Read", "repro/internal/characterize.Run"}, "board"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"encoding/json.Marshal", "repro/internal/server.(*Server).handleEvents"}, "server"},
		{[]string{"syscall.Syscall", "os.(*File).Sync", "repro/internal/store.(*Disk).AppendJobEvents"}, "store"},
		{[]string{"net/http.(*conn).serve"}, "other"},
	}
	for _, c := range cases {
		if got := layerOfStack(c.funcs); got != c.want {
			t.Errorf("%v charged to %s, want %s", c.funcs, got, c.want)
		}
	}
}

func TestCPUSharesParsesRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profile unavailable: %v", err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	x := 0
	for time.Now().Before(deadline) {
		x += len(serial(&rng{s: uint64(x)}, "t", x, 0))
	}
	pprof.StopCPUProfile()
	shares, samples, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if samples == 0 {
		t.Skip("no samples taken")
	}
	sum := 0.0
	for _, v := range shares {
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("shares sum to %v over %d samples", sum, samples)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric and workload
// lists identical to what the program prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for w := range workloads {
		want = append(want, w)
	}
	slices.Sort(names)
	slices.Sort(want)
	if !slices.Equal(names, want) {
		t.Errorf("workloads %v, program runs %v", names, want)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics listed, program reports %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: listed %s %s, program reports %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, e2eMetrics)
	check("per_layer", doc.PerLayer, layerMetrics)
}
