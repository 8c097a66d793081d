package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/characterize"
	"repro/internal/fvm"
	"repro/internal/silicon"
)

// testRecord fabricates a small but structurally complete record: a
// two-level sweep plus an FVM over four sites. The run index varies the
// payload so overwrites are observable.
func testRecord(t *testing.T, platformName, serial string, runs int) *Record {
	t.Helper()
	sweep := &characterize.Sweep{
		Platform: platformName, Serial: serial, PatternName: "16'hFFFF", OnBoardC: 50,
		Levels: []characterize.Level{
			{V: 0.61, MedianFaults: 0, PerBRAM: []float64{0, 0, 0, 0}},
			{V: 0.54, MedianFaults: float64(runs), FaultsPerMbit: float64(runs) * 2,
				PerBRAM: []float64{0, 1, 2, float64(runs)}},
		},
	}
	sites := []silicon.Site{{X: 0, Y: 0}, {X: 0, Y: 1}, {X: 1, Y: 0}, {X: 1, Y: 1}}
	m, err := fvm.New(platformName, serial, 2, 2, 0.61, 0.54, 50, sites, sweep.PerBRAMMedian())
	if err != nil {
		t.Fatal(err)
	}
	return &Record{
		Key: Key{
			Platform: platformName, Serial: serial, TempC: 50, Runs: runs,
			Options: "fill=FFFF|win=0.610..0.540|step=0.010",
		},
		Sweep: sweep, FVM: m,
	}
}

// conformance exercises the record half of the Store contract.
func conformance(t *testing.T, s Store) {
	t.Helper()
	rec := testRecord(t, "VC707", "1308-6520", 20)
	if _, ok, err := s.Get(rec.Key); err != nil || ok {
		t.Fatalf("empty store Get = (ok=%v, err=%v), want miss", ok, err)
	}
	if err := s.Put(rec); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get(rec.Key)
	if err != nil || !ok {
		t.Fatalf("Get after Put = (ok=%v, err=%v)", ok, err)
	}
	if got.Sweep.Final().MedianFaults != 20 || got.FVM.Serial != "1308-6520" {
		t.Fatalf("round-trip mangled the record: %+v", got)
	}
	if got.Sweep == rec.Sweep {
		t.Fatal("Get aliases the stored sweep; records must round-trip, not alias")
	}

	// Same key, new payload: last write wins.
	rec2 := testRecord(t, "VC707", "1308-6520", 20)
	rec2.Sweep.Levels[1].MedianFaults = 99
	if err := s.Put(rec2); err != nil {
		t.Fatal(err)
	}
	got, _, err = s.Get(rec.Key)
	if err != nil || got.Sweep.Final().MedianFaults != 99 {
		t.Fatalf("overwrite not visible: faults=%v err=%v", got.Sweep.Final().MedianFaults, err)
	}

	// A second, distinct key coexists and lists in stable order.
	other := testRecord(t, "KC705-A", "604018691749-76023", 10)
	if err := s.Put(other); err != nil {
		t.Fatal(err)
	}
	metas, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) != 2 {
		t.Fatalf("List returned %d entries, want 2", len(metas))
	}
	if metas[0].Key.Platform != "KC705-A" || metas[1].Key.Platform != "VC707" {
		t.Fatalf("List order not stable: %+v", metas)
	}
	byID, ok, err := s.GetID(metas[1].ID)
	if err != nil || !ok || byID.Key.Platform != "VC707" {
		t.Fatalf("GetID = (%+v, %v, %v)", byID, ok, err)
	}

	// Incomplete records are rejected before they can poison the store.
	if err := s.Put(&Record{Key: Key{Platform: "VC707", Serial: "x"}}); err == nil {
		t.Fatal("sweep-less record was accepted")
	}
}

func TestDiskConformance(t *testing.T) {
	s, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	conformance(t, s)
}

func TestDiskGetIDRejectsNonAddresses(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	// A decodable file outside objects/ must be unreachable by id.
	rec := testRecord(t, "VC707", "1308-6520", 7)
	raw, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "secret.json"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{
		"aa/../../secret",
		"aa/../../secret.json",
		"..",
		"",
		"zz" + strings.Repeat("0", 62), // non-hex, right length
		strings.ToUpper(rec.Key.ID()),  // case matters: addresses are lowercase
		rec.Key.ID() + "0",             // wrong length
	} {
		if _, ok, err := s.GetID(id); ok || err == nil {
			t.Fatalf("id %q was accepted (ok=%v err=%v)", id, ok, err)
		}
	}
}

func TestKeyID(t *testing.T) {
	a := Key{Platform: "VC707", Serial: "a", TempC: 50, Runs: 100, Options: "o"}
	if a.ID() != a.ID() {
		t.Fatal("ID is not deterministic")
	}
	variants := []Key{
		{Platform: "VC707", Serial: "b", TempC: 50, Runs: 100, Options: "o"},
		{Platform: "VC707", Serial: "a", TempC: 60, Runs: 100, Options: "o"},
		{Platform: "VC707", Serial: "a", TempC: 50, Runs: 10, Options: "o"},
		{Platform: "VC707", Serial: "a", TempC: 50, Runs: 100, Options: "p"},
		{Platform: "ZC702", Serial: "a", TempC: 50, Runs: 100, Options: "o"},
	}
	for _, v := range variants {
		if v.ID() == a.ID() {
			t.Fatalf("distinct keys share an id: %+v vs %+v", a, v)
		}
	}
}

func TestDiskRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s1, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := testRecord(t, "ZC702", "630851561533-44019", 12)
	if err := s1.Put(rec); err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh process over the same root sees the record.
	s2, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok, err := s2.Get(rec.Key)
	if err != nil || !ok {
		t.Fatalf("restarted store lost the record: ok=%v err=%v", ok, err)
	}
	if got.Sweep.Final().FaultsPerMbit != rec.Sweep.Final().FaultsPerMbit {
		t.Fatal("restarted store returned a different sweep")
	}
	metas, err := s2.List()
	if err != nil || len(metas) != 1 {
		t.Fatalf("restarted List = (%d entries, %v), want 1", len(metas), err)
	}
}

func TestDiskHealsUnflushedIndex(t *testing.T) {
	// A process that Puts and then dies without Close leaves the on-disk
	// index behind the object tree; the next open must reconcile.
	dir := t.TempDir()
	s1, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := []*Record{
		testRecord(t, "VC707", "1308-6520", 20),
		testRecord(t, "ZC702", "630851561533-44019", 20),
	}
	for _, r := range recs {
		if err := s1.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	// No Close: simulate the crash.

	s2, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	metas, err := s2.List()
	if err != nil || len(metas) != 2 {
		t.Fatalf("healed index has %d entries (%v), want 2", len(metas), err)
	}
	for _, r := range recs {
		if _, ok, err := s2.Get(r.Key); err != nil || !ok {
			t.Fatalf("record %s lost across crash: ok=%v err=%v", r.Key.Platform, ok, err)
		}
	}
	// The heal re-persisted the index: a third open loads it clean.
	s3, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if metas, err := s3.List(); err != nil || len(metas) != 2 {
		t.Fatalf("post-heal index has %d entries (%v)", len(metas), err)
	}
}

func TestDiskCorruptIndexRecovery(t *testing.T) {
	dir := t.TempDir()
	s1, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := []*Record{
		testRecord(t, "VC707", "1308-6520", 20),
		testRecord(t, "KC705-B", "604016111717-65664", 20),
	}
	for _, r := range recs {
		if err := s1.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "index.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenDisk(dir)
	if err != nil {
		t.Fatalf("corrupt index prevented open: %v", err)
	}
	metas, err := s2.List()
	if err != nil || len(metas) != 2 {
		t.Fatalf("rebuilt index has %d entries (%v), want 2", len(metas), err)
	}
	for _, r := range recs {
		if _, ok, err := s2.Get(r.Key); err != nil || !ok {
			t.Fatalf("record %s/%s lost in recovery: ok=%v err=%v", r.Key.Platform, r.Key.Serial, ok, err)
		}
	}
	// The rebuilt index was re-persisted: a third open loads it cleanly.
	s3, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if metas, err := s3.List(); err != nil || len(metas) != 2 {
		t.Fatalf("re-persisted index has %d entries (%v), want 2", len(metas), err)
	}
}

func TestDiskCorruptBlobSkippedOnReindex(t *testing.T) {
	dir := t.TempDir()
	s1, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	good := testRecord(t, "VC707", "1308-6520", 20)
	if err := s1.Put(good); err != nil {
		t.Fatal(err)
	}
	bad := testRecord(t, "ZC702", "630851561533-44019", 20)
	if err := s1.Put(bad); err != nil {
		t.Fatal(err)
	}
	// Tear the second blob and destroy the index: recovery must keep the
	// good record and drop the torn one.
	badPath := filepath.Join(dir, "objects", bad.Key.ID()[:2], bad.Key.ID()+".json")
	if err := os.WriteFile(badPath, []byte(`{"platform":"ZC702","ser`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "index.json")); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	metas, err := s2.List()
	if err != nil || len(metas) != 1 {
		t.Fatalf("reindex kept %d entries (%v), want 1", len(metas), err)
	}
	if metas[0].Key.Platform != "VC707" {
		t.Fatalf("reindex kept the wrong record: %+v", metas[0])
	}
	if _, _, err := s2.Get(bad.Key); err == nil {
		t.Fatal("reading the torn blob did not surface an error")
	}
}

func TestDiskConcurrentWritersOneKey(t *testing.T) {
	s, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const writers = 16
	const readers = 8
	base := testRecord(t, "VC707", "1308-6520", 1)
	if err := s.Put(base); err != nil {
		t.Fatal(err)
	}
	key := base.Key

	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rec := testRecord(t, "VC707", "1308-6520", 1)
			rec.Sweep.Levels[1].MedianFaults = float64(w)
			// All writers share one key; Runs stays 1 so the key is stable.
			if err := s.Put(rec); err != nil {
				errs <- fmt.Errorf("writer %d: %w", w, err)
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				rec, ok, err := s.Get(key)
				if err != nil {
					errs <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
				if ok && len(rec.Sweep.Levels) != 2 {
					errs <- fmt.Errorf("reader %d observed a torn record: %d levels", r, len(rec.Sweep.Levels))
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Exactly one version survives, and it is one of the written ones.
	rec, ok, err := s.Get(key)
	if err != nil || !ok {
		t.Fatalf("final Get = (ok=%v, err=%v)", ok, err)
	}
	if f := rec.Sweep.Levels[1].MedianFaults; f < 0 || f >= writers {
		t.Fatalf("final record has faults=%v, not one of the racing writes", f)
	}
	if metas, _ := s.List(); len(metas) != 1 {
		t.Fatalf("racing writers on one key left %d index entries", len(metas))
	}
	// No temp files were left behind by the racing renames.
	err = filepath.WalkDir(dir(s), func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && filepath.Ext(path) != ".json" {
			t.Errorf("leftover temp file: %s", path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func dir(s *Disk) string { return s.Root() }

func TestDiskConcurrentDistinctKeys(t *testing.T) {
	s, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const n = 24
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := testRecord(t, "KC705-A", fmt.Sprintf("serial-%02d", i), 5)
			if err := s.Put(rec); err != nil {
				errs <- err
				return
			}
			if _, ok, err := s.Get(rec.Key); err != nil || !ok {
				errs <- fmt.Errorf("key %d: get ok=%v err=%v", i, ok, err)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	metas, err := s.List()
	if err != nil || len(metas) != n {
		t.Fatalf("List = (%d, %v), want %d", len(metas), err, n)
	}
}
