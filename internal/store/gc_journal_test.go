package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// onDisk runs fn as the "disk" subtest over a fresh Disk store.
func onDisk(t *testing.T, fn func(t *testing.T, s Store)) {
	t.Helper()
	t.Run("disk", func(t *testing.T) {
		d, err := OpenDisk(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		fn(t, d)
	})
}

func TestListCarriesSummaries(t *testing.T) {
	onDisk(t, func(t *testing.T, s Store) {
		rec := testRecord(t, "VC707", "1308-6520", 20)
		if err := s.Put(rec); err != nil {
			t.Fatal(err)
		}
		metas, err := s.List()
		if err != nil || len(metas) != 1 {
			t.Fatalf("List = %d metas, %v", len(metas), err)
		}
		sum := metas[0].Summary
		if sum == nil {
			t.Fatal("index entry has no cached summary")
		}
		if !sum.HasFVM || sum.Sites != 4 || sum.Levels != 2 {
			t.Fatalf("summary shape %+v", sum)
		}
		if sum.VminV != 0.61 || sum.VcrashV != 0.54 || sum.FaultsPerMbit != 40 {
			t.Fatalf("summary window %+v", sum)
		}
		if metas[0].StoredAt.IsZero() {
			t.Fatalf("index entry has no stored-at time")
		}
	})
}

func TestSummariesSurviveReopenAndReindex(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put(testRecord(t, "VC707", "1308-6520", 20)); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// A clean reopen serves summaries straight from the index file.
	d2, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	metas, err := d2.List()
	if err != nil || len(metas) != 1 || metas[0].Summary == nil || metas[0].Summary.Sites != 4 {
		t.Fatalf("reopened List = %+v, %v", metas, err)
	}
	d2.Close()

	// A destroyed index rebuilds with summaries recomputed from the blobs.
	if err := os.WriteFile(filepath.Join(dir, "index.json"), []byte("{corrupt"), 0o644); err != nil {
		t.Fatal(err)
	}
	d3, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d3.Close()
	metas, err = d3.List()
	if err != nil || len(metas) != 1 || metas[0].Summary == nil || metas[0].Summary.Sites != 4 {
		t.Fatalf("reindexed List = %+v, %v", metas, err)
	}

	// A version-1 index (pre-summary schema) is treated as stale and
	// rebuilt rather than half-loaded.
	old, _ := json.Marshal(map[string]any{"version": 1, "entries": map[string]any{}})
	if err := os.WriteFile(filepath.Join(dir, "index.json"), old, 0o644); err != nil {
		t.Fatal(err)
	}
	d4, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d4.Close()
	metas, err = d4.List()
	if err != nil || len(metas) != 1 || metas[0].Summary == nil {
		t.Fatalf("v1-upgrade List = %+v, %v", metas, err)
	}
}

func TestDeleteRecord(t *testing.T) {
	onDisk(t, func(t *testing.T, s Store) {
		a := testRecord(t, "VC707", "1308-6520", 20)
		b := testRecord(t, "KC705-A", "604018691749-76023", 10)
		for _, r := range []*Record{a, b} {
			if err := s.Put(r); err != nil {
				t.Fatal(err)
			}
		}
		m, ok, err := s.Delete(a.Key.ID())
		if err != nil || !ok || m.Key.Platform != "VC707" {
			t.Fatalf("Delete = (%+v, %v, %v)", m, ok, err)
		}
		if _, ok, _ := s.GetID(a.Key.ID()); ok {
			t.Fatal("deleted record still readable")
		}
		metas, err := s.List()
		if err != nil || len(metas) != 1 || metas[0].Key.Platform != "KC705-A" {
			t.Fatalf("List after delete = %+v, %v", metas, err)
		}
		// Deleting again (or an unknown id) reports absence, not an error.
		if _, ok, err := s.Delete(a.Key.ID()); err != nil || ok {
			t.Fatalf("double delete = (ok=%v, err=%v)", ok, err)
		}
	})
}

func TestDiskDeleteSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := testRecord(t, "VC707", "1308-6520", 20)
	if err := d.Put(rec); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := d.Delete(rec.Key.ID()); err != nil || !ok {
		t.Fatalf("Delete = (ok=%v, err=%v)", ok, err)
	}
	d.Close()
	d2, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if metas, err := d2.List(); err != nil || len(metas) != 0 {
		t.Fatalf("deleted record resurrected after reopen: %+v, %v", metas, err)
	}
}

func TestGCKeepsNewestPerBoard(t *testing.T) {
	onDisk(t, func(t *testing.T, s Store) {
		// Four records of one die (distinct temperatures), plus one record
		// of another die that must not be touched.
		var ids []string
		for i, temp := range []float64{40, 50, 60, 70} {
			rec := testRecord(t, "VC707", "1308-6520", 20+i)
			rec.Key.TempC = temp
			rec.Sweep.OnBoardC = temp
			if err := s.Put(rec); err != nil {
				t.Fatal(err)
			}
			ids = append(ids, rec.Key.ID())
		}
		other := testRecord(t, "ZC702", "84011-98-73", 10)
		if err := s.Put(other); err != nil {
			t.Fatal(err)
		}

		removed, err := s.GC(2)
		if err != nil {
			t.Fatal(err)
		}
		if len(removed) != 2 {
			t.Fatalf("GC removed %d records, want 2: %+v", len(removed), removed)
		}
		// The oldest two writes (40 and 50 °C) go; the newest two stay.
		gone := map[string]bool{removed[0].ID: true, removed[1].ID: true}
		if !gone[ids[0]] || !gone[ids[1]] {
			t.Fatalf("GC removed %v, want the oldest %v", removed, ids[:2])
		}
		for _, id := range ids[2:] {
			if _, ok, err := s.GetID(id); err != nil || !ok {
				t.Fatalf("GC evicted a record it should have kept: %s (%v)", id, err)
			}
		}
		if _, ok, err := s.GetID(other.Key.ID()); err != nil || !ok {
			t.Fatalf("GC touched an under-quota board: %v", err)
		}
		// Idempotent once within bounds; keep<=0 is a no-op.
		if removed, err := s.GC(2); err != nil || len(removed) != 0 {
			t.Fatalf("second GC removed %+v (%v)", removed, err)
		}
		if removed, err := s.GC(0); err != nil || len(removed) != 0 {
			t.Fatalf("GC(0) removed %+v (%v)", removed, err)
		}
	})
}

func TestDiskGCOrderSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i, temp := range []float64{40, 50, 60} {
		rec := testRecord(t, "VC707", "1308-6520", 20+i)
		rec.Key.TempC = temp
		if err := d.Put(rec); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, rec.Key.ID())
	}
	d.Close()
	d2, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	removed, err := d2.GC(1)
	if err != nil || len(removed) != 2 {
		t.Fatalf("GC after reopen removed %d (%v), want 2", len(removed), err)
	}
	if _, ok, _ := d2.GetID(ids[2]); !ok {
		t.Fatal("GC after reopen evicted the newest record")
	}
}

func TestJobJournalRoundTrip(t *testing.T) {
	onDisk(t, func(t *testing.T, s Store) {
		if js, err := s.ListJobs(); err != nil || len(js) != 0 {
			t.Fatalf("empty journal lists %d jobs, %v", len(js), err)
		}
		// Out-of-order puts list back in submission order.
		for _, j := range []*JobRecord{
			{ID: "job-0002", Seq: 2, Payload: json.RawMessage(`{"n":2}`)},
			{ID: "job-0001", Seq: 1, Payload: json.RawMessage(`{"n":1}`)},
		} {
			if err := s.PutJob(j); err != nil {
				t.Fatal(err)
			}
		}
		js, err := s.ListJobs()
		if err != nil || len(js) != 2 {
			t.Fatalf("ListJobs = %d, %v", len(js), err)
		}
		if js[0].ID != "job-0001" || js[1].ID != "job-0002" {
			t.Fatalf("journal order %s, %s", js[0].ID, js[1].ID)
		}
		if string(js[0].Payload) != `{"n":1}` {
			t.Fatalf("payload mangled: %s", js[0].Payload)
		}
		// Re-journaling a job replaces it.
		if err := s.PutJob(&JobRecord{ID: "job-0001", Seq: 1, Payload: json.RawMessage(`{"n":9}`)}); err != nil {
			t.Fatal(err)
		}
		js, _ = s.ListJobs()
		if len(js) != 2 || string(js[0].Payload) != `{"n":9}` {
			t.Fatalf("journal overwrite not visible: %+v", js)
		}
		if err := s.DeleteJob("job-0001"); err != nil {
			t.Fatal(err)
		}
		if err := s.DeleteJob("job-0001"); err != nil {
			t.Fatalf("deleting an absent job: %v", err)
		}
		js, _ = s.ListJobs()
		if len(js) != 1 || js[0].ID != "job-0002" {
			t.Fatalf("journal after delete: %+v", js)
		}
		// Hostile ids never reach the filesystem.
		for _, bad := range []string{"", "../escape", "a/b", ".hidden", "job 1"} {
			if err := s.PutJob(&JobRecord{ID: bad}); err == nil {
				t.Fatalf("PutJob accepted id %q", bad)
			}
		}
	})
}

func TestDiskJournalSurvivesReopenAndSkipsCorrupt(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.PutJob(&JobRecord{ID: "job-0001", Seq: 1, Payload: json.RawMessage(`{}`)}); err != nil {
		t.Fatal(err)
	}
	d.Close()
	// A torn journal file and a misnamed one are skipped on replay.
	if err := os.WriteFile(filepath.Join(dir, "jobs", "job-0002.json"), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "jobs", "job-0003.json"),
		[]byte(`{"id":"job-9999","seq":3,"payload":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	js, err := d2.ListJobs()
	if err != nil || len(js) != 1 || js[0].ID != "job-0001" {
		t.Fatalf("journal replay = %+v, %v", js, err)
	}
}

func TestValidJobID(t *testing.T) {
	for id, want := range map[string]bool{
		"job-0001": true, "a.b_c-D9": true,
		"": false, ".dot": false, "a/b": false, "a\\b": false,
		"a b": false, "héllo": false,
	} {
		if got := ValidJobID(id); got != want {
			t.Errorf("ValidJobID(%q) = %v, want %v", id, got, want)
		}
	}
	if ValidJobID(string(make([]byte, 200))) {
		t.Error("ValidJobID accepted a 200-byte id")
	}
}
