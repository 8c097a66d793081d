package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"sync/atomic"
	"testing"

	"repro/internal/server"
	"repro/internal/store"
)

// doneFailStore wraps a Store and fails every event append that carries a
// board "done" event — a disk that starts erroring mid-campaign, while the
// earlier appends (and the final metadata write) still land. The failure is
// keyed on content, not timing, so the test is deterministic.
type doneFailStore struct {
	store.Store
	failed atomic.Int32
}

func (f *doneFailStore) AppendJobEvents(id string, evs []store.EventRecord) error {
	for _, rec := range evs {
		if bytes.Contains(rec.Payload, []byte(`"type":"done"`)) {
			f.failed.Add(1)
			return errDiskDied{}
		}
	}
	return f.Store.AppendJobEvents(id, evs)
}

type errDiskDied struct{}

func (errDiskDied) Error() string { return "injected: journal device failed" }

// TestJournalFailureDegradesNotFails is the daemon-side graceful-degradation
// gate: when journal writes start failing mid-campaign the job still runs to
// done, the live stream carries exactly one journal_degraded marker (drawing
// a real Seq, so the stream stays dense), and /healthz counts the errors.
func TestJournalFailureDegradesNotFails(t *testing.T) {
	ctx := context.Background()
	fs := &doneFailStore{Store: newStore(t)}
	_, client := newService(t, fs, server.Config{Workers: 1, FleetWorkers: 2})

	job, err := client.Submit(ctx, smallCampaign())
	if err != nil {
		t.Fatal(err)
	}
	var evs []server.JobEvent
	final, err := client.Wait(ctx, job.ID, func(ev server.JobEvent) error {
		evs = append(evs, ev)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if final.State != server.JobDone {
		t.Fatalf("campaign with a dying journal ended %q (%s), want done", final.State, final.Error)
	}
	if fs.failed.Load() == 0 {
		t.Fatal("fault hook never fired; the test exercised nothing")
	}

	degraded := 0
	for i, ev := range evs {
		if ev.Seq != i {
			t.Fatalf("live event %d has seq %d: the degraded marker broke stream density", i, ev.Seq)
		}
		if ev.Type == "journal_degraded" {
			degraded++
			if ev.Error == "" {
				t.Fatal("journal_degraded event carries no explanation")
			}
		}
	}
	if degraded != 1 {
		t.Fatalf("saw %d journal_degraded markers, want exactly 1", degraded)
	}
	if last := evs[len(evs)-1]; last.Type != "campaign" || last.State != server.JobDone {
		t.Fatalf("stream ends with %q/%q, want the terminal campaign event", last.Type, last.State)
	}

	// The degradation is on the operational record.
	resp, err := http.Get(client.BaseURL() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hz struct {
		JournalErrors uint64 `json:"journal_errors"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if hz.JournalErrors == 0 {
		t.Fatal("journal writes failed but /healthz journal_errors is 0")
	}
}
