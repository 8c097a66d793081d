package server_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"testing"
	"time"

	"repro/internal/server"
)

// wantStatus asserts err is an APIStatusError with the given code.
func wantStatus(t *testing.T, err error, code int) {
	t.Helper()
	var ae *server.APIStatusError
	if !errors.As(err, &ae) || ae.StatusCode != code {
		t.Fatalf("got %v, want HTTP %d", err, code)
	}
}

func TestAuthTokenGatesMutations(t *testing.T) {
	st := newStore(t)
	_, open := newService(t, st, server.Config{Workers: 1, FleetWorkers: 2, AuthToken: "s3cret", GCKeep: 4})
	ctx := context.Background()

	// Every mutating endpoint refuses an unauthenticated caller.
	if _, err := open.Submit(ctx, smallCampaign()); err == nil {
		t.Fatal("unauthenticated submit accepted")
	} else {
		wantStatus(t, err, http.StatusUnauthorized)
	}
	if _, err := open.Cancel(ctx, "job-0001"); err == nil {
		t.Fatal("unauthenticated cancel accepted")
	} else {
		wantStatus(t, err, http.StatusUnauthorized)
	}
	if err := open.DeleteFVM(ctx, "0000000000000000000000000000000000000000000000000000000000000000"); err == nil {
		t.Fatal("unauthenticated FVM delete accepted")
	} else {
		wantStatus(t, err, http.StatusUnauthorized)
	}
	if _, err := open.GC(ctx, 1); err == nil {
		t.Fatal("unauthenticated GC accepted")
	} else {
		wantStatus(t, err, http.StatusUnauthorized)
	}
	// A wrong token is as good as none.
	if _, err := open.SetToken("wrong").Submit(ctx, smallCampaign()); err == nil {
		t.Fatal("wrong token accepted")
	} else {
		wantStatus(t, err, http.StatusUnauthorized)
	}

	// Reads stay open: the dashboard needs no credential.
	if _, err := open.SetToken("").Jobs(ctx); err != nil {
		t.Fatalf("unauthenticated job listing: %v", err)
	}
	if _, err := open.FVMs(ctx, "", ""); err != nil {
		t.Fatalf("unauthenticated FVM listing: %v", err)
	}

	// The right token runs a campaign end to end, SSE included.
	auth := open.SetToken("s3cret")
	job, err := auth.Submit(ctx, smallCampaign())
	if err != nil {
		t.Fatal(err)
	}
	final, err := auth.Wait(ctx, job.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != server.JobDone {
		t.Fatalf("job finished %q (%s), want done", final.State, final.Error)
	}
}

func TestGCEndpointReboundsStore(t *testing.T) {
	st := newStore(t)
	_, client := newService(t, st, server.Config{Workers: 1, FleetWorkers: 2})
	ctx := context.Background()

	// Two characterizations of the same boards at different temperatures:
	// two records per (platform, serial).
	for _, temp := range []float64{50, 60} {
		req := smallCampaign()
		req.TempC = temp
		job, err := client.Submit(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if final, err := client.Wait(ctx, job.ID, nil); err != nil || final.State != server.JobDone {
			t.Fatalf("campaign at %g°C: state=%v err=%v", temp, final.State, err)
		}
	}
	if fvms, _ := client.FVMs(ctx, "", ""); len(fvms) != 4 {
		t.Fatalf("stored %d FVMs, want 4", len(fvms))
	}
	// No bound configured and none passed: 400.
	if _, err := client.GC(ctx, 0); err == nil {
		t.Fatal("GC without a bound accepted")
	} else {
		wantStatus(t, err, http.StatusBadRequest)
	}
	removed, err := client.GC(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 2 {
		t.Fatalf("GC removed %d records, want 2", removed)
	}
	fvms, err := client.FVMs(ctx, "", "")
	if err != nil || len(fvms) != 2 {
		t.Fatalf("%d FVMs after GC (%v), want 2", len(fvms), err)
	}
	// The newest records (60 °C) are the survivors.
	for _, f := range fvms {
		if f.TempC != 60 {
			t.Fatalf("GC kept the older %g°C record", f.TempC)
		}
	}
}

// TestJobRetainTrimsTerminalJournal pins -job-retain's truncation contract
// over the API. Retention drops whole sealed segments of a finished job, and
// a stream from the start then leads with the same truncated marker the
// live-segment cap leaves, followed by the kept suffix. One-event segments
// make the trim exact: the 5-event job keeps Seqs 3 and 4.
func TestJobRetainTrimsTerminalJournal(t *testing.T) {
	st := newStore(t)
	st.SetEventLogTuning(1, 1<<30) // one-event segments, manual compaction only
	cfg := server.Config{Workers: 1, FleetWorkers: 2, JobRetain: 2}
	srv1, client1 := newService(t, st, cfg)
	ctx := context.Background()

	job, err := client1.Submit(ctx, smallCampaign())
	if err != nil {
		t.Fatal(err)
	}
	final, err := client1.Wait(ctx, job.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != server.JobDone {
		t.Fatalf("job finished %q, want done", final.State)
	}
	// Nothing was sealed when the job finished, so its retention pass had
	// nothing to drop. Seal every event, then boot a second service on the
	// same store: its replay applies retention to the finished job.
	sctx, scancel := context.WithTimeout(ctx, 30*time.Second)
	defer scancel()
	if err := srv1.Shutdown(sctx); err != nil {
		t.Fatal(err)
	}
	if err := st.CompactJob(job.ID); err != nil {
		t.Fatal(err)
	}
	_, client2 := newService(t, st, cfg)

	var got []string
	if err := client2.Events(ctx, job.ID, func(ev server.JobEvent) error {
		got = append(got, fmt.Sprintf("%d:%s", ev.Seq, ev.Type))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want := "[2:truncated 3:done 4:campaign]"; fmt.Sprint(got) != want {
		t.Fatalf("stream after retention = %v, want %s", got, want)
	}
}
