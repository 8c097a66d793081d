package main

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"repro/fpgavolt"
)

// TestCoordinatorEndToEnd boots the real coordinator binary path (flag
// parsing, disk journal, HTTP listener, graceful drain) over two in-process
// daemons and drives a token-gated federated campaign through it.
func TestCoordinatorEndToEnd(t *testing.T) {
	// Two downstream daemons, both requiring the fleet token.
	var urls []string
	for i := 0; i < 2; i++ {
		st, err := fpgavolt.OpenDiskStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		svc, err := fpgavolt.NewService(fpgavolt.ServiceConfig{
			Store: st, Workers: 1, FleetWorkers: 2, AuthToken: "fleet-token",
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(svc.Handler())
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			svc.Shutdown(ctx)
			ts.Close()
			st.Close()
		})
		urls = append(urls, ts.URL)
	}

	ctx, stop := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-listen", "127.0.0.1:0", "-store", t.TempDir(),
			"-downstream", urls[0], "-downstream", urls[1],
			"-chunk-boards", "1",
			"-auth-token", "front-token", "-downstream-token", "fleet-token",
		}, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("coordinator exited before serving: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("coordinator never came up")
	}

	client := fpgavolt.NewServiceClient("http://"+addr, nil).SetToken("front-token")
	job, err := client.Submit(ctx, fpgavolt.CampaignRequest{
		Kind: "characterization",
		Boards: []fpgavolt.BoardSpec{
			{Platform: "VC707", Replicas: 2, BRAMs: 24},
			{Platform: "ZC702", Replicas: 2, BRAMs: 24},
		},
		Runs: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	final, err := client.Wait(ctx, job.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != fpgavolt.JobDone || final.Aggregate == nil || final.Aggregate.Completed != 4 {
		t.Fatalf("federated campaign ended %q (%s), aggregate %+v", final.State, final.Error, final.Aggregate)
	}
	if len(final.Shards) == 0 {
		t.Fatal("job detail has no shard map")
	}

	// The union FVM query sees all four characterizations across daemons.
	fvms, err := client.FVMs(ctx, "", "")
	if err != nil || len(fvms) != 4 {
		t.Fatalf("federated FVM union: %d records (%v), want 4", len(fvms), err)
	}

	stop()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("coordinator shutdown: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("coordinator did not drain")
	}
}
