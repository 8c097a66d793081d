package server_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/server"
)

// TestConcurrentStreamsCancelAndShutdown drives several SSE consumers —
// two per-job streams per job plus two firehose subscribers — against two
// concurrent campaigns, one of which is cancelled mid-run, and then a
// daemon shutdown. Under -race this shakes the locking across the job
// table, the firehose, and the journal; the assertions pin the delivery
// contract: no stream sees an event twice, per-job streams are gapless and
// observe exactly one terminal event, the firehose is strictly ordered,
// and shutdown releases a live firehose subscriber cleanly.
func TestConcurrentStreamsCancelAndShutdown(t *testing.T) {
	srv, client := newService(t, newStore(t), server.Config{
		Workers: 2, FleetWorkers: 2, SSEKeepAlive: 5 * time.Millisecond,
	})
	ctx := context.Background()

	// One quick campaign that completes, one big one to cancel mid-run.
	quick, err := client.Submit(ctx, smallCampaign())
	if err != nil {
		t.Fatal(err)
	}
	// Sized to still be running when the cancel lands, even on the indexed
	// count-only read path.
	big, err := client.Submit(ctx, server.CampaignRequest{
		Kind:   "characterization",
		Boards: []server.BoardSpec{{Platform: "KC705-A", Replicas: 4, BRAMs: 890}},
		Runs:   10000,
	})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errc := make(chan error, 16)

	// Per-job consumers: two per job, each checking its own stream's
	// integrity independently.
	perJob := func(id string) {
		defer wg.Done()
		next := 0
		terminals := 0
		err := client.Events(ctx, id, func(ev server.JobEvent) error {
			if ev.Seq != next {
				return fmt.Errorf("stream delivered seq %d, want %d", ev.Seq, next)
			}
			next++
			if ev.Type == "campaign" {
				terminals++
			}
			return nil
		})
		if err != nil {
			errc <- err
			return
		}
		if terminals != 1 {
			errc <- fmt.Errorf("%s: stream saw %d terminal events, want 1", id, terminals)
		}
	}
	// Firehose consumers: strict global order (which implies no
	// duplicates), and exactly one terminal event per job.
	firehose := func() {
		defer wg.Done()
		var lastG int64
		terminals := map[string]int{}
		err := client.Firehose(ctx, 0, func(ev server.JobEvent) error {
			if ev.GSeq <= lastG {
				return errors.New("firehose gseq went backwards")
			}
			lastG = ev.GSeq
			if ev.Type == "campaign" {
				terminals[ev.Job]++
				if terminals[quick.ID] > 0 && terminals[big.ID] > 0 {
					return errStopStream
				}
			}
			return nil
		})
		if !errors.Is(err, errStopStream) {
			errc <- err
			return
		}
		if terminals[quick.ID] != 1 || terminals[big.ID] != 1 {
			errc <- errors.New("firehose terminal counts wrong")
		}
	}

	for i := 0; i < 2; i++ {
		wg.Add(3)
		go perJob(quick.ID)
		go perJob(big.ID)
		go firehose()
	}

	// Cancel the big campaign once it is actually running.
	waitForState(t, client, big.ID, server.JobRunning)
	if _, err := client.Cancel(ctx, big.ID); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("streams did not drain")
	}
	close(errc)
	for err := range errc {
		if err != nil {
			t.Error(err)
		}
	}
	final, err := client.Job(ctx, big.ID)
	if err != nil || final.State != server.JobCancelled {
		t.Fatalf("cancelled job finished %q (%v)", final.State, err)
	}

	// A firehose subscriber with nothing left to read is released by
	// shutdown, not left hanging until its client gives up.
	released := make(chan error, 1)
	go func() {
		released <- client.Firehose(ctx, 1<<40, func(server.JobEvent) error { return nil })
	}()
	time.Sleep(50 * time.Millisecond) // let the subscription attach
	sctx, scancel := context.WithTimeout(ctx, 30*time.Second)
	defer scancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-released:
		if err != nil {
			t.Fatalf("firehose ended with %v after shutdown, want clean close", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("shutdown did not release the firehose stream")
	}
}
