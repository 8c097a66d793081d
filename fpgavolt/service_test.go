package fpgavolt_test

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"repro/fpgavolt"
)

// TestServicePublicAPI drives the campaign service purely through the
// public package: NewService + NewServiceClient over a disk store,
// submit → stream → query, then a fleet built directly on the same store
// confirming the service's characterizations are reusable library-side.
func TestServicePublicAPI(t *testing.T) {
	st, err := fpgavolt.OpenDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	svc, err := fpgavolt.NewService(fpgavolt.ServiceConfig{Store: st, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		svc.Shutdown(ctx)
	}()

	ctx := context.Background()
	client := fpgavolt.NewServiceClient(ts.URL, ts.Client())
	job, err := client.Submit(ctx, fpgavolt.CampaignRequest{
		Kind:   "characterization",
		Boards: []fpgavolt.BoardSpec{{Platform: "KC705-A", Replicas: 2, BRAMs: 24}},
		Runs:   3,
	})
	if err != nil {
		t.Fatal(err)
	}
	final, err := client.Wait(ctx, job.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != fpgavolt.JobDone || final.Aggregate.Completed != 2 {
		t.Fatalf("service job %+v", final)
	}
	fvms, err := client.FVMs(ctx, "KC705-A", "")
	if err != nil || len(fvms) != 2 {
		t.Fatalf("FVM query: %d rows, %v", len(fvms), err)
	}

	// A library-side fleet over the same store reuses the service's work.
	fleet := fpgavolt.NewFleet(
		fpgavolt.KC705A().Scaled(24).Replicas(2),
		fpgavolt.FleetOptions{Store: st},
	)
	res, err := fpgavolt.RunCampaign(ctx, fleet, fpgavolt.Campaign{
		Kind:  fpgavolt.CampaignCharacterization,
		Sweep: fpgavolt.SweepOptions{Runs: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if fleet.Characterizations() != 0 || res.Agg.CacheHits != 2 {
		t.Fatalf("library fleet re-characterized: %d sweeps, %d hits",
			fleet.Characterizations(), res.Agg.CacheHits)
	}

	// The NN campaign kind rides the same API: train a tiny classifier,
	// round-trip it through the public wire helpers, and submit it.
	ds, err := fpgavolt.Benchmark("mnist", fpgavolt.DatasetOptions{
		TrainSamples: 200, TestSamples: 32, Features: 36,
	})
	if err != nil {
		t.Fatal(err)
	}
	net, err := fpgavolt.NewNetwork([]int{36, 12, 10}, "service-public-api")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Train(ds.TrainX, ds.TrainY, fpgavolt.TrainOptions{Epochs: 1}); err != nil {
		t.Fatal(err)
	}
	q := fpgavolt.QuantizeNetwork(net)
	doc, err := q.MarshalWire()
	if err != nil {
		t.Fatal(err)
	}
	q2, err := fpgavolt.UnmarshalQuantized(doc)
	if err != nil {
		t.Fatal(err)
	}
	if q2.TotalWords() != q.TotalWords() {
		t.Fatalf("wire round trip changed the network: %d vs %d words", q2.TotalWords(), q.TotalWords())
	}
	nnJob, err := client.SubmitInference(ctx, []fpgavolt.BoardSpec{{Platform: "KC705-A", BRAMs: 24}},
		q, ds.TestX, ds.TestY, 1)
	if err != nil {
		t.Fatal(err)
	}
	nnFinal, err := client.Wait(ctx, nnJob.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if nnFinal.State != fpgavolt.JobDone || len(nnFinal.BoardResults) != 1 {
		t.Fatalf("inference job %+v", nnFinal)
	}
	if len(nnFinal.BoardResults[0].Inference) == 0 {
		t.Fatal("inference job detail lacks the accuracy-vs-voltage curve")
	}
}
