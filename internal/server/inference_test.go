package server_test

import (
	"context"
	"encoding/json"
	"errors"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/nn"
	"repro/internal/platform"
	"repro/internal/server"
)

// trainedInferenceFixture trains a small classifier and returns its
// deployment form plus the wire-round-tripped test set. The round trip
// matters: the wire narrows inputs to float32, and the acceptance bar is
// that the service's curve matches a local engine run of *the same* inputs.
func trainedInferenceFixture(t *testing.T) (*nn.Quantized, [][]float64, []int) {
	t.Helper()
	ds := dataset.MNISTLike(dataset.Options{
		TrainSamples: 300, TestSamples: 48, Features: 64, Classes: 10,
	})
	net, err := nn.New([]int{64, 16, 10}, "inference-api-test")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Train(ds.TrainX, ds.TrainY, nn.TrainOptions{Epochs: 2, LearnRate: 0.3, Workers: 4}); err != nil {
		t.Fatal(err)
	}
	q := nn.Quantize(net)
	doc, err := nn.MarshalTestSet(ds.TestX, ds.TestY)
	if err != nil {
		t.Fatal(err)
	}
	xs, ys, err := nn.UnmarshalTestSet(doc)
	if err != nil {
		t.Fatal(err)
	}
	return q, xs, ys
}

// inferenceBoards is the fleet both the HTTP and the local half of the
// equivalence test enroll.
func inferenceBoards() []server.BoardSpec {
	return []server.BoardSpec{{Platform: "VC707", Replicas: 2, BRAMs: 24}}
}

func localInventory(t *testing.T) []platform.Platform {
	t.Helper()
	return platform.VC707().Scaled(24).Replicas(2)
}

func TestInferenceCampaignOverHTTPMatchesLocalRun(t *testing.T) {
	q, xs, ys := trainedInferenceFixture(t)
	st := newStore(t)
	_, client := newService(t, st, server.Config{Workers: 1, FleetWorkers: 2})
	ctx := context.Background()

	job, err := client.SubmitInference(ctx, inferenceBoards(), q, xs, ys, 3)
	if err != nil {
		t.Fatal(err)
	}
	if job.Kind != "nn-inference" || job.Boards != 2 {
		t.Fatalf("submit echoed %+v", job)
	}
	var doneEvents []server.JobEvent
	final, err := client.Wait(ctx, job.ID, func(ev server.JobEvent) error {
		if ev.Type == "done" {
			doneEvents = append(doneEvents, ev)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if final.State != server.JobDone {
		t.Fatalf("job finished %q (%s)", final.State, final.Error)
	}
	if len(final.BoardResults) != 2 {
		t.Fatalf("board results %+v", final.BoardResults)
	}

	// The same (network, test set, seed) run through the engine directly.
	// The wire documents decode back to deep-equal payloads, so the two
	// runs measure identical dies with identical inputs and must agree on
	// every voltage point, bit for bit.
	fleet := engine.NewFleet(localInventory(t), engine.Options{Workers: 2})
	res, err := fleet.RunCampaign(ctx, engine.Campaign{
		Kind: engine.NNInference, Net: q, TestX: xs, TestY: ys, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, br := range final.BoardResults {
		local := res.Boards[i].Inference
		if len(br.Inference) == 0 || len(br.Inference) != len(local) {
			t.Fatalf("board %d: %d wire points vs %d local", i, len(br.Inference), len(local))
		}
		for k, p := range br.Inference {
			if p.V != local[k].V || p.Error != local[k].Error || p.WeightFault != local[k].WeightFault {
				t.Fatalf("board %d level %d: wire %+v vs local %+v", i, k, p, local[k])
			}
		}
	}
	if final.Aggregate == nil || final.Aggregate.InferenceError.N != 2 {
		t.Fatalf("aggregate %+v lacks the 2-board inference spread", final.Aggregate)
	}

	// Done events carry the deepest-level classification error.
	if len(doneEvents) != 2 {
		t.Fatalf("%d done events, want 2", len(doneEvents))
	}
	for _, ev := range doneEvents {
		local := res.Boards[ev.Board].Inference
		if want := local[len(local)-1].Error; ev.InferError != want {
			t.Fatalf("board %d done event infer_error %v, want %v", ev.Board, ev.InferError, want)
		}
	}
}

func TestInferenceJobSurvivesRestart(t *testing.T) {
	q, xs, ys := trainedInferenceFixture(t)
	st := newStore(t)
	srv1, client1 := newService(t, st, server.Config{Workers: 1})
	ctx := context.Background()

	job, err := client1.SubmitInference(ctx, inferenceBoards(), q, xs, ys, 0)
	if err != nil {
		t.Fatal(err)
	}
	final, err := client1.Wait(ctx, job.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != server.JobDone {
		t.Fatalf("job finished %q (%s)", final.State, final.Error)
	}
	if err := srv1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// A new daemon over the same store replays the journal: the job, its
	// accuracy curve, and its event log all survive.
	_, client2 := newService(t, st, server.Config{Workers: 1})
	replayed, err := client2.Job(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if replayed.State != server.JobDone || replayed.Kind != "nn-inference" {
		t.Fatalf("replayed job %+v", replayed)
	}
	a, _ := json.Marshal(final.BoardResults)
	b, _ := json.Marshal(replayed.BoardResults)
	if string(a) != string(b) {
		t.Fatalf("replayed board results drifted:\n%s\nvs\n%s", b, a)
	}
	var sawTerminal bool
	if err := client2.Events(ctx, job.ID, func(ev server.JobEvent) error {
		if ev.Type == "campaign" {
			sawTerminal = true
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !sawTerminal {
		t.Fatal("replayed event log lacks the terminal campaign event")
	}
}

func TestInferenceSubmissionValidation(t *testing.T) {
	q, xs, ys := trainedInferenceFixture(t)
	_, client := newService(t, newStore(t), server.Config{Workers: 1})
	ctx := context.Background()

	status := func(t *testing.T, err error) int {
		t.Helper()
		var ae *server.APIStatusError
		if !errors.As(err, &ae) {
			t.Fatalf("want an API error, got %v", err)
		}
		return ae.StatusCode
	}

	// Missing documents.
	_, err := client.Submit(ctx, server.CampaignRequest{Kind: "nn-inference", Boards: inferenceBoards()})
	if status(t, err) != 400 {
		t.Fatalf("missing documents: %v", err)
	}

	good, err := server.NewInferenceRequest(inferenceBoards(), q, xs, ys, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Corrupt network document.
	bad := good
	bad.Net = json.RawMessage(`{"version":99}`)
	if _, err := client.Submit(ctx, bad); status(t, err) != 400 {
		t.Fatalf("bad net: %v", err)
	}

	// Test set whose width does not match the network's input layer.
	narrowX := make([][]float64, len(xs))
	for i := range xs {
		narrowX[i] = xs[i][:10]
	}
	mismatch, err := server.NewInferenceRequest(inferenceBoards(), q, narrowX, ys, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Submit(ctx, mismatch); status(t, err) != 400 {
		t.Fatalf("feature mismatch: %v", err)
	}

	// Labels outside the output layer.
	highY := append([]int(nil), ys...)
	highY[0] = 10
	outOfRange, err := server.NewInferenceRequest(inferenceBoards(), q, xs, highY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Submit(ctx, outOfRange); status(t, err) != 400 {
		t.Fatalf("label out of range: %v", err)
	}

	// Network documents on a non-inference kind.
	wrongKind := good
	wrongKind.Kind = "characterization"
	if _, err := client.Submit(ctx, wrongKind); status(t, err) != 400 {
		t.Fatalf("net on characterization: %v", err)
	}

	// A placement seed on a non-inference kind is rejected, not ignored.
	if _, err := client.Submit(ctx, server.CampaignRequest{
		Kind: "characterization", Boards: inferenceBoards(), Runs: 2, Seed: 7,
	}); status(t, err) != 400 {
		t.Fatalf("seed on characterization: %v", err)
	}
}
