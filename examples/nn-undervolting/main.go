// NN-undervolting reproduces the Section III trade-off on a reduced scale:
// train the fully-connected classifier, quantize it to the per-layer 16-bit
// fixed-point model (Fig. 9), deploy it into BRAMs, and trade power against
// classification accuracy as VCCBRAM drops (Figs. 10 and 11).
//
// With -service the same experiment runs through the campaign daemon
// instead: the example boots an in-process fpgavoltd, ships the quantized
// network and test set over HTTP as nn-inference wire documents, streams
// the job's SSE feed, and verifies the remote accuracy curve is
// bit-identical to a local sweep of the same inputs.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"repro/fpgavolt"
	"repro/internal/report"
)

func main() {
	service := flag.Bool("service", false, "run the sweep through an in-process fpgavoltd over HTTP")
	flag.Parse()
	ctx := context.Background()
	// Train on the MNIST-like benchmark (784->196 pixels at this scale).
	ds, err := fpgavolt.Benchmark("mnist", fpgavolt.DatasetOptions{
		TrainSamples: 4000, TestSamples: 800, Features: 196,
	})
	if err != nil {
		log.Fatal(err)
	}
	if *service {
		// The wire narrows inputs to float32; evaluating the decoded copy
		// locally too is what makes the local/remote comparison exact.
		tsDoc, err := fpgavolt.MarshalTestSet(ds.TestX, ds.TestY)
		if err != nil {
			log.Fatal(err)
		}
		if ds.TestX, ds.TestY, err = fpgavolt.UnmarshalTestSet(tsDoc); err != nil {
			log.Fatal(err)
		}
	}
	net, err := fpgavolt.NewNetwork([]int{196, 128, 64, 32, 16, 10}, "example")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("training (6-level topology, logsig hidden + softmax output)...")
	if _, err := net.Train(ds.TrainX, ds.TrainY, fpgavolt.TrainOptions{
		Epochs: 12, LearnRate: 0.3,
	}); err != nil {
		log.Fatal(err)
	}

	// Fig. 9: the per-layer minimum-precision quantization.
	q := fpgavolt.QuantizeNetwork(net)
	for j, f := range q.Formats {
		fmt.Printf("  Layer%d format %s (%d words)\n", j, f, q.LayerWords(j))
	}
	fmt.Printf("weight-bit sparsity: %s zeros (the paper's inherent fault tolerance)\n\n",
		report.Pct(1-q.OneBitFraction(), 1))

	// Deploy on a scaled VC707 and sweep VCCBRAM.
	board := fpgavolt.OpenBoard(fpgavolt.VC707().Scaled(200))
	acc, err := fpgavolt.BuildAccelerator(board, q, nil, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("BRAM utilization: %s\n", report.Pct(acc.BRAMUtilization(), 1))

	t := report.NewTable("accuracy/power trade-off under BRAM undervolting",
		"VCCBRAM (V)", "class. error", "faulty weight bits", "BRAM power (W)", "total (W)")
	results, err := acc.Sweep(ctx, ds.TestX, ds.TestY, 0)
	if err != nil {
		log.Fatal(err)
	}
	if *service {
		remote, err := sweepViaService(ctx, q, ds)
		if err != nil {
			log.Fatal(err)
		}
		if len(remote) != len(results) {
			log.Fatalf("service returned %d levels, local sweep has %d", len(remote), len(results))
		}
		for i, pt := range remote {
			r := results[i]
			if pt.V != r.V || pt.Error != r.Error || pt.WeightFault != r.WeightFault {
				log.Fatalf("level %d: remote %+v differs from local %+v", i, pt, r)
			}
		}
		fmt.Printf("service-mode check: %d remote voltage points bit-identical to the local sweep\n\n", len(remote))
	}
	cal := board.Platform.Cal
	for _, v := range []float64{cal.Vnom} {
		bd := acc.PowerBreakdown(v)
		r, err := acc.EvaluateAt(ctx, v, ds.TestX, ds.TestY, 0)
		if err != nil {
			log.Fatal(err)
		}
		t.AddRow(report.F(v, 2), report.Pct(r.Error, 2), fmt.Sprintf("%d", r.WeightFault),
			report.F(bd.Of("BRAM"), 3), report.F(bd.Total(), 3))
	}
	for _, r := range results {
		bd := acc.PowerBreakdown(r.V)
		t.AddRow(report.F(r.V, 2), report.Pct(r.Error, 2), fmt.Sprintf("%d", r.WeightFault),
			report.F(bd.Of("BRAM"), 3), report.F(bd.Total(), 3))
	}
	t.Render(log.Writer())
}

// sweepViaService runs the same inference sweep through a freshly-booted
// in-process campaign daemon: submit over HTTP, stream the SSE feed, and
// return the accuracy curve from the job detail.
func sweepViaService(ctx context.Context, q *fpgavolt.Quantized, ds *fpgavolt.Dataset) ([]fpgavolt.InferencePoint, error) {
	// A fresh store, removed on return, so the daemon starts cold.
	dir, err := os.MkdirTemp("", "nn-undervolting-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st, err := fpgavolt.OpenDiskStore(dir)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	svc, err := fpgavolt.NewService(fpgavolt.ServiceConfig{Store: st, Workers: 1})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: svc.Handler()}
	go hs.Serve(ln)
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		svc.Shutdown(sctx)
		hs.Shutdown(sctx)
	}()

	client := fpgavolt.NewServiceClient("http://"+ln.Addr().String(), nil)
	boards := []fpgavolt.BoardSpec{{Platform: "VC707", Replicas: 1, BRAMs: 200}}
	job, err := client.SubmitInference(ctx, boards, q, ds.TestX, ds.TestY, 1)
	if err != nil {
		return nil, err
	}
	fmt.Printf("service mode: submitted %s (wire format v%d)\n", job.ID, fpgavolt.WireVersion)
	final, err := client.Wait(ctx, job.ID, func(ev fpgavolt.JobEvent) error {
		if ev.Type == "done" {
			fmt.Printf("  board %d done: %s classification error at deepest level\n",
				ev.Board, report.Pct(ev.InferError, 2))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if final.State != fpgavolt.JobDone {
		return nil, fmt.Errorf("job finished %s: %s", final.State, final.Error)
	}
	if len(final.BoardResults) != 1 {
		return nil, fmt.Errorf("expected one board result, got %d", len(final.BoardResults))
	}
	return final.BoardResults[0].Inference, nil
}
