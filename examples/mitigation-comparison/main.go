// The mitigation-comparison example races the paper's Section IV protection
// schemes against each other on the same silicon. Every board in a small
// mixed fleet walks one shared VCCBRAM ladder from nominal down to Vcrash
// four times over:
//
//   - unprotected — raw BRAM reads, the Fig. 3 baseline;
//   - ecc — a (22,16) SECDED scrubber that corrects single-bit words and
//     counts what it detected versus what slipped through silently;
//   - icbp — data placed away from the high-vulnerability k-means class of
//     the board's Fault Variation Map (Fig. 5), so the same voltage hits
//     fewer weak cells;
//   - dvfs — frequency scaled down with the alpha-power law so the lower
//     voltage never outruns timing (here in iso-energy mode, which picks the
//     operating point matching the undervolted energy budget).
//
// All four arms read the exact same fault draw per level, so the comparison
// isolates the mitigation itself. The example runs the campaign twice: once
// in-process through the fleet engine, then again through the campaign
// service's kind-scoped `mitigation{}` API — streaming per-level progress —
// and shows the wire results agree with the local run.
//
// Run with:
//
//	go run ./examples/mitigation-comparison
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"reflect"
	"time"

	"repro/fpgavolt"
	"repro/internal/report"
)

func main() {
	ctx := context.Background()

	// --- Pass 1: the fleet engine, in process. ---------------------------
	inventory := append(
		fpgavolt.VC707().Scaled(48).Replicas(2),
		fpgavolt.KC705A().Scaled(48), fpgavolt.ZC702().Scaled(48))
	fleet := fpgavolt.NewFleet(inventory, fpgavolt.FleetOptions{Workers: 2})
	res, err := fpgavolt.RunCampaign(ctx, fleet, fpgavolt.Campaign{
		Kind:         fpgavolt.CampaignMitigation,
		MitIsoEnergy: true,
	})
	if err != nil {
		log.Fatal(err)
	}

	t := report.NewTable("local run: arms per board",
		"board", "platform", "arm", "min safe V", "energy savings", "deepest faults/Mbit")
	for _, br := range res.Boards {
		for _, arm := range br.Mitigation {
			deepest := arm.Levels[len(arm.Levels)-1]
			t.AddRow(fmt.Sprintf("%d", br.Board), br.Platform, arm.Arm,
				report.F(arm.MinSafeV, 2), report.Pct(arm.EnergySavings, 1),
				report.F(deepest.FaultsPerMbit, 1))
		}
	}
	t.Render(log.Writer())

	agg := report.NewTable("local run: cross-chip spread per arm",
		"arm", "min safe V (med)", "energy savings (med)")
	for _, ma := range res.Agg.Mitigation {
		agg.AddRow(ma.Arm, report.F(ma.MinSafeV.Median, 2), report.Pct(ma.EnergySavings.Median, 1))
	}
	agg.Render(log.Writer())

	// --- Pass 2: the same campaign over the wire. ------------------------
	// A fresh store, removed on exit, so the daemon starts cold.
	dir, err := os.MkdirTemp("", "mitigation-comparison-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	st, err := fpgavolt.OpenDiskStore(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()
	svc, err := fpgavolt.NewService(fpgavolt.ServiceConfig{Store: st})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
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

	boards := []fpgavolt.BoardSpec{
		{Platform: "VC707", Replicas: 2, BRAMs: 48},
		{Platform: "KC705-A", Replicas: 1, BRAMs: 48},
		{Platform: "ZC702", Replicas: 1, BRAMs: 48},
	}
	job, err := client.SubmitMitigation(ctx, boards, fpgavolt.MitigationSpec{IsoEnergy: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("service job %s submitted (kind-scoped mitigation{} request)\n", job.ID)

	// Per-level events stream over SSE while the arms race down the ladder.
	levels := 0
	err = client.Events(ctx, job.ID, func(ev fpgavolt.JobEvent) error {
		if ev.Type == "level" {
			levels++
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	status, err := client.Job(ctx, job.ID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("service job %s: %d per-level events streamed\n", status.State, levels)

	wire := report.NewTable("service run: arms per board (from JobStatus)",
		"board", "platform", "arm", "min safe V", "energy savings")
	for _, bs := range status.BoardResults {
		for _, arm := range bs.Mitigation {
			wire.AddRow(fmt.Sprintf("%d", bs.Board), bs.Platform, arm.Arm,
				report.F(arm.MinSafeV, 2), report.Pct(arm.EnergySavings, 1))
		}
	}
	wire.Render(log.Writer())

	// Same serials, same ladder, same fault draws: the wire curves are the
	// local curves.
	agree := true
	for i, br := range res.Boards {
		bs := status.BoardResults[i]
		for ai, arm := range br.Mitigation {
			w := bs.Mitigation[ai]
			if arm.Arm != w.Arm || arm.MinSafeV != w.MinSafeV ||
				arm.EnergySavings != w.EnergySavings || !levelsMatch(arm, w) {
				agree = false
			}
		}
	}
	fmt.Printf("wire results match the local engine run: %v\n", agree)
}

// levelsMatch compares an engine arm curve to its wire projection.
func levelsMatch(a fpgavolt.MitigationArm, w fpgavolt.MitigationArmStatus) bool {
	if len(a.Levels) != len(w.Levels) {
		return false
	}
	for i, p := range a.Levels {
		got := w.Levels[i]
		want := fpgavolt.MitigationLevel{
			V: p.V, FaultsPerMbit: p.FaultsPerMbit, WordErrors: p.WordErrors,
			Accuracy: p.Accuracy, EnergyJ: p.EnergyJ, FreqScale: p.FreqScale,
			Corrected: p.Corrected, Detected: p.Detected, Silent: p.Silent,
		}
		if !reflect.DeepEqual(got, want) {
			return false
		}
	}
	return true
}
