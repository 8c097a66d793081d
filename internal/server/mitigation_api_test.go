package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/server"
)

// TestMitigationCampaignOverHTTP drives a mitigation campaign end to end
// through the wire API: kind-scoped submission, per-level SSE events, and a
// finished JobStatus carrying every arm's full curve.
func TestMitigationCampaignOverHTTP(t *testing.T) {
	_, client := newService(t, newStore(t), server.Config{Workers: 1, FleetWorkers: 2})
	ctx := context.Background()

	job, err := client.SubmitMitigation(ctx,
		[]server.BoardSpec{{Platform: "VC707", Replicas: 2, BRAMs: 24}},
		server.MitigationSpec{IsoEnergy: true})
	if err != nil {
		t.Fatal(err)
	}
	levels := 0
	if err := client.Events(ctx, job.ID, func(ev server.JobEvent) error {
		if ev.Type == "level" {
			levels++
			if ev.V <= 0 {
				t.Fatalf("level event without a voltage: %+v", ev)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if levels == 0 {
		t.Fatal("no per-level events streamed")
	}

	status, err := client.Job(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if status.State != server.JobDone {
		t.Fatalf("job ended %q (%s)", status.State, status.Error)
	}
	if len(status.BoardResults) != 2 {
		t.Fatalf("%d board rows, want 2", len(status.BoardResults))
	}
	for _, bs := range status.BoardResults {
		if len(bs.Mitigation) != len(engine.MitigationArms()) {
			t.Fatalf("board %d has %d arms, want all four", bs.Board, len(bs.Mitigation))
		}
		for i, arm := range bs.Mitigation {
			if arm.Arm != engine.MitigationArms()[i] {
				t.Fatalf("board %d arm %d is %q, want canonical order %v",
					bs.Board, i, arm.Arm, engine.MitigationArms())
			}
			if len(arm.Levels) == 0 || arm.MinSafeV <= 0 {
				t.Fatalf("board %d arm %q came back empty: %+v", bs.Board, arm.Arm, arm)
			}
		}
	}
	if status.Aggregate == nil || len(status.Aggregate.Mitigation) != len(engine.MitigationArms()) {
		t.Fatalf("aggregate missing per-arm spreads: %+v", status.Aggregate)
	}
}

// postRaw submits a raw body and returns the status code with the decoded
// error envelope (zero-valued on 2xx).
func postRaw(t *testing.T, base, body string) (int, server.ErrorBody) {
	t.Helper()
	resp, err := http.Post(base+"/v1/campaigns", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var eb server.ErrorBody
	if resp.StatusCode >= 400 {
		if err := json.Unmarshal(data, &eb); err != nil {
			t.Fatalf("status %d body is not the error envelope: %q", resp.StatusCode, data)
		}
		if eb.Error == "" {
			t.Fatalf("status %d envelope has an empty error: %q", resp.StatusCode, data)
		}
	}
	return resp.StatusCode, eb
}

// TestScopedRequestValidationOverHTTP pins the kind-scoped schema's 400s:
// sub-objects on the wrong kind, flat/scoped conflicts, and malformed
// mitigation specs — every one answered in the ErrorBody envelope.
func TestScopedRequestValidationOverHTTP(t *testing.T) {
	_, client := newService(t, newStore(t), server.Config{Workers: 1})
	base := client.BaseURL()
	boards := `"boards":[{"platform":"VC707","brams":24}]`

	cases := []struct {
		name, body, wantMsg string
	}{
		{"mitigation on wrong kind",
			`{"kind":"characterization",` + boards + `,"mitigation":{}}`,
			"mitigation{} only rides"},
		{"temperature on wrong kind",
			`{"kind":"characterization",` + boards + `,"temperature":{"temps":[60]}}`,
			"temperature{} only rides"},
		{"flat and scoped temps conflict",
			`{"kind":"temperature-study",` + boards + `,"temps":[50],"temperature":{"temps":[60]}}`,
			"pick one"},
		{"flat and scoped fills conflict",
			`{"kind":"pattern-study",` + boards + `,"patterns":["ffff"],"pattern":{"fills":["aaaa"]}}`,
			"pick one"},
		{"flat and scoped probe_runs conflict",
			`{"kind":"threshold-discovery",` + boards + `,"probe_runs":2,"thresholds":{"probe_runs":4}}`,
			"pick one"},
		{"duplicate arm",
			`{"kind":"mitigation",` + boards + `,"mitigation":{"arms":["ecc","ecc"]}}`,
			"mitigation:"},
		{"unknown arm",
			`{"kind":"mitigation",` + boards + `,"mitigation":{"arms":["tmr"]}}`,
			"mitigation:"},
		{"non-descending ladder",
			`{"kind":"mitigation",` + boards + `,"mitigation":{"voltages":[0.7,0.8]}}`,
			"mitigation:"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, eb := postRaw(t, base, tc.body)
			if code != http.StatusBadRequest {
				t.Fatalf("answered %d, want 400", code)
			}
			if !strings.Contains(eb.Error, tc.wantMsg) {
				t.Fatalf("envelope %q does not mention %q", eb.Error, tc.wantMsg)
			}
		})
	}

	// The scoped form still submits clean.
	req := server.NewMitigationRequest(
		[]server.BoardSpec{{Platform: "VC707", BRAMs: 24}},
		server.MitigationSpec{Arms: []string{"unprotected"}})
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("well-formed mitigation submit answered %d, want 202", resp.StatusCode)
	}
}

// TestAdmissionControl503Envelope pins satellite 2's tail: the admission
// 503s — queue full, and draining — use the same {"error": ...} envelope
// every other failure does, so typed clients surface a message, not a bare
// string.
func TestAdmissionControl503Envelope(t *testing.T) {
	ctx := context.Background()
	_, client := newService(t, newStore(t), server.Config{Workers: 1, QueueDepth: 1})
	long := server.CampaignRequest{
		Kind:   "characterization",
		Boards: []server.BoardSpec{{Platform: "VC707", Replicas: 2, BRAMs: 2060}},
		Runs:   10000,
	}
	running, err := client.Submit(ctx, long)
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, client, running.ID, server.JobRunning)
	if _, err := client.Submit(ctx, long); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(long)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(client.BaseURL()+"/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overfull queue answered %d, want 503", resp.StatusCode)
	}
	var eb server.ErrorBody
	if err := json.Unmarshal(raw, &eb); err != nil || !strings.Contains(eb.Error, "queue full") {
		t.Fatalf("503 body is not the error envelope: %q (%v)", raw, err)
	}
	// The typed client decodes the same envelope into APIStatusError.
	_, err = client.Submit(ctx, long)
	var ae *server.APIStatusError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusServiceUnavailable ||
		!strings.Contains(ae.Error(), "queue full") {
		t.Fatalf("typed client surfaced %v, want a queue-full 503", err)
	}
	for _, j := range mustJobs(t, client) {
		client.Cancel(ctx, j.ID)
	}
}
