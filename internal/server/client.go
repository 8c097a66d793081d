package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"repro/internal/fvm"
	"repro/internal/nn"
)

// Client is the typed HTTP client for the campaign service. It speaks the
// exact wire types the server emits, including the SSE event stream, so a
// Go consumer never touches raw JSON.
type Client struct {
	base  string
	hc    *http.Client
	token string
}

// NewClient returns a client for the service at base (e.g.
// "http://127.0.0.1:8080"). hc may be nil for http.DefaultClient; streaming
// requires a client without a global timeout.
func NewClient(base string, hc *http.Client) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Client{base: strings.TrimRight(base, "/"), hc: hc}
}

// BaseURL returns the service root this client talks to.
func (c *Client) BaseURL() string { return c.base }

// SetToken attaches a bearer token to every subsequent request — the client
// side of Config.AuthToken. An empty token sends no Authorization header.
// Returns c for chaining.
func (c *Client) SetToken(token string) *Client {
	c.token = token
	return c
}

// authorize stamps the bearer token onto one outgoing request.
func (c *Client) authorize(req *http.Request) {
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
}

// do issues one request and decodes the JSON response into out (which may be
// nil). Non-2xx responses come back as *APIStatusError.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("client: encode request: %w", err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	c.authorize(req)
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return decodeAPIError(resp)
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("client: decode %s %s: %w", method, path, err)
	}
	return nil
}

func decodeAPIError(resp *http.Response) error {
	var body ErrorBody
	msg := resp.Status
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&body); err == nil && body.Error != "" {
		msg = body.Error
	}
	return &APIStatusError{StatusCode: resp.StatusCode, Message: msg}
}

// Submit enqueues a campaign and returns the queued job.
func (c *Client) Submit(ctx context.Context, req CampaignRequest) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodPost, "/v1/campaigns", req, &st)
	return st, err
}

// SubmitInference serializes the quantized network and test set into their
// wire documents and submits an nn-inference campaign across the given
// boards — the remote counterpart of building an engine.Campaign with an
// in-process *nn.Quantized. seed 0 means placement seed 1.
func (c *Client) SubmitInference(ctx context.Context, boards []BoardSpec, q *nn.Quantized, xs [][]float64, ys []int, seed uint64) (JobStatus, error) {
	req, err := NewInferenceRequest(boards, q, xs, ys, seed)
	if err != nil {
		return JobStatus{}, fmt.Errorf("client: %w", err)
	}
	return c.Submit(ctx, req)
}

// SubmitMitigation submits a mitigation-comparison campaign across the
// given boards: per board, a VCCBRAM sweep comparing the spec's arms
// (empty = unprotected, ecc, icbp, dvfs).
func (c *Client) SubmitMitigation(ctx context.Context, boards []BoardSpec, spec MitigationSpec) (JobStatus, error) {
	return c.Submit(ctx, NewMitigationRequest(boards, spec))
}

// Job fetches one job's status.
func (c *Client) Job(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id), nil, &st)
	return st, err
}

// Jobs lists every job.
func (c *Client) Jobs(ctx context.Context) ([]JobStatus, error) {
	var out []JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/jobs", nil, &out)
	return out, err
}

// Cancel cancels a queued or running job and returns its status.
func (c *Client) Cancel(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+url.PathEscape(id), nil, &st)
	return st, err
}

// Events subscribes to the job's SSE stream and invokes fn for every event,
// history first, until the terminal "campaign" event (nil return), the
// context ends, or fn returns an error (which stops the stream and is
// returned).
func (c *Client) Events(ctx context.Context, id string, fn func(JobEvent) error) error {
	return c.EventsFrom(ctx, id, -1, fn)
}

// EventsFrom is Events with a resume cursor: pass the Seq of the last event
// a previous subscription delivered (rides the Last-Event-ID header) and the
// replay starts just past it — served from the journal when the server has
// trimmed that depth out of memory, so the cursor stays valid at any age,
// including across a server restart. after < 0 replays from the start.
func (c *Client) EventsFrom(ctx context.Context, id string, after int, fn func(JobEvent) error) error {
	cursor := ""
	if after >= 0 {
		cursor = strconv.Itoa(after)
	}
	ended, err := c.streamSSE(ctx, "/v1/jobs/"+url.PathEscape(id)+"/events", cursor,
		func(ev JobEvent) (bool, error) {
			if err := fn(ev); err != nil {
				return false, err
			}
			return ev.Type == "campaign", nil
		})
	if err != nil {
		return err
	}
	if !ended {
		// Stream ended without a terminal event: surface the interruption.
		return io.ErrUnexpectedEOF
	}
	return nil
}

// Firehose subscribes to the server-wide /v1/events stream and invokes fn
// for every event from every job (each tagged with its job id and global
// sequence). after > 0 resumes from that global sequence — pass the last
// GSeq a previous subscription delivered, even across a server restart.
// The stream has no terminal event: Firehose runs until the context ends
// (returning ctx.Err()), fn returns an error (returned), or the server
// shuts down and closes the stream (nil).
func (c *Client) Firehose(ctx context.Context, after int64, fn func(JobEvent) error) error {
	cursor := ""
	if after > 0 {
		cursor = strconv.FormatInt(after, 10)
	}
	_, err := c.streamSSE(ctx, "/v1/events", cursor,
		func(ev JobEvent) (bool, error) { return false, fn(ev) })
	return err
}

// streamSSE runs one SSE subscription, invoking fn per decoded event until
// fn stops the stream (ended=true), the stream closes (ended=false), fn
// errors, or the context ends. lastEventID, when non-empty, rides the
// Last-Event-ID header to resume server-side.
func (c *Client) streamSSE(ctx context.Context, path, lastEventID string, fn func(JobEvent) (stop bool, err error)) (ended bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return false, err
	}
	req.Header.Set("Accept", "text/event-stream")
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	c.authorize(req)
	resp, err := c.hc.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, decodeAPIError(resp)
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var data strings.Builder
	flush := func() (bool, error) {
		if data.Len() == 0 {
			return false, nil
		}
		var ev JobEvent
		if err := json.Unmarshal([]byte(data.String()), &ev); err != nil {
			return false, fmt.Errorf("client: decode event: %w", err)
		}
		data.Reset()
		return fn(ev)
	}
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			stop, err := flush()
			if err != nil || stop {
				return stop, err
			}
		case strings.HasPrefix(line, "data:"):
			data.WriteString(strings.TrimPrefix(strings.TrimPrefix(line, "data:"), " "))
		default:
			// id:/event:/retry:/comment lines carry no payload we need; the
			// JSON body repeats the type and sequences.
		}
	}
	if err := sc.Err(); err != nil {
		if ctx.Err() != nil {
			return false, ctx.Err()
		}
		return false, err
	}
	// Clean end of stream; flush a final event the server may have sent
	// without a trailing blank line.
	stop, err := flush()
	return stop, err
}

// Wait streams events (fn may be nil) until the job reaches a terminal
// state, then returns the final status.
func (c *Client) Wait(ctx context.Context, id string, fn func(JobEvent) error) (JobStatus, error) {
	cb := fn
	if cb == nil {
		cb = func(JobEvent) error { return nil }
	}
	if err := c.Events(ctx, id, cb); err != nil {
		return JobStatus{}, err
	}
	return c.Job(ctx, id)
}

// FVMs lists stored characterizations, optionally filtered by platform
// and/or serial (empty strings match everything). A degraded federation's
// partial answer decodes transparently — use FVMList to see Partial/Missing.
func (c *Client) FVMs(ctx context.Context, platformName, serial string) ([]FVMInfo, error) {
	out, err := c.FVMList(ctx, platformName, serial)
	return out.FVMs, err
}

// FVMList lists stored characterizations with the degraded-mode envelope: a
// federation coordinator that could not reach every daemon sets Partial and
// names the Missing daemons; a complete answer (or a lone daemon's bare
// array) leaves both zero. The wire shape is sniffed, so one client speaks
// to both daemon and coordinator.
func (c *Client) FVMList(ctx context.Context, platformName, serial string) (FVMList, error) {
	var raw json.RawMessage
	if err := c.do(ctx, http.MethodGet, "/v1/fvms"+listQuery(platformName, serial), nil, &raw); err != nil {
		return FVMList{}, err
	}
	var out FVMList
	if isJSONArray(raw) {
		return out, json.Unmarshal(raw, &out.FVMs)
	}
	return out, json.Unmarshal(raw, &out)
}

// FVM fetches one stored record's full Fault Variation Map.
func (c *Client) FVM(ctx context.Context, id string) (*fvm.Map, error) {
	var m fvm.Map
	if err := c.do(ctx, http.MethodGet, "/v1/fvms/"+url.PathEscape(id), nil, &m); err != nil {
		return nil, err
	}
	return &m, nil
}

// DeleteFVM removes one stored record — the admin counterpart of FVMs.
func (c *Client) DeleteFVM(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/v1/fvms/"+url.PathEscape(id), nil, nil)
}

// GC re-bounds the server's FVM store to the newest keep records per
// (platform, serial) and returns how many records were removed. keep <= 0
// uses the server's configured GCKeep (the server answers 400 when it has
// none).
func (c *Client) GC(ctx context.Context, keep int) (int, error) {
	path := "/v1/gc"
	if keep > 0 {
		path += "?keep=" + strconv.Itoa(keep)
	}
	var out struct {
		Removed int `json:"removed"`
	}
	err := c.do(ctx, http.MethodPost, path, nil, &out)
	return out.Removed, err
}

// Vmin lists the observed operating window of every stored sweep matching
// the optional platform/serial filter.
func (c *Client) Vmin(ctx context.Context, platformName, serial string) ([]VminInfo, error) {
	out, err := c.VminList(ctx, platformName, serial)
	return out.Vmin, err
}

// VminList is Vmin with the degraded-mode envelope, mirroring FVMList.
func (c *Client) VminList(ctx context.Context, platformName, serial string) (VminList, error) {
	var raw json.RawMessage
	if err := c.do(ctx, http.MethodGet, "/v1/vmin"+listQuery(platformName, serial), nil, &raw); err != nil {
		return VminList{}, err
	}
	var out VminList
	if isJSONArray(raw) {
		return out, json.Unmarshal(raw, &out.Vmin)
	}
	return out, json.Unmarshal(raw, &out)
}

// isJSONArray reports whether the document's first token opens an array —
// how the client tells a bare list from the partial-union envelope.
func isJSONArray(raw json.RawMessage) bool {
	for _, b := range raw {
		switch b {
		case ' ', '\t', '\r', '\n':
			continue
		case '[':
			return true
		default:
			return false
		}
	}
	return false
}

func listQuery(platformName, serial string) string {
	q := url.Values{}
	if platformName != "" {
		q.Set("platform", platformName)
	}
	if serial != "" {
		q.Set("serial", serial)
	}
	if len(q) == 0 {
		return ""
	}
	return "?" + q.Encode()
}
