package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/characterize"
	"repro/internal/engine"
	"repro/internal/nn"
	"repro/internal/platform"
)

// BoardSpec requests boards of one platform model for a campaign's fleet.
type BoardSpec struct {
	// Platform names the board model: VC707, ZC702, KC705-A, or KC705-B.
	Platform string `json:"platform"`
	// Serial optionally pins the exact die. Empty means the model's
	// reference serial; replicas beyond the first always mint derived
	// serials (distinct dies), as Platform.Replicas does.
	Serial string `json:"serial,omitempty"`
	// Replicas is how many samples of this model to enroll (default 1).
	Replicas int `json:"replicas,omitempty"`
	// BRAMs scales the simulated pool (0 = the full chip).
	BRAMs int `json:"brams,omitempty"`
}

// CampaignRequest is the body of POST /v1/campaigns. Kind names an engine
// campaign kind; kind-specific knobs ride in the matching kind-scoped
// sub-object (Inference, Pattern, Thresholds, Temperature, Mitigation).
// The original flat v1 fields (Temps, Patterns, ProbeRuns, Net, TestSet,
// Seed) are still accepted and decode identically — deprecated, but every
// pre-redesign client keeps working. Setting the same knob both flat and
// scoped is a 400, never a silent pick. "mitigation" post-dates the
// redesign and is scoped-only.
type CampaignRequest struct {
	// Kind is the engine kind name: "characterization", "temperature-study",
	// "nn-inference", "pattern-study", "threshold-discovery", or
	// "mitigation".
	Kind string `json:"kind"`
	// Boards lists the fleet inventory.
	Boards []BoardSpec `json:"boards"`
	// Runs is the per-level read-pass count (0 = the paper's 100).
	Runs int `json:"runs,omitempty"`
	// TempC sets the on-board temperature of a single-temperature study;
	// 0 means the paper's 50 °C default (exact-zero and sub-zero
	// temperatures are outside the simulated rig's envelope).
	TempC float64 `json:"temp_c,omitempty"`

	// The kind-scoped sub-objects. Each is only accepted on its own kind.
	Inference   *InferenceSpec   `json:"inference,omitempty"`
	Pattern     *PatternSpec     `json:"pattern,omitempty"`
	Thresholds  *ThresholdsSpec  `json:"thresholds,omitempty"`
	Temperature *TemperatureSpec `json:"temperature,omitempty"`
	Mitigation  *MitigationSpec  `json:"mitigation,omitempty"`

	// Temps lists the ladder of a temperature study (empty = 50..80 °C);
	// each entry must be in (0, 125].
	//
	// Deprecated: set Temperature.Temps instead.
	Temps []float64 `json:"temps,omitempty"`
	// Patterns lists hex fill words for a pattern study; the words "random"
	// and "zero" select those fills. Empty = the paper's five.
	//
	// Deprecated: set Pattern.Fills instead.
	Patterns []string `json:"patterns,omitempty"`
	// ProbeRuns tunes threshold discovery's per-level probe (0 = 3).
	//
	// Deprecated: set Thresholds.ProbeRuns instead.
	ProbeRuns int `json:"probe_runs,omitempty"`
	// Net is the versioned wire form of the quantized network an
	// "nn-inference" campaign deploys (nn.MarshalWire). Raw JSON, so the
	// document nests without double encoding.
	//
	// Deprecated: set Inference.Net instead.
	Net json.RawMessage `json:"net,omitempty"`
	// TestSet is the wire form of the campaign's test set
	// (nn.MarshalTestSet).
	//
	// Deprecated: set Inference.TestSet instead.
	TestSet json.RawMessage `json:"test_set,omitempty"`
	// Seed is the placement seed of an nn-inference campaign (0 = 1).
	//
	// Deprecated: set Inference.Seed instead.
	Seed uint64 `json:"seed,omitempty"`
	// SkipCache forces re-characterization even when the store is warm.
	SkipCache bool `json:"skip_cache,omitempty"`
}

// InferenceSpec is the kind-scoped form of an nn-inference campaign's
// inputs: the network and test set as versioned wire documents plus the
// placement seed.
type InferenceSpec struct {
	Net     json.RawMessage `json:"net,omitempty"`
	TestSet json.RawMessage `json:"test_set,omitempty"`
	Seed    uint64          `json:"seed,omitempty"`
}

// PatternSpec is the kind-scoped form of a pattern study's inputs.
type PatternSpec struct {
	// Fills lists hex fill words, "random", or "zero" (empty = the
	// paper's five).
	Fills []string `json:"fills,omitempty"`
}

// ThresholdsSpec is the kind-scoped form of threshold discovery's inputs.
type ThresholdsSpec struct {
	ProbeRuns int `json:"probe_runs,omitempty"`
}

// TemperatureSpec is the kind-scoped form of a temperature study's inputs.
type TemperatureSpec struct {
	Temps []float64 `json:"temps,omitempty"`
}

// MitigationSpec selects a mitigation campaign's arms and ladder. Unlike
// the older kinds it has no flat equivalents — it shipped with the
// kind-scoped schema.
type MitigationSpec struct {
	// Arms is the subset of engine.MitigationArms() to run (empty = all
	// four); results always report in canonical order.
	Arms []string `json:"arms,omitempty"`
	// Voltages fixes the sweep ladder, strictly descending (empty = each
	// platform's nominal..Vcrash at the standard step).
	Voltages []float64 `json:"voltages,omitempty"`
	// IsoEnergy makes the DVFS arm search for the guardbanded point whose
	// energy matches each level's undervolted energy.
	IsoEnergy bool `json:"iso_energy,omitempty"`
}

// maxInferenceSamples caps an nn-inference submission's test-set size — MNIST's
// full 10 000-sample test split, the largest set the paper evaluates. Together
// with the nn wire caps on network size it bounds the work one
// unauthenticated POST can schedule.
const maxInferenceSamples = 10000

// scopedKindCheck rejects kind-scoped sub-objects riding the wrong kind —
// a client nesting them expects them to matter.
func (req *CampaignRequest) scopedKindCheck(kind engine.CampaignKind) error {
	checks := []struct {
		name string
		set  bool
		kind engine.CampaignKind
	}{
		{"inference", req.Inference != nil, engine.NNInference},
		{"pattern", req.Pattern != nil, engine.KindPattern},
		{"thresholds", req.Thresholds != nil, engine.KindThresholds},
		{"temperature", req.Temperature != nil, engine.TemperatureStudy},
		{"mitigation", req.Mitigation != nil, engine.KindMitigation},
	}
	for _, ck := range checks {
		if ck.set && kind != ck.kind {
			return badRequestf("%s{} only rides %q campaigns", ck.name, ck.kind)
		}
	}
	return nil
}

// foldScoped resolves each kind-scoped knob into its flat field, so the
// one flat compile path below serves both schemas and a scoped request can
// never decode differently from its flat equivalent. A knob set in both
// forms is a conflict — 400, never a silent pick.
func (req *CampaignRequest) foldScoped() error {
	if s := req.Inference; s != nil {
		if len(s.Net) > 0 {
			if len(req.Net) > 0 {
				return badRequestf("net set both flat and in inference{}: pick one")
			}
			req.Net = s.Net
		}
		if len(s.TestSet) > 0 {
			if len(req.TestSet) > 0 {
				return badRequestf("test_set set both flat and in inference{}: pick one")
			}
			req.TestSet = s.TestSet
		}
		if s.Seed != 0 {
			if req.Seed != 0 {
				return badRequestf("seed set both flat and in inference{}: pick one")
			}
			req.Seed = s.Seed
		}
	}
	if s := req.Pattern; s != nil && len(s.Fills) > 0 {
		if len(req.Patterns) > 0 {
			return badRequestf("fills set both flat (patterns) and in pattern{}: pick one")
		}
		req.Patterns = s.Fills
	}
	if s := req.Thresholds; s != nil && s.ProbeRuns != 0 {
		if req.ProbeRuns != 0 {
			return badRequestf("probe_runs set both flat and in thresholds{}: pick one")
		}
		req.ProbeRuns = s.ProbeRuns
	}
	if s := req.Temperature; s != nil && len(s.Temps) > 0 {
		if len(req.Temps) > 0 {
			return badRequestf("temps set both flat and in temperature{}: pick one")
		}
		req.Temps = s.Temps
	}
	return nil
}

// campaign compiles the request into an engine campaign. Validation errors
// are returned as *APIStatusError with a 400 status.
func (r *CampaignRequest) campaign() (engine.Campaign, error) {
	kind, err := engine.KindByName(r.Kind)
	if err != nil {
		return engine.Campaign{}, badRequestf("unknown campaign kind %q", r.Kind)
	}
	if err := r.scopedKindCheck(kind); err != nil {
		return engine.Campaign{}, err
	}
	// Compile from a normalized copy: scoped knobs fold into the flat
	// fields, then the pre-redesign flat path runs unchanged — a golden
	// flat request decodes bit-identically to what it always did.
	reqCopy := *r
	req := &reqCopy
	if err := req.foldScoped(); err != nil {
		return engine.Campaign{}, err
	}
	c := engine.Campaign{
		Kind:      kind,
		Sweep:     characterize.Options{Runs: req.Runs, OnBoardC: req.TempC},
		Temps:     req.Temps,
		ProbeRuns: req.ProbeRuns,
		Seed:      req.Seed,
		SkipCache: req.SkipCache,
	}
	if kind == engine.NNInference {
		if err := req.decodeInference(&c); err != nil {
			return engine.Campaign{}, err
		}
	} else {
		// Inference-only fields on another kind are rejected, not silently
		// ignored — a client setting them expects them to matter.
		if len(req.Net) > 0 || len(req.TestSet) > 0 {
			return engine.Campaign{}, badRequestf("net/test_set only ride %q campaigns", engine.NNInference)
		}
		if req.Seed != 0 {
			return engine.Campaign{}, badRequestf("seed only rides %q campaigns", engine.NNInference)
		}
	}
	// Every work-multiplying field is bounded: an unauthenticated POST must
	// not be able to schedule an effectively unbounded campaign.
	if req.Runs < 0 || req.Runs > 10000 {
		return engine.Campaign{}, badRequestf("runs %d out of range [0, 10000]", req.Runs)
	}
	if req.ProbeRuns < 0 || req.ProbeRuns > 1000 {
		return engine.Campaign{}, badRequestf("probe_runs %d out of range [0, 1000]", req.ProbeRuns)
	}
	if req.TempC < 0 || req.TempC > 125 {
		return engine.Campaign{}, badRequestf("temp_c %g out of range [0, 125]", req.TempC)
	}
	if len(req.Temps) > 16 {
		return engine.Campaign{}, badRequestf("%d temperatures exceed the 16-step ladder limit", len(req.Temps))
	}
	for _, tc := range req.Temps {
		// Explicit ladder entries exclude 0: OnBoardC==0 means "default
		// 50 °C" to the sweep's option normalization, so accepting it
		// would silently measure the wrong temperature.
		if tc <= 0 || tc > 125 {
			return engine.Campaign{}, badRequestf("temperature %g out of range (0, 125]", tc)
		}
	}
	if len(req.Patterns) > 16 {
		return engine.Campaign{}, badRequestf("%d patterns exceed the 16-fill limit", len(req.Patterns))
	}
	for _, pat := range req.Patterns {
		switch pat {
		case "random":
			c.Patterns = append(c.Patterns, characterize.Options{RandomFill: true})
		case "zero":
			c.Patterns = append(c.Patterns, characterize.Options{ZeroFill: true, PatternName: "16'h0000"})
		default:
			w, err := strconv.ParseUint(pat, 16, 16)
			if err != nil {
				return engine.Campaign{}, badRequestf("pattern %q is not a hex word, \"random\", or \"zero\"", pat)
			}
			if w == 0 {
				// Pattern 0 alone means "default" (0xFFFF) to the sweep's
				// option normalization; an explicit "0000" must measure the
				// all-zeros fill the client actually asked for.
				c.Patterns = append(c.Patterns, characterize.Options{ZeroFill: true, PatternName: "16'h0000"})
			} else {
				c.Patterns = append(c.Patterns, characterize.Options{Pattern: uint16(w)})
			}
		}
	}
	if kind == engine.KindMitigation {
		if m := req.Mitigation; m != nil {
			c.MitArms = m.Arms
			c.MitVoltages = m.Voltages
			c.MitIsoEnergy = m.IsoEnergy
		}
		// Engine-level validation runs here too, so a malformed arm set is
		// a 400 at the door instead of a failed job.
		if err := engine.ValidateMitigation(c.MitArms, c.MitVoltages); err != nil {
			return engine.Campaign{}, badRequestf("mitigation: %v", err)
		}
	}
	return c, nil
}

// decodeInference unpacks and cross-validates the request's network and
// test-set wire documents into the campaign. Every structural check (shape,
// bounds, word counts) happens in the nn decoders; here the two documents
// are checked against each other, since a network fed inputs of the wrong
// width or labels outside its output layer would fault at campaign time on
// every board.
func (req *CampaignRequest) decodeInference(c *engine.Campaign) error {
	if len(req.Net) == 0 || len(req.TestSet) == 0 {
		return badRequestf("%q campaigns need net and test_set wire documents", engine.NNInference)
	}
	q, err := nn.UnmarshalWire(req.Net)
	if err != nil {
		return badRequestf("net: %v", err)
	}
	xs, ys, err := nn.UnmarshalTestSet(req.TestSet)
	if err != nil {
		return badRequestf("test_set: %v", err)
	}
	if len(xs) > maxInferenceSamples {
		return badRequestf("test set has %d samples, limit %d", len(xs), maxInferenceSamples)
	}
	if got, want := len(xs[0]), q.Topology[0]; got != want {
		return badRequestf("test set has %d features but the network expects %d", got, want)
	}
	classes := q.Topology[len(q.Topology)-1]
	for i, y := range ys {
		if y >= classes {
			return badRequestf("label %d at sample %d outside the network's %d classes", y, i, classes)
		}
	}
	c.Net, c.TestX, c.TestY = q, xs, ys
	return nil
}

// ExpandBoards normalizes board specs into one explicit single-replica spec
// per enrolled board, in fleet order: platform names resolved, replica
// serials minted exactly as the engine would (the first replica keeps the
// reference serial, the rest get derived dies), BRAMs carried through
// verbatim. The expansion is the federation shard unit — a downstream daemon
// handed one expanded spec enrolls a board identical to the one a single
// daemon running the whole fleet would — and it is also what inventory
// itself builds on, so the two can never drift.
func ExpandBoards(specs []BoardSpec, maxBoards int) ([]BoardSpec, error) {
	if len(specs) == 0 {
		return nil, badRequestf("campaign needs at least one board spec")
	}
	var out []BoardSpec
	seen := make(map[string]bool) // platform|serial → enrolled
	for i, spec := range specs {
		p, err := platform.ByName(spec.Platform)
		if err != nil {
			return nil, badRequestf("boards[%d]: %v", i, err)
		}
		if spec.BRAMs < 0 {
			return nil, badRequestf("boards[%d]: negative brams", i)
		}
		if spec.Serial != "" {
			p = p.WithSerial(spec.Serial)
		}
		n := spec.Replicas
		if n == 0 {
			n = 1
		}
		if n < 0 {
			return nil, badRequestf("boards[%d]: negative replicas", i)
		}
		// Enforce the cap before Replicas materializes anything: a huge
		// replica count must be a 400, not a giant allocation.
		if n > maxBoards || len(out)+n > maxBoards {
			return nil, badRequestf("fleet exceeds the %d-board limit", maxBoards)
		}
		for _, rep := range p.Replicas(n) {
			// The same die enrolled twice would be double-weighted in the
			// cross-chip spread the campaign exists to measure.
			id := rep.Name + "|" + rep.Serial
			if seen[id] {
				return nil, badRequestf("boards[%d]: %s S/N %s enrolled more than once", i, rep.Name, rep.Serial)
			}
			seen[id] = true
			out = append(out, BoardSpec{Platform: rep.Name, Serial: rep.Serial, Replicas: 1, BRAMs: spec.BRAMs})
		}
	}
	return out, nil
}

// inventory expands the board specs into the fleet inventory.
func (req *CampaignRequest) inventory(maxBoards int) ([]platform.Platform, error) {
	flat, err := ExpandBoards(req.Boards, maxBoards)
	if err != nil {
		return nil, err
	}
	out := make([]platform.Platform, 0, len(flat))
	for _, spec := range flat {
		p, err := platform.ByName(spec.Platform)
		if err != nil {
			return nil, badRequestf("boards: %v", err)
		}
		if spec.BRAMs > 0 {
			p = p.Scaled(spec.BRAMs)
		}
		out = append(out, p.WithSerial(spec.Serial))
	}
	return out, nil
}

// Validate compiles the request without enrolling anything — the check a
// federation coordinator runs before sharding, so a bad submission is a 400
// at the front door instead of N downstream failures.
func (req *CampaignRequest) Validate(maxBoards int) error {
	if _, err := req.campaign(); err != nil {
		return err
	}
	_, err := req.inventory(maxBoards)
	return err
}

// JobState is a job's lifecycle phase.
type JobState string

// The job states, in lifecycle order.
const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCancelled
}

// NewInferenceRequest assembles the wire form of an NN-inference campaign:
// the quantized network and its test set are serialized into their versioned
// wire documents and embedded in the request. seed 0 means placement seed 1.
func NewInferenceRequest(boards []BoardSpec, q *nn.Quantized, xs [][]float64, ys []int, seed uint64) (CampaignRequest, error) {
	netDoc, err := q.MarshalWire()
	if err != nil {
		return CampaignRequest{}, err
	}
	tsDoc, err := nn.MarshalTestSet(xs, ys)
	if err != nil {
		return CampaignRequest{}, err
	}
	return CampaignRequest{
		Kind:   engine.NNInference.String(),
		Boards: boards,
		Inference: &InferenceSpec{
			Net:     netDoc,
			TestSet: tsDoc,
			Seed:    seed,
		},
	}, nil
}

// NewMitigationRequest assembles the wire form of a mitigation-comparison
// campaign. The kind is scoped-only: there are no flat fields to set.
func NewMitigationRequest(boards []BoardSpec, spec MitigationSpec) CampaignRequest {
	return CampaignRequest{
		Kind:       engine.KindMitigation.String(),
		Boards:     boards,
		Mitigation: &spec,
	}
}

// PatternStatus is one fill's outcome in a pattern-study job.
type PatternStatus struct {
	Name          string  `json:"name"`
	FaultsPerMbit float64 `json:"faults_per_mbit"`
	Flip10Share   float64 `json:"flip10_share"`
}

// BoardStatus is one board's outcome in a finished job, summarized for the
// wire (full sweeps stay in the store; this is the dashboard row).
type BoardStatus struct {
	Board         int     `json:"board"`
	Platform      string  `json:"platform"`
	Serial        string  `json:"serial"`
	FromCache     bool    `json:"from_cache,omitempty"`
	FaultsPerMbit float64 `json:"faults_per_mbit,omitempty"`
	VminV         float64 `json:"vmin_v,omitempty"`
	VcrashV       float64 `json:"vcrash_v,omitempty"`
	// IntVminV/IntVcrashV carry the VCCINT rail of a threshold-discovery
	// job (VminV/VcrashV then hold the VCCBRAM rail).
	IntVminV   float64 `json:"int_vmin_v,omitempty"`
	IntVcrashV float64 `json:"int_vcrash_v,omitempty"`
	// ZeroShare is the fraction of the board's BRAMs that never faulted
	// (characterization jobs) — the per-board term of the aggregate's
	// ZeroFaultShare, carried so shard results can be re-aggregated
	// bit-identically by a federation coordinator.
	ZeroShare float64         `json:"zero_share,omitempty"`
	Patterns  []PatternStatus `json:"patterns,omitempty"`
	// Inference is the board's accuracy-vs-voltage curve (nn-inference
	// jobs), deepest level last — the Fig. 11 data, per chip.
	Inference []InferencePoint `json:"inference,omitempty"`
	// Mitigation carries the board's per-arm comparison curves
	// (mitigation jobs), canonical arm order.
	Mitigation []MitigationArmStatus `json:"mitigation,omitempty"`
	Error      string                `json:"error,omitempty"`
}

// MitigationArmStatus is one arm's outcome on one board of a mitigation
// job: the full level curve plus the arm's min-safe voltage and the energy
// saving it buys there.
type MitigationArmStatus struct {
	Arm           string            `json:"arm"`
	MinSafeV      float64           `json:"min_safe_v"`
	EnergySavings float64           `json:"energy_savings"`
	Levels        []MitigationLevel `json:"levels"`
}

// MitigationLevel is one voltage step of a mitigation arm's curve.
type MitigationLevel struct {
	V             float64 `json:"v"`
	FaultsPerMbit float64 `json:"faults_per_mbit"`
	WordErrors    int     `json:"word_errors"`
	Accuracy      float64 `json:"accuracy"`
	EnergyJ       float64 `json:"energy_j"`
	FreqScale     float64 `json:"freq_scale"`
	// Corrected/Detected/Silent break down the ECC arm's decode outcomes.
	Corrected int `json:"corrected,omitempty"`
	Detected  int `json:"detected,omitempty"`
	Silent    int `json:"silent,omitempty"`
}

// InferencePoint is one voltage step of an nn-inference job's accuracy
// curve.
type InferencePoint struct {
	V           float64 `json:"v"`
	Error       float64 `json:"error"`
	WeightFault int     `json:"weight_fault"`
}

// boardRow projects one board's engine result onto its wire row.
// SampleFromStatus is its inverse for the fleet aggregate: the two are kept
// side by side so a kind that changes one changes the other.
func boardRow(r *engine.BoardResult) BoardStatus {
	bs := BoardStatus{
		Board: r.Board, Platform: r.Platform, Serial: r.Serial, FromCache: r.FromCache,
	}
	if r.Err != nil {
		bs.Error = r.Err.Error()
	}
	// Temperature studies leave Sweep nil and fill TempSweeps; the last
	// (hottest) sweep is the one the aggregate reports too.
	s := r.Sweep
	if s == nil && len(r.TempSweeps) > 0 {
		s = r.TempSweeps[len(r.TempSweeps)-1]
	}
	if s != nil && len(s.Levels) > 0 {
		bs.FaultsPerMbit = s.Final().FaultsPerMbit
		bs.VminV = engine.ObservedVmin(s)
		bs.VcrashV = s.Final().V
	}
	if th := r.BRAMThresholds; th != nil {
		bs.VminV, bs.VcrashV = th.Vmin, th.Vcrash
	}
	if th := r.IntThresholds; th != nil {
		bs.IntVminV, bs.IntVcrashV = th.Vmin, th.Vcrash
	}
	if r.FVM != nil {
		bs.ZeroShare = r.FVM.ZeroShare()
	}
	for _, pr := range r.Patterns {
		bs.Patterns = append(bs.Patterns, PatternStatus{
			Name: pr.Name, FaultsPerMbit: pr.FaultsPerMbit, Flip10Share: pr.Flip10Share,
		})
	}
	for _, ir := range r.Inference {
		bs.Inference = append(bs.Inference, InferencePoint{
			V: ir.V, Error: ir.Error, WeightFault: ir.WeightFault,
		})
	}
	for ai := range r.Mitigation {
		arm := &r.Mitigation[ai]
		as := MitigationArmStatus{
			Arm: arm.Arm, MinSafeV: arm.MinSafeV, EnergySavings: arm.EnergySavings,
		}
		for _, pt := range arm.Levels {
			as.Levels = append(as.Levels, MitigationLevel{
				V: pt.V, FaultsPerMbit: pt.FaultsPerMbit, WordErrors: pt.WordErrors,
				Accuracy: pt.Accuracy, EnergyJ: pt.EnergyJ, FreqScale: pt.FreqScale,
				Corrected: pt.Corrected, Detected: pt.Detected, Silent: pt.Silent,
			})
		}
		bs.Mitigation = append(bs.Mitigation, as)
	}
	return bs
}

// SampleFromStatus rebuilds a board's aggregate contribution from its wire
// row of a campaign of the named kind — the inverse of boardRow, matched
// case by case against engine.BoardResult.Sample, so a federation
// coordinator folding shard rows gets the aggregate a single daemon
// computes, bit for bit.
func SampleFromStatus(kind string, bs BoardStatus) engine.BoardSample {
	s := engine.BoardSample{Failed: bs.Error != "", FromCache: bs.FromCache}
	if s.Failed {
		return s
	}
	switch kind {
	case engine.Characterization.String():
		// Sweep final level + the board's FVM zero-fault share.
		if bs.VcrashV != 0 {
			s.Faults = []float64{bs.FaultsPerMbit}
			s.Vmins = []float64{bs.VminV}
			s.Vcrashes = []float64{bs.VcrashV}
		}
		s.ZeroShares = []float64{bs.ZeroShare}
	case engine.TemperatureStudy.String():
		// The row reports the last (hottest) sweep, exactly what
		// finalSweep feeds the in-process aggregate.
		if bs.VcrashV != 0 {
			s.Faults = []float64{bs.FaultsPerMbit}
			s.Vmins = []float64{bs.VminV}
			s.Vcrashes = []float64{bs.VcrashV}
		}
	case engine.KindPattern.String():
		if len(bs.Patterns) > 0 {
			worst := bs.Patterns[0].FaultsPerMbit
			for _, pr := range bs.Patterns[1:] {
				if pr.FaultsPerMbit > worst {
					worst = pr.FaultsPerMbit
				}
			}
			s.Faults = []float64{worst}
		}
	case engine.KindThresholds.String():
		// The wire Vmin/Vcrash of a threshold job are the BRAM rail's.
		s.Vmins = []float64{bs.VminV}
		s.Vcrashes = []float64{bs.VcrashV}
	case engine.NNInference.String():
		if n := len(bs.Inference); n > 0 {
			s.InferErrs = []float64{bs.Inference[n-1].Error}
		}
	case engine.KindMitigation.String():
		// Per-arm scalars in the board's arm order, plus the unprotected
		// arm's deepest level into the fleet's faults/Mbit spread — the
		// exact shape BoardResult.Sample builds in process.
		for i := range bs.Mitigation {
			arm := &bs.Mitigation[i]
			s.Mitigation = append(s.Mitigation, engine.MitigationSample{
				Arm: arm.Arm, MinSafeV: arm.MinSafeV, EnergySavings: arm.EnergySavings,
			})
			if arm.Arm == engine.ArmUnprotected && len(arm.Levels) > 0 {
				s.Faults = append(s.Faults, arm.Levels[len(arm.Levels)-1].FaultsPerMbit)
			}
		}
	}
	return s
}

// JobStatus is the wire form of a job, returned by submit and job queries.
type JobStatus struct {
	ID       string   `json:"id"`
	Kind     string   `json:"kind"`
	State    JobState `json:"state"`
	Boards   int      `json:"boards"`
	Progress float64  `json:"progress"` // 0..100

	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`

	Error string `json:"error,omitempty"`

	Aggregate    *engine.Aggregate `json:"aggregate,omitempty"`
	BoardResults []BoardStatus     `json:"board_results,omitempty"`

	// Shards and Retries describe how a federated job was spread across
	// downstream daemons; both stay empty on a single daemon. Retries lists
	// every shard that had to be re-run on a survivor after its original
	// daemon failed mid-campaign.
	Shards  []ShardStatus `json:"shards,omitempty"`
	Retries []ShardRetry  `json:"retries,omitempty"`
}

// ShardStatus summarizes one downstream daemon's share of a federated job.
type ShardStatus struct {
	// Daemon is the downstream base URL the shard ran on.
	Daemon string `json:"daemon"`
	// Boards is how many of the job's boards this daemon executed.
	Boards int `json:"boards"`
	// Jobs lists the downstream job ids the shard was split into.
	Jobs []string `json:"jobs,omitempty"`
	// Stolen counts chunks this daemon pulled from another daemon's queue —
	// the work-stealing telemetry.
	Stolen int `json:"stolen,omitempty"`
}

// ShardRetry records one chunk of boards re-run elsewhere after its daemon
// died or refused mid-campaign.
type ShardRetry struct {
	From   string `json:"from"` // daemon the chunk was assigned to
	To     string `json:"to"`   // survivor that re-ran it
	Boards int    `json:"boards"`
	Reason string `json:"reason"`
}

// JobEvent is one server-sequenced campaign event, streamed over SSE and
// kept in the job's replayable log. Board events mirror engine.Event; the
// terminal "campaign" event closes every per-job stream. Seq orders events
// within one job; GSeq is the server-wide total order the /v1/events
// firehose streams and resumes by, and Job names the job the event belongs
// to — both persist in the journal, so cursors survive restarts.
//
// A "truncated" event is synthetic: the daemon's journal dropped the job's
// event history through Seq (the -job-live-segs cap evicted it mid-flight,
// or -job-retain trimmed it once the job finished), so a resume from
// earlier than that cannot be satisfied by anyone. Clients should treat it
// as "events ≤ Seq are gone" and continue from Seq+1.
//
// A "journal_degraded" event marks that a journal write for this job failed
// (full or failing disk): the job keeps running and the live stream stays
// authoritative, but event history at or before this point may not survive
// a daemon restart. Emitted at most once per job. Federated jobs
// additionally use "retry" for a chunk re-run on a survivor.
type JobEvent struct {
	Seq  int    `json:"seq"`
	GSeq int64  `json:"gseq,omitempty"`
	Job  string `json:"job,omitempty"`
	// Type: start | level | done | failed | retry | campaign | truncated |
	// journal_degraded.
	Type      string  `json:"type"`
	Board     int     `json:"board,omitempty"`
	Platform  string  `json:"platform,omitempty"`
	Serial    string  `json:"serial,omitempty"`
	FromCache bool    `json:"from_cache,omitempty"`
	Faults    float64 `json:"faults_per_mbit,omitempty"`
	// V is the voltage of a mitigation "level" event.
	V float64 `json:"v,omitempty"`
	// InferError is the board's classification error at the deepest
	// inference level (done events of nn-inference jobs).
	InferError float64  `json:"infer_error,omitempty"`
	Progress   float64  `json:"progress"`
	State      JobState `json:"state,omitempty"` // campaign event only
	Error      string   `json:"error,omitempty"`
}

// FVMInfo is one stored characterization, as listed by GET /v1/fvms.
type FVMInfo struct {
	ID        string  `json:"id"`
	Platform  string  `json:"platform"`
	Serial    string  `json:"serial"`
	TempC     float64 `json:"temp_c"`
	Runs      int     `json:"runs"`
	Options   string  `json:"options"`
	Sites     int     `json:"sites"`
	ZeroShare float64 `json:"zero_share"`
	MaxRate   float64 `json:"max_rate"`
	VFromV    float64 `json:"v_from_v"`
	VToV      float64 `json:"v_to_v"`
}

// VminInfo is one board's operating window, as computed by GET /v1/vmin from
// its stored sweep.
type VminInfo struct {
	Platform      string  `json:"platform"`
	Serial        string  `json:"serial"`
	TempC         float64 `json:"temp_c"`
	VminV         float64 `json:"vmin_v"`
	VcrashV       float64 `json:"vcrash_v"`
	FaultsPerMbit float64 `json:"faults_per_mbit"` // at the deepest level
}

// FVMList is the degraded-mode envelope of GET /v1/fvms. A lone daemon (and
// a federation with every downstream answering) returns the bare array; a
// federation coordinator that could not reach every daemon wraps the union
// of the survivors' answers in this envelope with Partial set, so a client
// can tell "the fleet has 12 FVMs" from "the 2 daemons I could reach have
// 12 FVMs". Missing lists the unreachable daemons' base URLs.
type FVMList struct {
	FVMs    []FVMInfo `json:"fvms"`
	Partial bool      `json:"partial,omitempty"`
	Missing []string  `json:"missing,omitempty"`
}

// VminList is the degraded-mode envelope of GET /v1/vmin, mirroring FVMList.
type VminList struct {
	Vmin    []VminInfo `json:"vmin"`
	Partial bool       `json:"partial,omitempty"`
	Missing []string   `json:"missing,omitempty"`
}

// APIStatusError is an error that carries an HTTP status: a non-2xx
// response a Client received, or a refusal a handler answers through
// WriteError, which puts Message on the wire.
type APIStatusError struct {
	StatusCode int
	Message    string
}

func (e *APIStatusError) Error() string {
	return fmt.Sprintf("service returned %d: %s", e.StatusCode, e.Message)
}

func badRequestf(format string, args ...any) *APIStatusError {
	return &APIStatusError{StatusCode: http.StatusBadRequest, Message: fmt.Sprintf(format, args...)}
}

// ErrorBody is the one JSON error envelope every non-2xx response uses —
// daemon and federation coordinator alike, admission-control 503s
// included. Clients can always decode {"error": "..."}.
type ErrorBody struct {
	Error string `json:"error"`
}
