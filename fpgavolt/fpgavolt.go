// Package fpgavolt is the public API of the reproduction of "Comprehensive
// Evaluation of Supply Voltage Underscaling in FPGA on-Chip Memories"
// (Salami, Unsal, Cristal Kestelman — MICRO 2018).
//
// It bundles the repository's subsystems behind one import:
//
//   - Simulated boards of the paper's four platforms (VC707, ZC702, and the
//     two KC705 samples), complete with PMBus-controlled voltage regulation,
//     calibrated BRAM fault behavior, power, and thermals.
//   - The characterization harness of Section II (voltage sweeps, threshold
//     discovery, data-pattern / stability / temperature studies).
//   - Fault Variation Maps with k-means vulnerability classes.
//   - The Section III NN accelerator pipeline: synthetic benchmarks,
//     training, 16-bit per-layer quantization, deployment into BRAMs, and
//     the ICBP placement mitigation.
//   - The experiment registry that regenerates every table and figure.
//   - The fleet campaign engine: the same studies sharded across N boards
//     (any mix of platforms and serials) with bounded concurrency, per-board
//     progress events, cross-chip variation aggregation, and an FVM cache
//     that lets repeated campaigns skip re-characterization.
//   - A durable FVM store (content-addressed JSON blobs on disk) that backs
//     the cache as a write-through second level, so characterization work
//     survives process restarts — with summary-carrying index listings,
//     per-board GC, and a job journal riding alongside.
//   - The campaign service: an HTTP JSON daemon (cmd/fpgavoltd) with an
//     async job queue, SSE progress streams (per-job and a fleet-wide
//     /v1/events firehose), a journal-backed job table that survives
//     restarts, store-backed FVM/Vmin query endpoints with admin delete,
//     and a typed Client. Every campaign kind rides the API — including NN
//     inference, whose quantized network and test set travel as versioned
//     wire documents (Quantized.MarshalWire / MarshalTestSet).
//
// A minimal session:
//
//	ctx := context.Background()
//	b := fpgavolt.OpenBoard(fpgavolt.VC707().Scaled(200))
//	sweep, err := fpgavolt.Characterize(ctx, b, fpgavolt.SweepOptions{Runs: 20})
//	// sweep.Final().FaultsPerMbit ≈ 652 for VC707, as in the paper
//
// A fleet campaign across all four platforms (two samples each):
//
//	var boards []fpgavolt.Platform
//	for _, p := range fpgavolt.Platforms() {
//		boards = append(boards, p.Scaled(200).Replicas(2)...)
//	}
//	fleet := fpgavolt.NewFleet(boards, fpgavolt.FleetOptions{Workers: 4})
//	res, err := fpgavolt.RunCampaign(ctx, fleet, fpgavolt.Campaign{
//		Kind: fpgavolt.CampaignCharacterization,
//		Sweep: fpgavolt.SweepOptions{Runs: 20},
//	})
//	// res.Agg.FaultsPerMbit holds the cross-chip min/median/max spread;
//	// running the same campaign again is served from the FVM cache.
package fpgavolt

import (
	"context"
	"io"
	"net/http"

	"repro/internal/accel"
	"repro/internal/board"
	"repro/internal/characterize"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/fed"
	"repro/internal/fvm"
	"repro/internal/nn"
	"repro/internal/placement"
	"repro/internal/platform"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/xdc"
)

// Core hardware types.
type (
	// Platform is one of the paper's FPGA boards (Table I).
	Platform = platform.Platform
	// Board is a fully assembled test rig (Fig. 2).
	Board = board.Board
	// FVM is a chip's Fault Variation Map (Fig. 6).
	FVM = fvm.Map
	// Thresholds holds a rail's discovered Vmin/Vcrash (Fig. 1).
	Thresholds = characterize.Thresholds
	// Sweep is a completed undervolting characterization (Fig. 3).
	Sweep = characterize.Sweep
	// SweepOptions tunes a characterization run (Listing 1 parameters).
	SweepOptions = characterize.Options
	// PatternResult is one row of the data-pattern study (Fig. 4).
	PatternResult = characterize.PatternResult
)

// NN pipeline types.
type (
	// Dataset is a train/test split of a benchmark task.
	Dataset = dataset.Dataset
	// DatasetOptions sizes a synthetic benchmark.
	DatasetOptions = dataset.Options
	// Network is a float fully-connected classifier.
	Network = nn.Network
	// TrainOptions tunes the SGD trainer.
	TrainOptions = nn.TrainOptions
	// Quantized is the 16-bit fixed-point deployment form of a network.
	Quantized = nn.Quantized
	// Accelerator is a compiled-and-loaded NN design on a board.
	Accelerator = accel.Accelerator
	// InferenceResult is one voltage point of an accelerator sweep (Fig. 11).
	InferenceResult = accel.InferenceResult
	// ConstraintSet is a set of Pblock placement constraints (Fig. 12).
	ConstraintSet = xdc.ConstraintSet
	// ICBPOptions tunes the ICBP constraint generator.
	ICBPOptions = placement.ICBPOptions
)

// Fleet campaign types.
type (
	// Fleet is a pool of boards campaigns run across.
	Fleet = engine.Fleet
	// FleetOptions tunes a fleet's concurrency and cache.
	FleetOptions = engine.Options
	// Campaign describes one fleet-wide study.
	Campaign = engine.Campaign
	// CampaignKind selects the study a campaign runs.
	CampaignKind = engine.CampaignKind
	// CampaignResult is a completed campaign with its cross-chip aggregate.
	CampaignResult = engine.CampaignResult
	// FleetBoardResult is one board's outcome within a campaign.
	FleetBoardResult = engine.BoardResult
	// FleetAggregate is the cross-chip variation summary.
	FleetAggregate = engine.Aggregate
	// FleetEvent is a per-board campaign progress notification.
	FleetEvent = engine.Event
	// FleetCacheStats reports FVM cache effectiveness.
	FleetCacheStats = engine.CacheStats
	// FleetCache is the two-level FVM cache; share one across fleets (via
	// FleetOptions.Cache) to collapse concurrent duplicate
	// characterizations into single sweeps.
	FleetCache = engine.FVMCache
	// PlacementStats reports placement-cache effectiveness.
	PlacementStats = engine.PlacementStats
)

// Store and service types.
type (
	// FVMStore is a durable, concurrency-safe characterization repository;
	// set FleetOptions.Store (or ServiceConfig.Store) to make campaigns
	// survive restarts.
	FVMStore = store.Store
	// DiskStore is the FVMStore implementation: content-addressed blobs
	// plus the campaign job journal under one root directory.
	DiskStore = store.Disk
	// FVMRecord is one stored characterization product (sweep + FVM).
	FVMRecord = store.Record
	// FVMStoreKey identifies one stored measurement.
	FVMStoreKey = store.Key
	// FVMStoreMeta is one store index entry: id, key, and cached summary.
	FVMStoreMeta = store.Meta
	// FVMSummary is the index-cached shape of a stored record, which lets
	// listings answer without reading blobs.
	FVMSummary = store.Summary
	// Service is the campaign daemon: job queue, workers, HTTP handlers.
	Service = server.Server
	// ServiceConfig tunes a Service.
	ServiceConfig = server.Config
	// Client is the typed HTTP client for a running Service.
	Client = server.Client
	// APIStatusError is a non-2xx service response, carrying the HTTP
	// status so clients can distinguish admission control (503) from
	// hard failures.
	APIStatusError = server.APIStatusError
	// CampaignRequest is the wire form of a campaign submission.
	CampaignRequest = server.CampaignRequest
	// BoardSpec requests boards of one platform model.
	BoardSpec = server.BoardSpec
	// JobStatus is a job's wire status.
	JobStatus = server.JobStatus
	// JobState is a job's lifecycle phase.
	JobState = server.JobState
	// JobEvent is one SSE-streamed campaign event.
	JobEvent = server.JobEvent
	// FVMInfo summarizes one stored FVM for listings.
	FVMInfo = server.FVMInfo
	// VminInfo is one board's stored operating window.
	VminInfo = server.VminInfo
	// InferencePoint is one voltage step of an nn-inference job's accuracy
	// curve, as served in job details.
	InferencePoint = server.InferencePoint
	// ShardStatus summarizes one downstream daemon's share of a federated
	// job.
	ShardStatus = server.ShardStatus
	// ShardRetry records one shard re-run on a survivor after its daemon
	// died mid-campaign.
	ShardRetry = server.ShardRetry
	// Federation is the federated control plane: a coordinator that fronts
	// many Services behind the same /v1 API, sharding campaigns across them
	// by consistent hashing with work-stealing and failover.
	Federation = fed.Coordinator
	// FederationConfig tunes a Federation.
	FederationConfig = fed.Config
)

// The job lifecycle states a Service reports.
const (
	JobQueued    = server.JobQueued
	JobRunning   = server.JobRunning
	JobDone      = server.JobDone
	JobFailed    = server.JobFailed
	JobCancelled = server.JobCancelled
)

// The fleet campaign kinds.
const (
	// CampaignCharacterization sweeps and FVM-maps every board.
	CampaignCharacterization = engine.Characterization
	// CampaignTemperature runs the Fig. 8 ladder on every board.
	CampaignTemperature = engine.TemperatureStudy
	// CampaignInference sweeps NN inference accuracy on every board.
	CampaignInference = engine.NNInference
	// CampaignPatterns runs the Fig. 4 data-pattern study on every board.
	CampaignPatterns = engine.KindPattern
	// CampaignThresholds discovers both rails' Vmin/Vcrash on every board.
	CampaignThresholds = engine.KindThresholds
	// CampaignMitigation races the paper's mitigation arms — unprotected,
	// SECDED ECC scrubbing, ICBP placement, and guardbanded DVFS — down one
	// shared voltage ladder on every board (Section IV).
	CampaignMitigation = engine.KindMitigation
)

// The fleet event kinds a campaign streams per board.
const (
	FleetEventStart  = engine.EventBoardStart
	FleetEventLevel  = engine.EventLevel
	FleetEventDone   = engine.EventBoardDone
	FleetEventFailed = engine.EventBoardFailed
)

// Mitigation campaign types.
type (
	// MitigationSpec is the kind-scoped wire knobs of a mitigation campaign.
	MitigationSpec = server.MitigationSpec
	// MitigationArm is one protection scheme's full per-level curve plus its
	// min-safe voltage and energy savings, as held in a FleetBoardResult.
	MitigationArm = engine.MitigationArm
	// MitigationPoint is one (arm, voltage) measurement.
	MitigationPoint = engine.MitigationPoint
	// MitigationAggregate is the cross-chip spread of one arm's min-safe
	// voltage and energy savings.
	MitigationAggregate = engine.MitigationAggregate
	// MitigationArmStatus is the wire form of one arm's curve in a JobStatus.
	MitigationArmStatus = server.MitigationArmStatus
	// MitigationLevel is the wire form of one MitigationPoint.
	MitigationLevel = server.MitigationLevel
)

// The mitigation arms a CampaignMitigation can race, in canonical order.
const (
	ArmUnprotected = engine.ArmUnprotected
	ArmECC         = engine.ArmECC
	ArmICBP        = engine.ArmICBP
	ArmDVFS        = engine.ArmDVFS
)

// MitigationArms returns all four arms in canonical order.
func MitigationArms() []string { return engine.MitigationArms() }

// Experiment framework types.
type (
	// Experiment reproduces one table or figure.
	Experiment = experiments.Experiment
	// ExperimentConfig scales an experiment run.
	ExperimentConfig = experiments.Config
	// ExperimentResult is an experiment's tables/figures/comparisons.
	ExperimentResult = experiments.Result
)

// VC707 returns the Virtex-7 performance-optimized platform.
func VC707() Platform { return platform.VC707() }

// ZC702 returns the Zynq-7000 hardware/software platform.
func ZC702() Platform { return platform.ZC702() }

// KC705A returns the first power-optimized Kintex-7 sample.
func KC705A() Platform { return platform.KC705A() }

// KC705B returns the second, identical-model Kintex-7 sample.
func KC705B() Platform { return platform.KC705B() }

// Platforms returns all four studied platforms in the paper's order.
func Platforms() []Platform { return platform.All() }

// PlatformByName resolves "VC707", "ZC702", "KC705-A" or "KC705-B".
func PlatformByName(name string) (Platform, error) { return platform.ByName(name) }

// OpenBoard assembles a simulated board for the platform: chip (with its
// serial-derived fault population), regulator, serial link, heat chamber,
// and power meter.
func OpenBoard(p Platform) *Board { return board.New(p) }

// Characterize runs the Listing 1 methodology: pattern fill, 10 mV downward
// sweep, ~100 reads per level, host-side fault analysis.
func Characterize(ctx context.Context, b *Board, opts SweepOptions) (*Sweep, error) {
	return characterize.Run(ctx, b, opts)
}

// DiscoverBRAMThresholds locates VCCBRAM's Vmin and Vcrash (Fig. 1a).
func DiscoverBRAMThresholds(ctx context.Context, b *Board, probeRuns int) (Thresholds, error) {
	return characterize.DiscoverBRAMThresholds(ctx, b, probeRuns)
}

// DiscoverIntThresholds locates VCCINT's Vmin and Vcrash (Fig. 1b).
func DiscoverIntThresholds(ctx context.Context, b *Board) (Thresholds, error) {
	return characterize.DiscoverIntThresholds(ctx, b)
}

// PatternStudy measures fault rates for several data patterns at a fixed
// voltage (Fig. 4).
func PatternStudy(ctx context.Context, b *Board, v float64, patterns []SweepOptions, runs int) ([]PatternResult, error) {
	return characterize.RunPatternStudy(ctx, b, v, patterns, runs)
}

// TemperatureStudy sweeps voltage at several on-board temperatures (Fig. 8).
func TemperatureStudy(ctx context.Context, b *Board, temps []float64, opts SweepOptions) ([]*Sweep, error) {
	return characterize.TemperatureStudy(ctx, b, temps, opts)
}

// ExtractFVM characterizes the board and assembles its Fault Variation Map
// at the deepest voltage level.
func ExtractFVM(ctx context.Context, b *Board, runs, workers int) (*FVM, error) {
	s, err := characterize.Run(ctx, b, characterize.Options{Runs: runs, Workers: workers})
	if err != nil {
		return nil, err
	}
	return fvm.FromSweep(b.Platform, s)
}

// LoadFVM reads a map saved with FVM.Save.
func LoadFVM(r io.Reader) (*FVM, error) { return fvm.Load(r) }

// Benchmark generates one of the paper's benchmarks ("mnist", "forest",
// "reuters") as a deterministic synthetic dataset.
func Benchmark(name string, opts DatasetOptions) (*Dataset, error) {
	return dataset.ByName(name, opts)
}

// NewNetwork builds a fully-connected classifier with the given topology.
func NewNetwork(topology []int, key string) (*Network, error) { return nn.New(topology, key) }

// PaperTopology returns the Table III network shape.
func PaperTopology() []int { return nn.PaperTopology() }

// QuantizeNetwork converts a trained network to its 16-bit per-layer
// minimum-precision fixed-point form (Fig. 9).
func QuantizeNetwork(n *Network) *Quantized { return nn.Quantize(n) }

// WireVersion is the current version of the nn wire format the service and
// clients exchange (network and test-set documents).
const WireVersion = nn.WireVersion

// UnmarshalQuantized decodes a network wire document produced by
// Quantized.MarshalWire — the versioned form an nn-inference campaign ships
// to a remote service. Decoding is strict: malformed topology, formats, or
// word counts error rather than yielding a partial network.
func UnmarshalQuantized(data []byte) (*Quantized, error) { return nn.UnmarshalWire(data) }

// MarshalTestSet serializes an aligned test set into its versioned wire
// form (float32 inputs, base64-packed) for an nn-inference submission.
func MarshalTestSet(xs [][]float64, ys []int) ([]byte, error) { return nn.MarshalTestSet(xs, ys) }

// UnmarshalTestSet decodes a MarshalTestSet document. Evaluating the
// decoded copy locally is what makes a local run bit-identical to the
// service's (inputs narrow to float32 on the wire).
func UnmarshalTestSet(data []byte) ([][]float64, []int, error) { return nn.UnmarshalTestSet(data) }

// NewInferenceRequest assembles the wire form of an nn-inference campaign
// submission: the quantized network and test set ride the request as
// versioned wire documents. Submit it with Client.Submit, or use
// Client.SubmitInference to do both steps at once.
func NewInferenceRequest(boards []BoardSpec, q *Quantized, xs [][]float64, ys []int, seed uint64) (CampaignRequest, error) {
	return server.NewInferenceRequest(boards, q, xs, ys, seed)
}

// NewMitigationRequest assembles the wire form of a mitigation campaign:
// every board races the requested arms (all four when spec.Arms is empty)
// down one shared voltage ladder. Submit it with Client.Submit, or use
// Client.SubmitMitigation to do both steps at once.
func NewMitigationRequest(boards []BoardSpec, spec MitigationSpec) CampaignRequest {
	return server.NewMitigationRequest(boards, spec)
}

// BuildAccelerator compiles and loads an NN design onto a board; cs may be
// nil for the default placement, or the output of ICBPConstraints.
func BuildAccelerator(b *Board, q *Quantized, cs *ConstraintSet, seed uint64) (*Accelerator, error) {
	return accel.Build(b, q, cs, seed)
}

// ICBPConstraints derives the Pblock constraints of the paper's mitigation:
// the most vulnerable layer's BRAMs are pinned to the FVM's safest sites.
func ICBPConstraints(m *FVM, q *Quantized, opts ICBPOptions) (*ConstraintSet, error) {
	d := placement.BuildDesign("nn", q)
	return placement.ICBPConstraints(m, d, q, opts)
}

// NewFleet assembles a fleet over the given board inventory. Use
// Platform.Replicas or Platform.WithSerial to mint distinct samples of one
// chip model.
func NewFleet(platforms []Platform, opts FleetOptions) *Fleet {
	return engine.NewFleet(platforms, opts)
}

// RunCampaign executes the campaign across every fleet board concurrently.
// Per-board failures are recorded in their FleetBoardResult; cancelling the
// context stops the whole fleet promptly with ctx.Err().
func RunCampaign(ctx context.Context, f *Fleet, c Campaign) (*CampaignResult, error) {
	return f.RunCampaign(ctx, c)
}

// ObservedVmin returns the lowest voltage level of a sweep that stayed
// fault-free — the board's empirical Vmin, the per-chip quantity whose
// fleet-wide spread a campaign aggregates.
func ObservedVmin(s *Sweep) float64 { return engine.ObservedVmin(s) }

// OpenDiskStore opens (or initializes) a durable FVM store rooted at dir.
// Pass it in FleetOptions.Store to let campaigns survive restarts, or in
// ServiceConfig.Store to back a Service. Close it after its last user.
func OpenDiskStore(dir string) (*DiskStore, error) { return store.OpenDisk(dir) }

// NewFleetCache builds a standalone FVM cache, optionally store-backed, for
// sharing across fleets via FleetOptions.Cache (st may be nil).
func NewFleetCache(capacity int, st FVMStore) *FleetCache {
	c := engine.NewFVMCache(capacity)
	if st != nil {
		c.SetBacking(st)
	}
	return c
}

// NewService assembles a campaign service over cfg.Store and starts its
// worker pool. Serve its Handler with net/http; stop it with Shutdown.
func NewService(cfg ServiceConfig) (*Service, error) { return server.New(cfg) }

// NewServiceClient returns a typed client for the service at base (e.g.
// "http://127.0.0.1:8080"). hc may be nil for http.DefaultClient; streaming
// requires a client without a global timeout.
func NewServiceClient(base string, hc *http.Client) *Client { return server.NewClient(base, hc) }

// NewFederation assembles a federated control plane over running Services.
// The coordinator serves the same /v1 surface a single Service does, so
// NewServiceClient speaks to it unchanged.
func NewFederation(cfg FederationConfig) (*Federation, error) { return fed.New(cfg) }

// Experiments returns the full registry in the paper's presentation order.
func Experiments() []Experiment { return experiments.All() }

// ExperimentByID resolves an experiment id like "fig3-fault-power".
func ExperimentByID(id string) (Experiment, error) { return experiments.ByID(id) }

// RunAllExperiments regenerates every table and figure, streaming rendered
// results to w (which may be nil).
func RunAllExperiments(ctx context.Context, cfg ExperimentConfig, w io.Writer) ([]*ExperimentResult, error) {
	return experiments.RunAll(ctx, cfg, w)
}
