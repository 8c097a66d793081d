package engine

import (
	"context"
	"encoding/json"
	"path/filepath"
	"testing"

	"repro/internal/characterize"
	"repro/internal/dataset"
	"repro/internal/golden"
	"repro/internal/nn"
	"repro/internal/platform"
)

// goldenFleet is the fixed inventory the science goldens run on: the
// reference serial of each platform at 24 sites, plus the full-chip ZC702.
// Its 280 sites divide evenly by neither the scan worker counts nor the
// scan's claim block, so the goldens also pin the ragged edge of a pass.
func goldenFleet() []platform.Platform {
	var ps []platform.Platform
	for _, p := range platform.All() {
		ps = append(ps, p.Scaled(24))
	}
	return append(ps, platform.ZC702())
}

// goldenCampaign returns the campaign each kind's golden records. NN
// training pins its worker count: batch gradients are summed per worker
// shard, so the trained weights depend on it.
func goldenCampaign(t *testing.T, kind CampaignKind) Campaign {
	c := Campaign{Kind: kind, Sweep: characterize.Options{Runs: 4}}
	switch kind {
	case TemperatureStudy:
		c.Temps = []float64{50, 80}
	case NNInference:
		ds := dataset.MNISTLike(dataset.Options{
			TrainSamples: 600, TestSamples: 150, Features: 196, Classes: 10,
		})
		net, err := nn.New([]int{196, 32, 10}, "engine-golden")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := net.Train(ds.TrainX, ds.TrainY, nn.TrainOptions{Epochs: 4, LearnRate: 0.3, Workers: 2}); err != nil {
			t.Fatal(err)
		}
		c.Net, c.TestX, c.TestY = nn.Quantize(net), ds.TestX, ds.TestY
	}
	return c
}

// TestCampaignGolden pins the science of every campaign kind bit for bit:
// the aggregate and every board row of a RunCampaign over goldenFleet, with
// floats in full precision, must match testdata/golden/<kind>.json. A
// change that only reschedules work must leave every byte alone; rewrite
// the files with -update only for an intended change of the numbers.
func TestCampaignGolden(t *testing.T) {
	for _, kind := range Kinds() {
		t.Run(kind.String(), func(t *testing.T) {
			f := NewFleet(goldenFleet(), Options{Workers: 2})
			res, err := f.RunCampaign(context.Background(), goldenCampaign(t, kind))
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range res.Boards {
				if r.Err != nil {
					t.Fatalf("board %d (%s): %v", i, r.Serial, r.Err)
				}
			}
			got, err := json.MarshalIndent(struct {
				Kind   string
				Agg    Aggregate
				Boards []BoardResult
			}{kind.String(), res.Agg, res.Boards}, "", " ")
			if err != nil {
				t.Fatal(err)
			}
			golden.Check(t, filepath.Join("testdata", "golden", kind.String()+".json"), append(got, '\n'))
		})
	}
}
