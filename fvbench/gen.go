package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/fpgavolt"
)

// rng is splitmix64, the generator's only source of randomness: the seed
// fixes every serial, every job's board order and therefore every request
// body, byte for byte.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// perm returns a seeded permutation of [0, n).
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// derive returns a generator for one named stream of the seed, so adding a
// draw to one stream never shifts another.
func derive(seed uint64, stream string) *rng {
	r := &rng{s: seed}
	for _, c := range []byte(stream) {
		r.s ^= uint64(c)
		r.next()
	}
	return r
}

// platforms are the paper's four boards (Table I), in the order a job lists
// them before its seeded shuffle.
var platforms = []string{"VC707", "ZC702", "KC705-A", "KC705-B"}

// sweepRuns is the read passes per voltage level of every characterization
// the benchmark requests.
const sweepRuns = 20

// serial mints a die serial no other job of the run uses: the tag and the
// job/board indices make it unique, the seeded bits make it a die no earlier
// seed has measured.
func serial(r *rng, tag string, job, board int) string {
	return fmt.Sprintf("%s%05d%c-%010x", tag, job, 'a'+board, r.next()>>24)
}

// coldJob is sweep-cold's job idx: one never-seen full-chip die of each
// platform, in a seeded order.
func coldJob(seed uint64, idx int) fpgavolt.CampaignRequest {
	r := derive(seed, fmt.Sprintf("sweep-cold/%d", idx))
	order := []int{0, 1, 2, 3}
	for i := len(order) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	boards := make([]fpgavolt.BoardSpec, 0, len(order))
	for k, p := range order {
		boards = append(boards, fpgavolt.BoardSpec{Platform: platforms[p], Serial: serial(r, "c", idx, k)})
	}
	return fpgavolt.CampaignRequest{Kind: "characterization", Boards: boards, Runs: sweepRuns}
}

// warmBRAMs sizes fed-warm's dies. Every timed board is a cache hit, whose
// cost does not depend on die size, so scaled dies only make warming the
// daemons cheaper.
const warmBRAMs = 128

// warmSet is fed-warm's board set: four dies per platform, in a seeded
// order. Every fed-warm job re-runs exactly this request.
func warmSet(seed uint64) fpgavolt.CampaignRequest {
	r := derive(seed, "fed-warm")
	var boards []fpgavolt.BoardSpec
	for p := range platforms {
		for k := 0; k < 4; k++ {
			boards = append(boards, fpgavolt.BoardSpec{Platform: platforms[p], Serial: serial(r, "w", p, k), BRAMs: warmBRAMs})
		}
	}
	for i := len(boards) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		boards[i], boards[j] = boards[j], boards[i]
	}
	return fpgavolt.CampaignRequest{Kind: "characterization", Boards: boards, Runs: sweepRuns}
}

// primeBRAMs sizes the dies of window-priming jobs: small enough that the
// simulation is a sliver of priming time, which is then serving time.
const primeBRAMs = 2

// primeDies returns n tiny dies for priming; tag keeps the sets of
// different nodes apart.
func primeDies(seed uint64, tag string, n int) []fpgavolt.BoardSpec {
	r := derive(seed, "prime/"+tag)
	boards := make([]fpgavolt.BoardSpec, n)
	for i := range boards {
		boards[i] = fpgavolt.BoardSpec{
			Platform: platforms[i%len(platforms)],
			Serial:   fmt.Sprintf("p%s%03d-%010x", tag, i, r.next()>>24),
			BRAMs:    primeBRAMs,
		}
	}
	return boards
}

// primeHits is a characterization of n tiny dies: cold once, then all
// cache hits, whose events arrive in bursts and are the cheapest a daemon
// journals. It fills a daemon's firehose window before timing starts.
func primeHits(seed uint64, tag string, n int) fpgavolt.CampaignRequest {
	return fpgavolt.CampaignRequest{Kind: "characterization", Boards: primeDies(seed, tag, n), Runs: sweepRuns}
}

// primeLevels is a mitigation campaign over n tiny dies: its per-level
// events give a coordinator dozens of events per board, so its window fills
// with a few downstream chunks instead of hundreds.
func primeLevels(seed uint64, tag string, n int) fpgavolt.CampaignRequest {
	return fpgavolt.NewMitigationRequest(primeDies(seed, tag, n), fpgavolt.MitigationSpec{})
}

// resumeBRAMs sizes restart-resume's mitigation dies: big enough to fault
// over most of the ladder, small enough that populating the journal is
// seconds, not minutes.
const resumeBRAMs = 8

// mitigationJob is restart-resume's populate job idx: mitigationDies
// scaled-down dies, an equal share of each platform, racing all four
// mitigation arms down the default ladder.
func mitigationJob(seed uint64, idx int) fpgavolt.CampaignRequest {
	r := derive(seed, fmt.Sprintf("restart-resume/%d", idx))
	boards := make([]fpgavolt.BoardSpec, mitigationDies)
	for k := range boards {
		boards[k] = fpgavolt.BoardSpec{Platform: platforms[k%len(platforms)], Serial: serial(r, "m", idx, k), BRAMs: resumeBRAMs}
	}
	return fpgavolt.NewMitigationRequest(boards, fpgavolt.MitigationSpec{})
}

// mitigationDies is the boards per populate job: with per-level events a
// job holds some 800, so resuming one takes tens of milliseconds and a
// scheduling hiccup of a few milliseconds barely moves it.
const mitigationDies = 16

// inputDigest hashes the JSON bodies of reqs, in order: the same seed must
// give the same digest, which is how a run shows its inputs were the
// seed's and nothing else.
func inputDigest(reqs []fpgavolt.CampaignRequest) (string, error) {
	h := sha256.New()
	for _, q := range reqs {
		body, err := json.Marshal(q)
		if err != nil {
			return "", fmt.Errorf("encode request: %w", err)
		}
		h.Write(body)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
