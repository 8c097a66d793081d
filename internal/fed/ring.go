package fed

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// vnodes is how many virtual nodes each daemon contributes to the ring. 64
// keeps the expected per-daemon load within a few percent of even for
// small federations without making owner lookups noticeably slower.
const vnodes = 64

// ring is a consistent-hash ring over daemon base URLs. Each daemon owns
// vnodes points on a 64-bit circle; a board keyed by (platform, serial)
// belongs to the first daemon point at or clockwise of the key's hash. The
// assignment is a pure function of the daemon set and the key — every
// coordinator over the same federation shards a campaign identically, and
// adding or removing one daemon reassigns only the boards that hashed into
// its arcs.
type ring struct {
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash   uint64
	daemon string
}

func newRing(daemons []string) *ring {
	r := &ring{points: make([]ringPoint, 0, len(daemons)*vnodes)}
	for _, d := range daemons {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash64(fmt.Sprintf("%s#%d", d, v)), d})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Equal hashes (vanishingly rare) tie-break on the daemon name so
		// the ring order stays deterministic across coordinators.
		return r.points[i].daemon < r.points[j].daemon
	})
	return r
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	// FNV-1a has poor trailing-byte avalanche: keys differing only in their
	// last characters (board serials do, by construction) land within a few
	// 2^48-wide clusters and would all fall into one ring arc. The
	// splitmix64 finalizer spreads them over the full circle.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// boardKey is the sharding key: the same (platform, serial) always lands on
// the same daemon, so its FVM store and cache stay warm for that board.
func boardKey(platform, serial string) string { return platform + "|" + serial }

// owner returns the daemon owning key, skipping daemons for which skip
// returns true (dead ones). Empty string when every daemon is skipped or
// the ring is empty. skip may be nil.
func (r *ring) owner(key string, skip func(daemon string) bool) string {
	if len(r.points) == 0 {
		return ""
	}
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	for i := 0; i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if skip == nil || !skip(p.daemon) {
			return p.daemon
		}
	}
	return ""
}
