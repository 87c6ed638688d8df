package router

import (
	"fmt"
	"sort"

	"sensei/internal/hashx"
)

// ringVnodes is how many virtual points each shard owns on the hash ring.
// 64 per shard keeps the assignment spread within a few percent of uniform
// for small shard counts without making the ring large enough to matter
// for the binary search.
const ringVnodes = 64

// ring is a consistent-hash ring mapping session IDs to shard indexes.
// Consistent hashing (rather than sid mod N) keeps almost all sessions on
// their shard if an operator ever grows the shard count between runs, and
// it is the idiom production request routers use for sticky sessions.
type ring struct {
	hashes []uint64 // sorted vnode positions
	owners []int    // owners[i] is the shard owning hashes[i]
}

// newRing places shards×ringVnodes points on the ring.
func newRing(shards int) *ring {
	r := &ring{
		hashes: make([]uint64, 0, shards*ringVnodes),
		owners: make([]int, 0, shards*ringVnodes),
	}
	type point struct {
		hash  uint64
		owner int
	}
	points := make([]point, 0, shards*ringVnodes)
	for s := 0; s < shards; s++ {
		// FNV over near-identical vnode labels clusters; derive the
		// shard's vnode positions from a splitmix64 sequence instead so
		// the points scatter uniformly however few shards there are.
		x := hashx.FNV1a(fmt.Sprintf("shard-%d", s))
		for v := 0; v < ringVnodes; v++ {
			points = append(points, point{hashx.Mix64(x), s})
			x += hashx.Gamma
		}
	}
	sort.Slice(points, func(i, j int) bool { return points[i].hash < points[j].hash })
	for _, p := range points {
		r.hashes = append(r.hashes, p.hash)
		r.owners = append(r.owners, p.owner)
	}
	return r
}

// Owner maps a key (session ID) to its shard: the first vnode clockwise
// from the key's hash. Zero allocations — it sits on the per-segment
// routing path.
func (r *ring) Owner(key string) int {
	h := hashx.FNV1a(key)
	// First point with hash >= h, wrapping to 0.
	lo, hi := 0, len(r.hashes)
	for lo < hi {
		mid := (lo + hi) / 2
		if r.hashes[mid] < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(r.hashes) {
		lo = 0
	}
	return r.owners[lo]
}
