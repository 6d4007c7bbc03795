package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"strconv"
)

// Ring is the consistent-hash ring: every peer contributes VNodes points
// on a 64-bit circle, and a fingerprint is owned by the peer whose point
// is the first at or clockwise of the fingerprint's hash. The structure is
// immutable after construction — membership is static per process, so
// lookups take no lock — and fully deterministic: every daemon configured
// with the same peer list builds the identical ring, which is what lets N
// daemons agree on ownership with zero coordination. Removing a peer only
// reassigns the keys it owned (its points vanish, everyone else's stay),
// the classic consistent-hashing property the failover path leans on.
type Ring struct {
	peers   []Peer
	points  []ringPoint // sorted by hash
	version string
}

type ringPoint struct {
	hash uint64
	peer int // index into peers
}

// NewRing builds the ring for a peer set. vnodes <= 0 means 128.
func NewRing(peers []Peer, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = 128
	}
	r := &Ring{
		peers:   append([]Peer(nil), peers...),
		version: versionOf(peers),
	}
	sort.Slice(r.peers, func(i, j int) bool { return r.peers[i].ID < r.peers[j].ID })
	r.points = make([]ringPoint, 0, len(r.peers)*vnodes)
	for i, p := range r.peers {
		for v := 0; v < vnodes; v++ {
			h := keyHash(p.ID + "#" + strconv.Itoa(v))
			r.points = append(r.points, ringPoint{hash: h, peer: i})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// A 64-bit collision between peers is astronomically unlikely but
		// must still order deterministically on every daemon.
		return r.peers[r.points[i].peer].ID < r.peers[r.points[j].peer].ID
	})
	return r
}

// Version identifies the membership; see versionOf.
func (r *Ring) Version() string { return r.version }

// Peers returns the membership in sorted order.
func (r *Ring) Peers() []Peer { return append([]Peer(nil), r.peers...) }

// keyHash places a key (or virtual node) on the 64-bit circle. SHA-256 is
// deliberate over a faster non-cryptographic hash: vnode keys differ by a
// few characters and weak avalanche behavior (FNV's, empirically) clusters
// their points badly enough to skew ownership 3-4x. Lookups are off every
// hot path — one hash per Submit miss — so uniformity wins.
func keyHash(key string) uint64 {
	sum := sha256.Sum256([]byte(key))
	return binary.BigEndian.Uint64(sum[:8])
}

// start locates the first ring point at or after the key's hash.
func (r *Ring) start(key string) int {
	kh := keyHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= kh })
	if i == len(r.points) {
		i = 0 // wrap
	}
	return i
}

// Successors returns every peer in ring order starting at the key's owner:
// the preference order for fetching the key, owner first, each remaining
// peer exactly once. The order is deterministic per key, so retries across
// the fleet converge on the same fallback chain.
func (r *Ring) Successors(key string) []Peer {
	out := make([]Peer, 0, len(r.peers))
	seen := make([]bool, len(r.peers))
	for i, n := r.start(key), 0; n < len(r.points) && len(out) < len(r.peers); n++ {
		p := r.points[i].peer
		if !seen[p] {
			seen[p] = true
			out = append(out, r.peers[p])
		}
		i++
		if i == len(r.points) {
			i = 0
		}
	}
	return out
}
