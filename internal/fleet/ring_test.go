package fleet

import (
	"fmt"
	"testing"
)

func testPeers(n int) []Peer {
	var peers []Peer
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("10.0.0.%d:8080", i+1)
		peers = append(peers, Peer{ID: id, BaseURL: "http://" + id})
	}
	return peers
}

// testKeys generates deterministic fingerprint-shaped keys.
func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%016x", uint64(i)*0x9e3779b97f4a7c15+1)
	}
	return keys
}

func TestRingDeterministicAcrossDaemons(t *testing.T) {
	// Two daemons configured with the same peer list (different input
	// order!) must agree on every key's owner and on the ring version —
	// that agreement is the whole coordination mechanism.
	a := NewRing(testPeers(5), 64)
	shuffled := testPeers(5)
	shuffled[0], shuffled[3] = shuffled[3], shuffled[0]
	shuffled[1], shuffled[4] = shuffled[4], shuffled[1]
	b := NewRing(shuffled, 64)
	if a.Version() != b.Version() {
		t.Fatalf("version: %s vs %s", a.Version(), b.Version())
	}
	for _, k := range testKeys(2000) {
		if owner(a, k) != owner(b, k) {
			t.Fatalf("owner of %s differs: %v vs %v", k, owner(a, k), owner(b, k))
		}
	}
}

func TestRingDistributionBounds(t *testing.T) {
	peers := testPeers(5)
	r := NewRing(peers, 128)
	counts := make(map[string]int)
	keys := testKeys(20000)
	for _, k := range keys {
		counts[owner(r, k).ID]++
	}
	fair := float64(len(keys)) / float64(len(peers))
	for _, p := range peers {
		share := float64(counts[p.ID]) / fair
		if share < 0.5 || share > 1.6 {
			t.Errorf("peer %s owns %.2fx its fair share (%d keys)", p.ID, share, counts[p.ID])
		}
	}
}

func TestRingRemovalOnlyMovesVictimsKeys(t *testing.T) {
	// The consistent-hashing contract: removing one peer reassigns only
	// the keys that peer owned; every other key keeps its owner. This is
	// what makes a peer death cheap for the rest of the fleet.
	peers := testPeers(4)
	full := NewRing(peers, 128)
	removed := peers[2]
	smaller := NewRing(append(append([]Peer(nil), peers[:2]...), peers[3]), 128)
	for _, k := range testKeys(5000) {
		was := owner(full, k)
		if was.ID == removed.ID {
			continue
		}
		if now := owner(smaller, k); now != was {
			t.Fatalf("key %s moved %v -> %v though %v was removed", k, was, now, removed)
		}
	}
	if full.Version() == smaller.Version() {
		t.Fatal("membership changed but ring version did not")
	}
}

func TestRingSuccessorsCoverAllPeersOwnerFirst(t *testing.T) {
	r := NewRing(testPeers(5), 64)
	for _, k := range testKeys(200) {
		succ := r.Successors(k)
		if len(succ) != 5 {
			t.Fatalf("key %s: %d successors, want 5", k, len(succ))
		}
		if succ[0] != owner(r, k) {
			t.Fatalf("key %s: successors[0] %v != owner %v", k, succ[0], owner(r, k))
		}
		seen := make(map[string]bool)
		for _, p := range succ {
			if seen[p.ID] {
				t.Fatalf("key %s: duplicate successor %v", k, p)
			}
			seen[p.ID] = true
		}
	}
}

func TestParsePeers(t *testing.T) {
	peers, self, err := ParsePeers("c:3, a:1 ,b:2", "b:2")
	if err != nil {
		t.Fatal(err)
	}
	if self.ID != "b:2" || self.BaseURL != "http://b:2" {
		t.Fatalf("self = %+v", self)
	}
	if len(peers) != 3 || peers[0].ID != "a:1" || peers[2].ID != "c:3" {
		t.Fatalf("peers = %+v", peers)
	}
	for _, tc := range []struct{ list, self string }{
		{"a:1,b:2", "c:3"},      // self not a member
		{"a:1", "a:1"},          // fleet of one
		{"a:1,a:1,b:2", "a:1"},  // duplicate
		{"a,b:2", "b:2"},        // missing port
		{"http://a:1,b:2", "a"}, // URL, not host:port
	} {
		if _, _, err := ParsePeers(tc.list, tc.self); err == nil {
			t.Errorf("ParsePeers(%q, %q): want error", tc.list, tc.self)
		}
	}
}

// owner returns the peer that owns a key: the first ring point at or after
// the key's hash.
func owner(r *Ring, key string) Peer {
	return r.peers[r.points[r.start(key)].peer]
}
