// Package fleet federates campaignd daemons into one characterization
// service. The paper's end goal is fleet-wide guardband characterization —
// one answer per (corner, board, workload) across a datacenter of ARMv8
// servers — but each daemon owns a private segment store, so N daemons
// would re-run the same grids N times. This package makes the fingerprint
// the unit of federation:
//
//   - a static peer ring (Ring) consistent-hashes spec fingerprints across
//     the configured peers with virtual nodes, so every daemon derives the
//     same deterministic owner for a fingerprint with no coordination;
//   - a peer protocol rides the daemons' existing HTTP listeners:
//     GET /fleet/segments/{fingerprint} sends a committed segment file
//     verbatim (the wire format, CRC-checked end to end) and GET
//     /fleet/ring reports peer identity and ring version so membership
//     disagreements are detected, not silently split-brained;
//   - a Client implements read-through replication: on a local miss the
//     serve layer asks Fetch for the fingerprint, which walks the ring
//     owner-first, adopts the first peer's committed segment, and reports
//     ErrNotFound only when no live peer has it — the submission then runs
//     locally, exactly as an unfederated daemon would.
//
// Degradation is the design center: a dead peer costs bounded retries with
// jittered backoff, then trips its per-peer breaker (consecutive-failure
// ejection) so later fetches skip it entirely; after a probe interval one
// request is let through half-open and either re-admits or re-ejects the
// peer. A fleet losing members degrades to local compute, never to errors.
// Concurrent fetches of one fingerprint are single-flighted: a thundering
// herd on a hot characterization costs one peer round-trip.
package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"time"
)

// Protocol header names. The serve layer's handlers and this package's
// Client are the two ends of the wire; sharing the constants keeps them
// from drifting.
const (
	// HeaderSecret authenticates fleet-internal traffic (see
	// Options.Secret). Never a bearer token: fleet traffic bypasses the
	// tenant keyring on purpose, so replication cannot be starved by a
	// noisy tenant's rate limit.
	HeaderSecret = "X-Fleet-Secret"
	// HeaderRing carries the sender's ring version; a receiver with a
	// different version rejects the request (409) so peers with
	// disagreeing membership never exchange segments.
	HeaderRing = "X-Fleet-Ring"
	// HeaderPeer is the sender's (on requests) or responder's (on
	// responses) peer ID.
	HeaderPeer = "X-Fleet-Peer"
	// HeaderMeta is the base64 (std) encoding of the segment's manifest
	// metadata JSON — the storedMeta the owner committed with the segment.
	HeaderMeta = "X-Fleet-Meta"
	// HeaderRecords is the decimal record count of the body; a reader that
	// finds fewer records than advertised has a truncated segment and
	// must discard it.
	HeaderRecords = "X-Fleet-Records"
)

// Peer is one fleet member: its identity is its listen address, which is
// also how -peers names it, so a fleet's configuration is one flag shared
// verbatim by every member.
type Peer struct {
	// ID is the peer's host:port as it appears in -peers.
	ID string
	// BaseURL is where its HTTP listener answers, e.g. "http://host:port".
	BaseURL string
}

// ParsePeers parses a -peers list ("host:port,host:port,...") plus the
// local daemon's own -peer-id, which must be one of the entries — a fleet
// where members disagree about membership is a split brain, so every
// member runs from the identical list. Returns the full peer set (sorted
// by ID) and the local peer.
func ParsePeers(list, self string) ([]Peer, Peer, error) {
	var peers []Peer
	seen := make(map[string]bool)
	for _, raw := range strings.Split(list, ",") {
		addr := strings.TrimSpace(raw)
		if addr == "" {
			continue
		}
		if strings.Contains(addr, "/") {
			return nil, Peer{}, fmt.Errorf("fleet: peer %q: want host:port, not a URL", addr)
		}
		if !strings.Contains(addr, ":") {
			return nil, Peer{}, fmt.Errorf("fleet: peer %q: want host:port", addr)
		}
		if seen[addr] {
			return nil, Peer{}, fmt.Errorf("fleet: duplicate peer %q", addr)
		}
		seen[addr] = true
		peers = append(peers, Peer{ID: addr, BaseURL: "http://" + addr})
	}
	if len(peers) < 2 {
		return nil, Peer{}, fmt.Errorf("fleet: need at least 2 peers, got %d", len(peers))
	}
	self = strings.TrimSpace(self)
	if !seen[self] {
		return nil, Peer{}, fmt.Errorf("fleet: -peer-id %q is not in the peer list", self)
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i].ID < peers[j].ID })
	return peers, Peer{ID: self, BaseURL: "http://" + self}, nil
}

// RingInfo is the GET /fleet/ring reply: enough for an operator (or a
// peer) to check that two daemons agree on who is in the fleet.
type RingInfo struct {
	Peer    string   `json:"peer"`
	Version string   `json:"ring_version"`
	Peers   []string `json:"peers"`
}

// Options parameterizes a fleet Client.
type Options struct {
	// Self identifies the local daemon; it must appear in Peers and is
	// never fetched from.
	Self Peer
	// Peers is the full static membership, Self included.
	Peers []Peer
	// Secret, when non-empty, is sent as HeaderSecret on every fetch and
	// must match the receiving peer's configured secret. Empty disables
	// the check on both ends (trusted-network mode).
	Secret string
	// VNodes is the virtual-node count per peer on the hash ring. More
	// nodes smooth the ownership distribution at O(peers·vnodes· log)
	// ring-build cost. Zero means 128.
	VNodes int
	// Timeout bounds one HTTP attempt against one peer. Zero means 10s.
	Timeout time.Duration
	// AttemptsPerPeer is how many times one fetch retries a failing peer
	// (network error, 5xx, damaged body) before moving on to the next ring
	// successor. Zero means 2.
	AttemptsPerPeer int
	// Backoff is the base delay between retries against the same peer;
	// each retry waits Backoff plus up to Backoff of deterministic jitter.
	// Zero means 50ms.
	Backoff time.Duration
	// FailureThreshold is how many consecutive failed attempts eject a
	// peer from the candidate set. Zero means 3.
	FailureThreshold int
	// ProbeAfter is how long an ejected peer sits out before one half-open
	// probe request is allowed through; a successful probe re-admits it,
	// a failed one re-ejects it for another ProbeAfter. Zero means 15s.
	ProbeAfter time.Duration
	// HTTPClient overrides the transport (tests). Nil uses a fresh
	// http.Client; per-attempt deadlines come from Timeout either way.
	HTTPClient *http.Client
	// Logger receives fetch/health lifecycle lines. Nil discards.
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.VNodes <= 0 {
		o.VNodes = 128
	}
	if o.Timeout <= 0 {
		o.Timeout = 10 * time.Second
	}
	if o.AttemptsPerPeer <= 0 {
		o.AttemptsPerPeer = 2
	}
	if o.Backoff <= 0 {
		o.Backoff = 50 * time.Millisecond
	}
	if o.FailureThreshold <= 0 {
		o.FailureThreshold = 3
	}
	if o.ProbeAfter <= 0 {
		o.ProbeAfter = 15 * time.Second
	}
	return o
}

// versionOf derives the ring version from the membership: the first 16 hex
// digits of a SHA-256 over the sorted peer identities. Two daemons agree
// on the version exactly when they were configured with the same fleet.
func versionOf(peers []Peer) string {
	ids := make([]string, 0, len(peers))
	for _, p := range peers {
		ids = append(ids, p.ID+"="+p.BaseURL)
	}
	sort.Strings(ids)
	sum := sha256.Sum256([]byte(strings.Join(ids, ",")))
	return hex.EncodeToString(sum[:8])
}
