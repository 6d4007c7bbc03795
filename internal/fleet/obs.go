package fleet

import "repro/internal/obs"

// metrics are one Client's instruments, in a registry the Client owns:
// Stats reads them and campaignd renders the registry on GET /metrics.
// Fetch accounting is labeled per peer so an operator can see which
// member of the fleet is wounded from any other member's /metrics; the
// label set is the static peer list, so cardinality is bounded by
// configuration, and a peer never fetched from has no series.
type metrics struct {
	reg                       *obs.Registry
	peerFetches, peerFailures *obs.LabeledCounter
	ringMismatches, coalesced *obs.Counter
	ejectedPeers              *obs.Gauge
}

func newMetrics() *metrics {
	r := obs.NewRegistry()
	return &metrics{
		reg: r,
		peerFetches: r.LabeledCounter("fleet_peer_fetches_total",
			"Segment fetch attempts against fleet peers (successes, clean misses and failures alike), by peer.",
			"peer"),
		peerFailures: r.LabeledCounter("fleet_peer_failures_total",
			"Failed segment fetch attempts (network errors, bad status, damaged or truncated segments), by peer; a clean 404 is a miss, not a failure.",
			"peer"),
		ringMismatches: r.Counter("fleet_ring_mismatches_total",
			"Fetches refused because two peers disagreed about fleet membership (ring version), detected on either end."),
		ejectedPeers: r.Gauge("fleet_ejected_peers",
			"Peers currently ejected by the consecutive-failure breaker (half-open probes re-admit them)."),
		coalesced: r.Counter("fleet_fetch_coalesced_total",
			"Fetches that joined an in-flight fetch of the same fingerprint instead of paying their own peer round-trip."),
	}
}

// Metrics is the client's metric registry, for a /metrics exposition.
func (c *Client) Metrics() *obs.Registry { return c.m.reg }
