package store

import "repro/internal/obs"

// metrics are one Store's instruments, in a registry the Store owns:
// Stats reads them, and campaignd renders the registry on GET /metrics, so
// the two surfaces cannot disagree and two stores in one process never
// mix their counts.
type metrics struct {
	reg                                *obs.Registry
	segments, bytes, quarantineBytes   *obs.Gauge
	commits, segmentLoads, checkpoints *obs.Counter
	quarantined, compactions           *obs.Counter
	commitSeconds                      *obs.Histogram
}

func newMetrics() *metrics {
	r := obs.NewRegistry()
	return &metrics{
		reg: r,
		segments: r.Gauge("store_segments",
			"Committed, trusted segments on disk."),
		bytes: r.Gauge("store_bytes",
			"Total bytes of committed segments."),
		commits: r.Counter("store_commits_total",
			"Segments committed (a finished campaign made durable)."),
		commitSeconds: r.Histogram("store_commit_seconds",
			"Latency of making one segment durable: flush, fsync, rename, journal.", nil),
		segmentLoads: r.Counter("store_segment_loads_total",
			"Segments read back from disk (restart or post-eviction replays)."),
		quarantined: r.Counter("store_quarantined_total",
			"Segments recovery or load verification refused to trust."),
		compactions: r.Counter("store_compactions_total",
			"Segments evicted by the store's size or count bounds."),
		quarantineBytes: r.Gauge("store_quarantine_bytes",
			"Bytes currently held in the quarantine directory."),
		checkpoints: r.Counter("store_checkpoints_total",
			"Crash checkpoints salvaged from uncommitted segments at boot."),
	}
}

// Metrics is the store's metric registry, for a /metrics exposition.
func (s *Store) Metrics() *obs.Registry { return s.m.reg }
