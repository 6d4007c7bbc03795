package store

import "repro/internal/obs"

// Durable-store metrics (process-wide; campaignd serves them on
// GET /metrics). The gauges report the composition of the most recently
// mutated Store — the daemon owns exactly one, so in production they are
// simply "the store"; multi-store tests read Store.Stats() instead.
var (
	obsSegments = obs.NewGauge("store_segments",
		"Committed, trusted segments on disk.")
	obsBytes = obs.NewGauge("store_bytes",
		"Total bytes of committed segments.")
	obsCommits = obs.NewCounter("store_commits_total",
		"Segments committed (a finished campaign made durable).")
	obsCommitSeconds = obs.NewHistogram("store_commit_seconds",
		"Latency of making one segment durable: flush, fsync, rename, journal.", nil)
	obsSegmentLoads = obs.NewCounter("store_segment_loads_total",
		"Segments read back from disk (restart or post-eviction replays).")
	obsQuarantined = obs.NewCounter("store_quarantined_total",
		"Segments recovery or load verification refused to trust.")
	obsCompactions = obs.NewCounter("store_compactions_total",
		"Segments evicted by the store's size or count bounds.")
	obsQuarantineBytes = obs.NewGauge("store_quarantine_bytes",
		"Bytes currently held in the quarantine directory.")
	obsCheckpoints = obs.NewCounter("store_checkpoints_total",
		"Crash checkpoints salvaged from uncommitted segments at boot.")
)

// updateObsLocked refreshes the composition gauges after anything that
// changes the committed entry set. Callers hold s.mu.
func (s *Store) updateObsLocked() {
	obsSegments.Set(int64(len(s.entries)))
	obsBytes.Set(s.bytes)
}
