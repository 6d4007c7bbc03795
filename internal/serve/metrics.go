package serve

import (
	"net/http"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
)

// metrics are one Server's instruments, in a registry of its own: the
// service layer's, plus the engine and wire families, which runEngine
// records from each campaign's report (the engine keeps nothing across
// campaigns). GET /stats reads these same counters, so the two surfaces
// cannot disagree, and two Servers in one process never mix their
// traffic. Counters sit off the record hot path: submissions, queue
// transitions, stream lifecycles and engine reports are per-campaign
// events, and the stream byte counter is one atomic add per write.
type metrics struct {
	reg *obs.Registry

	// Campaign engine and wire encoding, recorded once per campaign.
	engineSeconds *obs.Histogram
	engineRuns    *obs.Counter
	plannedRuns   *obs.Counter
	recoveries    *obs.Counter
	poolCheckouts *obs.Counter
	boardFabs     *obs.Counter
	framesEncoded *obs.Counter
	encodedBytes  *obs.Counter

	// Fleet replication (see fleet.go).
	fleetReplications *obs.Counter
	fleetServed       *obs.Counter
	fleetAuthFailures *obs.Counter

	submissions   *obs.CounterVec
	campaignsRun  *obs.Counter
	replayHits    *obs.Counter
	evictions     *obs.Counter
	queueLen      *obs.Gauge
	queueWait     *obs.Histogram
	subscribers   *obs.Gauge
	streamBytes   *obs.Counter
	draining      *obs.Gauge
	storeErrors   *obs.Counter
	storeDegraded *obs.Gauge
	gridsResumed  *obs.Counter
	runsSaved     *obs.Counter
	requeued      *obs.Counter

	// Front-door metrics (auth + rate limiting; see auth.go / limit.go).
	// The auth-failure reasons are a closed set, so a frozen CounterVec
	// fits; the tenant families are dynamic LabeledCounters because
	// tenants arrive at runtime with the keyfile and an unminted family is
	// simply omitted from the exposition.
	authFailures      *obs.CounterVec
	rateLimited       *obs.LabeledCounter
	tenantSubmissions *obs.LabeledCounter
}

func newMetrics() *metrics {
	r := obs.NewRegistry()
	return &metrics{
		reg: r,
		engineSeconds: r.Histogram("campaign_run_seconds",
			"Wall-clock latency of one engine campaign, dispatch to aggregated report.", nil),
		engineRuns: r.Counter("campaign_runs_total",
			"Characterization runs executed across all campaigns."),
		plannedRuns: r.Counter("campaign_planned_runs_total",
			"Runs an exhaustive sweep of the same campaigns would have scheduled; minus campaign_runs_total this is the work adaptive scheduling avoided."),
		recoveries: r.Counter("campaign_recoveries_total",
			"Runs that required watchdog reset or reboot."),
		poolCheckouts: r.Counter("campaign_board_pool_checkouts_total",
			"Boards checked out of the shared fleet pool (each one a fabrication avoided)."),
		boardFabs: r.Counter("campaign_board_fabrications_total",
			"Boards fabricated because the pool held no idle match (or the shard demanded a fresh board)."),
		framesEncoded: r.Counter("wire_frames_encoded_total",
			"Run records rendered to JSONL, once each, by the engine's streamer."),
		encodedBytes: r.Counter("wire_encoded_bytes_total",
			"Bytes of canonical JSONL rendered by the engine's streamer; every subscriber replays these bytes, so fan-out volume is this times the subscriber count."),

		fleetReplications: r.Counter("fleet_replications_total",
			"Characterizations adopted from fleet peers instead of running locally — each one is a whole campaign not re-measured."),
		fleetServed: r.Counter("fleet_segments_served_total",
			"Committed segments streamed to fleet peers over GET /fleet/segments."),
		fleetAuthFailures: r.Counter("fleet_auth_failures_total",
			"Fleet protocol requests rejected for a missing or wrong shared secret."),

		submissions: r.CounterVec("campaignd_submissions_total",
			"Campaign submissions by outcome: accepted (a new grid run was scheduled), cached (answered from memory or disk), rejected (invalid spec, full queue, or draining).",
			"result", "accepted", "cached", "rejected"),
		campaignsRun: r.Counter("campaignd_campaigns_run_total",
			"Campaigns the scheduler handed to the engine (cache and replay hits excluded)."),
		replayHits: r.Counter("campaignd_replay_hits_total",
			"Submissions answered by replaying a durable-store segment instead of re-running."),
		evictions: r.Counter("campaignd_evictions_total",
			"Finished campaigns evicted from the registry by the cache bound."),
		queueLen: r.Gauge("campaignd_queue_length",
			"Campaigns admitted but not yet executing."),
		queueWait: r.Histogram("campaignd_queue_wait_seconds",
			"Time a campaign spent queued between admission and execution.", nil),
		subscribers: r.Gauge("campaignd_active_subscribers",
			"Stream subscribers currently attached (NDJSON and SSE)."),
		streamBytes: r.Counter("campaignd_stream_bytes_total",
			"Bytes written to stream subscribers, SSE framing included."),
		draining: r.Gauge("campaignd_draining",
			"1 while the server is draining for shutdown (new submissions get 503)."),
		storeErrors: r.Counter("campaignd_store_errors_total",
			"Persistence failures (the affected campaigns themselves completed)."),
		storeDegraded: r.Gauge("serve_store_degraded",
			"1 while the durable store is rejecting writes and campaigns run memory-only; clears on the next successful commit."),
		gridsResumed: r.Counter("campaignd_grids_resumed_total",
			"Interrupted campaigns resumed from a crash checkpoint instead of restarting from scratch."),
		runsSaved: r.Counter("campaignd_runs_saved_total",
			"Characterization runs restored from crash checkpoints — work a restart did not repeat."),
		requeued: r.Counter("campaignd_requeued_total",
			"Campaigns re-admitted at boot from the intent journal (accepted before a crash, never finished)."),

		authFailures: r.CounterVec("serve_auth_failures_total",
			"Rejected campaign-API requests by reason: missing (no key presented, 401), unknown (key not in the ring, 403), disabled (key present but disabled, 403).",
			"reason", "missing", "unknown", "disabled"),
		rateLimited: r.LabeledCounter("serve_rate_limited_total",
			"Requests rejected with 429 per tenant (token bucket empty or stream-subscriber cap reached); anonymous traffic appears as tenant=\"anonymous\".",
			"tenant"),
		tenantSubmissions: r.LabeledCounter("serve_tenant_submissions_total",
			"Campaign submissions accepted or served from cache over HTTP, per tenant.",
			"tenant"),
	}
}

// observeEngine records one engine campaign's report under the engine and
// wire families.
func (m *metrics) observeEngine(st campaign.Stats, t campaign.Tally) {
	m.engineSeconds.Observe(t.Wall)
	m.engineRuns.Add(uint64(st.Runs))
	m.plannedRuns.Add(uint64(st.Planned))
	m.recoveries.Add(uint64(st.Recoveries))
	m.poolCheckouts.Add(uint64(t.PoolCheckouts))
	m.boardFabs.Add(uint64(t.BoardFabs))
	m.framesEncoded.Add(uint64(t.Records))
	m.encodedBytes.Add(uint64(t.Bytes))
}

// handleMetrics serves every layer's counters in one scrape: this
// server's registry, then its store's, then its fleet client's when it
// has one. Each registry belongs to its instance, so a scrape reports this
// daemon alone.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.ContentType)
	err := s.metrics.reg.WritePrometheus(w)
	if err == nil {
		err = s.store.Metrics().WritePrometheus(w)
	}
	if err == nil && s.fleet != nil {
		err = s.fleet.Metrics().WritePrometheus(w)
	}
	if err != nil {
		// Headers are gone; all we can do is drop the connection.
		s.logger.Error("metrics exposition failed", "err", err)
	}
}

// buildInfo is the version surface shared by GET /version and /stats.
type buildInfo struct {
	// Module and Version identify the main module ("(devel)" for a
	// non-module build).
	Module  string `json:"module"`
	Version string `json:"version"`
	// Revision is the VCS commit when the binary was built from one.
	Revision  string `json:"revision,omitempty"`
	GoVersion string `json:"go_version"`
}

// readBuildInfo snapshots the binary's identity once at startup.
func readBuildInfo() buildInfo {
	info := buildInfo{GoVersion: runtime.Version(), Module: "unknown", Version: "(devel)"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		info.Module = bi.Main.Path
		if bi.Main.Version != "" {
			info.Version = bi.Main.Version
		}
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				info.Revision = kv.Value
			}
		}
	}
	return info
}

// versionResponse is the GET /version reply.
type versionResponse struct {
	buildInfo
	UptimeS float64 `json:"uptime_s"`
}

func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, r, http.StatusOK, versionResponse{
		buildInfo: s.build,
		UptimeS:   time.Since(s.start).Seconds(),
	})
}

// countWrite tracks stream handler writes in the fan-out byte counter.
func (s *Server) countWrite(n int, err error) error {
	if n > 0 {
		s.metrics.streamBytes.Add(uint64(n))
	}
	return err
}
