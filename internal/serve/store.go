package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/xgene"
)

// This file is the bridge between the serving registry and the durable
// characterization store (internal/store). The registry stays the
// authority on liveness and LRU order; the store is the authority on what
// survived a restart. Four flows meet here:
//
//   - persist: execute() tees every record of a successful campaign into a
//     segment writer and commits it with the spec + bookkeeping as the
//     manifest summary;
//   - adopt: a fingerprint found in the manifest but not in the registry
//     (daemon restart, or evicted-then-resubmitted) becomes a done
//     campaign with an empty arena;
//   - hydrate: the first stream or cache hit on an adopted campaign renders
//     the segment's lines into its arena — byte-identical to the original
//     live stream, because the segment IS that stream;
//   - requeue: Submit journals each accepted campaign as an intent in the
//     store's manifest and execute() ends it; intents a crash left open
//     are re-admitted at the next boot.

// storedMeta is the summary each manifest line carries: everything the
// registry needs to rebuild its view of a finished campaign without
// opening the segment.
type storedMeta struct {
	Spec       Spec           `json:"spec"`
	Workers    int            `json:"workers"`
	Shards     int            `json:"shards,omitempty"`
	Runs       int            `json:"runs,omitempty"`
	Planned    int            `json:"planned,omitempty"`
	Recoveries int            `json:"recoveries,omitempty"`
	SimTime    time.Duration  `json:"sim_time_ns,omitempty"`
	Outcomes   map[string]int `json:"outcomes,omitempty"`
}

// metaOf flattens campaign bookkeeping into the persisted summary.
func metaOf(spec Spec, workers int, stats campaign.Stats) storedMeta {
	m := storedMeta{
		Spec:       spec,
		Workers:    workers,
		Shards:     stats.Shards,
		Runs:       stats.Runs,
		Planned:    stats.Planned,
		Recoveries: stats.Recoveries,
		SimTime:    stats.SimTime,
	}
	if len(stats.Outcomes) > 0 {
		m.Outcomes = make(map[string]int, len(stats.Outcomes))
		for o, n := range stats.Outcomes {
			m.Outcomes[o.String()] = n
		}
	}
	return m
}

// campaignStats inflates the summary back into engine bookkeeping.
func (m storedMeta) campaignStats() (campaign.Stats, error) {
	st := campaign.Stats{
		Shards:     m.Shards,
		Runs:       m.Runs,
		Planned:    m.Planned,
		Recoveries: m.Recoveries,
		SimTime:    m.SimTime,
	}
	if len(m.Outcomes) > 0 {
		st.Outcomes = make(map[xgene.Outcome]int, len(m.Outcomes))
		for name, n := range m.Outcomes {
			o, err := xgene.ParseOutcome(name)
			if err != nil {
				return st, err
			}
			st.Outcomes[o] = n
		}
	}
	return st, nil
}

// parseStoredMeta decodes a segment's summary, from the local manifest or
// a fleet peer, with its spec defaulted. It refuses metadata that does not
// parse or does not fingerprint back to fp: a corrupted or tampered
// manifest line, or a wrong or malicious peer, must never impersonate
// another spec's characterization.
func parseStoredMeta(raw json.RawMessage, fp string) (storedMeta, campaign.Stats, error) {
	var m storedMeta
	if err := json.Unmarshal(raw, &m); err != nil {
		return m, campaign.Stats{}, err
	}
	stats, err := m.campaignStats()
	if err != nil {
		return m, stats, err
	}
	m.Spec = m.Spec.withDefaults()
	if got := m.Spec.Fingerprint(); got != fp {
		return m, stats, fmt.Errorf("spec fingerprints to %s, want %s", got, fp)
	}
	return m, stats, nil
}

// adoptLocked registers a done campaign for a store entry. An entry whose
// metadata parseStoredMeta refuses is not adopted; the submission then
// simply re-runs. Callers hold s.mu.
func (s *Server) adoptLocked(e store.Entry) (*Campaign, bool) {
	m, stats, err := parseStoredMeta(e.Meta, e.Fingerprint)
	if err != nil {
		return nil, false
	}
	c := newStoredCampaign(fmt.Sprintf("c%06d", s.nextID), m.Spec, e.Fingerprint,
		stats, m.Workers, e.Records)
	s.registerLocked(c)
	return c, true
}

// errStoreUnavailable wraps transient segment-load failures: the
// characterization is still on disk, the caller should retry (503), and
// nothing may be forgotten or re-run over it.
var errStoreUnavailable = errors.New("serve: store temporarily unavailable")

// hydrate reads an adopted campaign's segment back into its arena;
// loaded reports that the segment was read, which counts as a use in the
// store's recency order. Safe to race: the loser's load is discarded.
// Failures mirror store.LoadLines's contract: if the store dropped the
// entry (damaged and quarantined) the campaign fails, so a resubmission
// re-runs cleanly; if the entry survived (a transient read error) it stays
// done/unhydrated and errStoreUnavailable tells the caller to retry.
func (s *Server) hydrate(c *Campaign) (loaded bool, err error) {
	if !c.needsHydration() {
		return false, nil
	}
	lines, ends, err := s.store.LoadLines(c.fingerprint, nil, nil)
	if err != nil {
		if _, ok := s.store.Get(c.fingerprint); ok {
			return false, fmt.Errorf("%w: %v", errStoreUnavailable, err)
		}
	}
	c.hydrateWith(lines, ends, err)
	return err == nil, nil
}

// storeTee fans the engine's stream into the live campaign arena and the
// store's segment writer. A writer failure is remembered, not propagated:
// losing durability must never abort the characterization that is being
// measured — execute() checks err before committing and aborts the
// segment instead. A failing write retries briefly (transient conditions
// like a momentary ENOSPC clear under backoff); once retries are
// exhausted the server degrades to memory-only streaming for the rest of
// the campaign and /readyz turns unready until a later commit succeeds.
type storeTee struct {
	s   *Server
	c   *Campaign
	w   *store.Writer
	err error
}

// teeRetries/teeBackoff bound the persist retry: enough to ride out a
// blip, short enough that a genuinely full disk costs milliseconds, not
// a stalled characterization.
const teeRetries = 2
const teeBackoff = 2 * time.Millisecond

// persist runs one segment write with bounded retry; after the final
// failure the tee latches the error and flips the server degraded.
func (t *storeTee) persist(write func() error) {
	if t.err != nil {
		return
	}
	var err error
	for attempt := 0; ; attempt++ {
		if err = write(); err == nil {
			return
		}
		if attempt >= teeRetries {
			break
		}
		time.Sleep(teeBackoff << attempt)
	}
	t.err = err
	t.s.setStoreDegraded(t.c, err)
}

// Shard implements core.Sink: the live arena takes the rendered lines and
// the segment writer the records, one flush per engine shard. A retry
// after a failed write resumes at the first record the writer did not
// take, so a transient error never duplicates a record in the segment.
func (t *storeTee) Shard(recs []core.RunRecord, lines []byte) error {
	if err := t.c.Shard(recs, lines); err != nil {
		return err
	}
	start := t.w.Records()
	t.persist(func() error { return t.w.Append(recs[t.w.Records()-start:]) })
	return nil
}

var _ core.Sink = (*storeTee)(nil)

// intentMeta is what a submission's begin carries in the store journal:
// everything a restarted daemon needs to requeue the campaign exactly as
// it was accepted.
type intentMeta struct {
	Spec    Spec   `json:"spec"`
	TraceID string `json:"trace_id,omitempty"`
	Tenant  string `json:"tenant,omitempty"`
}

// requeueIntents re-admits the campaigns a previous process accepted but
// never finished: every pending begin becomes a queued campaign with its
// original spec, trace ID and tenant, exactly as if the submitter had
// resubmitted the instant the daemon came back. Runs as a goroutine
// because the pending set may exceed the queue depth — the schedulers
// started alongside it drain what this loop feeds.
func (s *Server) requeueIntents(pending []store.Intent) {
	defer s.wg.Done()
	for _, in := range pending {
		if s.ctx.Err() != nil {
			return
		}
		var meta intentMeta
		err := json.Unmarshal(in.Meta, &meta)
		spec := meta.Spec.withDefaults()
		if err == nil {
			err = spec.Validate()
		}
		if err != nil || spec.Fingerprint() != in.Fingerprint {
			// A journal line that no longer validates (or no longer
			// fingerprints to its key) cannot be trusted to re-run.
			s.logger.Warn("dropping unreplayable intent",
				"fingerprint", in.Fingerprint, "err", errString(err))
			s.store.EndIntent(in.Fingerprint)
			continue
		}
		s.mu.Lock()
		if _, ok := s.store.Get(in.Fingerprint); ok {
			// The campaign committed after its begin landed but before its
			// end did; the manifest already answers this fingerprint.
			s.mu.Unlock()
			s.store.EndIntent(in.Fingerprint)
			continue
		}
		if prev := s.byFP[in.Fingerprint]; prev != nil && prev.Status() != StatusFailed {
			s.mu.Unlock()
			s.store.EndIntent(in.Fingerprint)
			continue
		}
		c := newCampaign(fmt.Sprintf("c%06d", s.nextID), spec, in.Fingerprint)
		c.traceID = meta.TraceID
		if !obs.ValidTraceID(c.traceID) {
			c.traceID = obs.NewTraceID()
		}
		c.tenant = meta.Tenant
		c.queuedAt = time.Now()
		s.registerLocked(c)
		s.mu.Unlock()
		s.metrics.requeued.Inc()
		s.metrics.queueLen.Inc()
		s.logger.Info("campaign requeued from intent journal", withTenant([]any{
			"trace_id", c.traceID, "campaign", c.id, "fingerprint", in.Fingerprint}, c.tenant)...)
		select {
		case s.queue <- c:
		case <-s.ctx.Done():
			s.metrics.queueLen.Dec()
			return
		}
	}
}
