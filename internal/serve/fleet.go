package serve

import (
	"bytes"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/base64"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/fleet"
	"repro/internal/wire"
)

// This file is the serve layer's half of the fleet federation
// (internal/fleet): the server side of the peer protocol, and the submit
// path's read-through replication. The division of labor: fleet owns the
// ring, per-peer health and the fetch wire client; serve owns where
// segments live (registry and store) and what adopting one means.
//
// Fleet traffic is deliberately outside both the tenant keyring and the
// rate limiter — it authenticates with the shared fleet secret, and a
// noisy tenant exhausting its token bucket must never starve peers of
// replication (see TestFleetBypassesTenantLimits).

// fleetStatsView is the federation's slice of GET /stats: the client's
// ring/health/fetch counters plus this server's adoption bookkeeping.
type fleetStatsView struct {
	fleet.Stats
	// Replications counts segments adopted from peers (grids_run stayed
	// untouched for each); SegmentsServed counts segments streamed out.
	Replications   uint64 `json:"replications"`
	SegmentsServed uint64 `json:"segments_served"`
}

// fleetPeerCount / fleetSelfID feed the startup log line without making
// the caller unwrap the optional config.
func fleetPeerCount(o *fleet.Options) int {
	if o == nil {
		return 0
	}
	return len(o.Peers)
}

func fleetSelfID(o *fleet.Options) string {
	if o == nil {
		return ""
	}
	return o.Self.ID
}

var errFleetSecret = errors.New("serve: fleet secret missing or wrong")

// fleetAuthed gates a fleet handler with the shared secret — compared
// constant-time like any other credential. No secret configured means a
// trusted network; the handlers still only exist when the fleet does.
func (s *Server) fleetAuthed(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if secret := s.fleet.Secret(); secret != "" {
			want := sha256.Sum256([]byte(secret))
			got := sha256.Sum256([]byte(r.Header.Get(fleet.HeaderSecret)))
			if subtle.ConstantTimeCompare(want[:], got[:]) != 1 {
				s.metrics.fleetAuthFailures.Inc()
				s.logger.Warn("fleet request rejected: bad secret",
					"path", r.URL.Path, "remote", r.RemoteAddr,
					"peer", r.Header.Get(fleet.HeaderPeer))
				s.writeError(w, r, http.StatusForbidden, errFleetSecret)
				return
			}
		}
		h(w, r)
	}
}

// handleFleetRing reports this daemon's identity and ring version so
// peers (and operators) can detect membership disagreement directly.
func (s *Server) handleFleetRing(w http.ResponseWriter, r *http.Request) {
	ring := s.fleet.Ring()
	peers := ring.Peers()
	ids := make([]string, 0, len(peers))
	for _, p := range peers {
		ids = append(ids, p.ID)
	}
	w.Header().Set(fleet.HeaderPeer, s.fleet.Self().ID)
	w.Header().Set(fleet.HeaderRing, ring.Version())
	s.writeJSON(w, r, http.StatusOK, fleet.RingInfo{
		Peer:    s.fleet.Self().ID,
		Version: ring.Version(),
		Peers:   ids,
	})
}

var errRingMismatch = errors.New("serve: fleet ring version mismatch")

// handleFleetSegment sends a committed characterization to a peer: the
// manifest metadata and record count in headers, the stored segment file,
// verbatim, as the body (the binary wire format, per-record CRCs
// included). Only committed segments are served; anything else is a 404
// and the requester characterizes locally.
func (s *Server) handleFleetSegment(w http.ResponseWriter, r *http.Request) {
	ring := s.fleet.Ring()
	w.Header().Set(fleet.HeaderPeer, s.fleet.Self().ID)
	w.Header().Set(fleet.HeaderRing, ring.Version())
	if theirs := r.Header.Get(fleet.HeaderRing); theirs != "" && theirs != ring.Version() {
		// A peer configured with a different membership must not exchange
		// segments with this one: ownership disagrees, so replication
		// would smear segments across a split brain.
		s.fleet.NoteRingMismatch()
		s.logger.Warn("fleet fetch rejected: ring mismatch",
			"peer", r.Header.Get(fleet.HeaderPeer),
			"ours", ring.Version(), "theirs", theirs)
		s.writeError(w, r, http.StatusConflict, errRingMismatch)
		return
	}
	fp := r.PathValue("fp")
	// Serving is a use in the registry's recency order, as the load is in
	// the store's. Peer traffic never adopts into the registry, so
	// replication cannot evict cache entries.
	s.mu.Lock()
	if c := s.byFP[fp]; c != nil {
		s.touchLocked(c)
	}
	s.mu.Unlock()
	seg, e, err := s.store.LoadSegment(fp)
	if err != nil {
		if _, ok := s.store.Get(fp); ok {
			// The segment is still on disk: a transient read error.
			w.Header().Set("Retry-After", "1")
			s.writeError(w, r, http.StatusServiceUnavailable, fmt.Errorf("%w: %v", errStoreUnavailable, err))
			return
		}
		s.writeError(w, r, http.StatusNotFound,
			fmt.Errorf("serve: no committed segment for %q", fp))
		return
	}
	w.Header().Set(fleet.HeaderMeta, base64.StdEncoding.EncodeToString(e.Meta))
	w.Header().Set(fleet.HeaderRecords, strconv.Itoa(e.Records))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	if err := s.countWrite(w.Write(seg)); err != nil {
		return
	}
	s.metrics.fleetServed.Inc()
	s.logger.Info("fleet segment served",
		"fingerprint", fp, "records", e.Records,
		"peer", r.Header.Get(fleet.HeaderPeer))
}

// fleetFetch is the submit path's read-through: resolve the fingerprint
// against the fleet and adopt what comes back. Every failure mode ends
// the same way — the caller falls through to a local run — they differ
// only in what gets logged and counted.
func (s *Server) fleetFetch(fp, trace, tenant string) {
	seg, err := s.fleet.Fetch(s.ctx, fp)
	if err != nil {
		var mm *fleet.MismatchError
		switch {
		case errors.Is(err, fleet.ErrNotFound):
			s.logger.Info("fleet miss, characterizing locally", withTenant([]any{
				"trace_id", trace, "fingerprint", fp}, tenant)...)
		case errors.As(err, &mm):
			s.logger.Warn("fleet fetch rejected: ring mismatch, characterizing locally",
				withTenant([]any{"trace_id", trace, "fingerprint", fp,
					"peer", mm.Peer, "ours", mm.Ours, "theirs", mm.Theirs}, tenant)...)
		default:
			s.logger.Warn("fleet fetch failed, characterizing locally", withTenant([]any{
				"trace_id", trace, "fingerprint", fp, "err", err}, tenant)...)
		}
		return
	}
	if err := s.adoptRemote(fp, seg); err != nil {
		s.logger.Warn("fleet segment rejected, characterizing locally", withTenant([]any{
			"trace_id", trace, "fingerprint", fp, "peer", seg.Peer.ID, "err", err}, tenant)...)
		return
	}
	s.logger.Info("characterization replicated from peer", withTenant([]any{
		"trace_id", trace, "fingerprint", fp, "peer", seg.Peer.ID,
		"records", seg.Records}, tenant)...)
}

// adoptRemote installs a fetched segment: persist its bytes (best-effort),
// then register a done campaign whose arena is rendered from the same
// bytes, so the submit loop's next pass is a cache hit that reads no file.
// Like adoptLocked, it refuses metadata that parseStoredMeta refuses.
func (s *Server) adoptRemote(fp string, seg *fleet.Segment) error {
	m, stats, err := parseStoredMeta(seg.Meta, fp)
	if err != nil {
		return fmt.Errorf("peer segment meta: %w", err)
	}
	if seg.Records == 0 {
		return errors.New("peer segment is empty")
	}
	// Best-effort: losing durability must not turn a replicated hit into a
	// failure — the in-memory adoption below still answers the submission,
	// exactly like a local campaign whose commit failed.
	if err := s.store.Adopt(fp, seg.Meta, seg.Body, seg.Records); err != nil {
		s.metrics.storeErrors.Inc()
		s.logger.Warn("replicated segment not persisted",
			"fingerprint", fp, "err", err)
	}
	lines, ends, err := wire.AppendSegmentLines(nil, nil, bytes.NewBuffer(seg.Body))
	if err != nil {
		return fmt.Errorf("peer segment: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev := s.byFP[fp]; prev != nil && prev.Status() != StatusFailed {
		return nil // a racer satisfied the fingerprint while we fetched
	}
	c := newStoredCampaign(fmt.Sprintf("c%06d", s.nextID), m.Spec, fp,
		s.spool, stats, m.Workers, seg.Records)
	s.registerLocked(c)
	c.hydrateWith(lines, ends, nil)
	s.metrics.fleetReplications.Inc()
	return nil
}
