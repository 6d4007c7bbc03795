package fleet

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/wire"
)

func init() {
	// The replication fault point: chaos plans can delay or fail the
	// segment body transfer to exercise shutdown-mid-adopt paths.
	fault.Register("fleet.fetch.body")
}

// ErrNotFound reports that every reachable peer answered and none has the
// fingerprint: the caller should characterize locally. It is the fetch
// path's ordinary "miss", not a failure.
var ErrNotFound = errors.New("fleet: no peer has the segment")

// MismatchError reports a membership disagreement: a peer rejected (or
// answered) a fetch under a different ring version. Replicating across a
// split brain could adopt a segment the fleets disagree about owning, so
// the fetch aborts and the submission runs locally.
type MismatchError struct {
	Peer   string
	Ours   string
	Theirs string
}

func (e *MismatchError) Error() string {
	return fmt.Sprintf("fleet: ring mismatch with peer %s: ours %s, theirs %s", e.Peer, e.Ours, e.Theirs)
}

// Segment is a successfully fetched characterization: the owner's
// committed manifest metadata plus the decoded frames, each carrying its
// canonical JSONL line (wire.ReadSegment rebuilds them), so adopting a
// replica preserves the byte-identical replay contract.
type Segment struct {
	// Peer is who served it.
	Peer Peer
	// Meta is the segment's manifest metadata, verbatim.
	Meta json.RawMessage
	// Frames are the segment's records in stream order.
	Frames []core.Frame
}

// peerState is one peer's breaker. Guarded by Client.mu.
type peerState struct {
	fails    int       // consecutive failures
	ejected  bool      // breaker open
	openedAt time.Time // when it opened (probe timer)
	probing  bool      // a half-open probe is in flight
	notFound uint64    // clean 404s (peer healthy, segment absent)
}

// flight is one in-progress fetch of a fingerprint; joiners wait on done
// and share the leader's result.
type flight struct {
	done chan struct{}
	seg  *Segment
	err  error
}

// Client is the fetching half of the fleet: it owns the ring, the
// per-peer breakers and the single-flight table. One Client per daemon;
// all methods are safe for concurrent use.
type Client struct {
	opts   Options
	ring   *Ring
	hc     *http.Client
	logger *slog.Logger
	now    func() time.Time // injectable clock (tests)
	sleep  func(context.Context, time.Duration) error
	m      *metrics // traffic and breaker counters, behind Stats and Metrics

	mu     sync.Mutex
	health map[string]*peerState
	flight map[string]*flight
}

// New builds a Client. Self must be a member of Peers.
func New(opts Options) (*Client, error) {
	opts = opts.withDefaults()
	found := false
	for _, p := range opts.Peers {
		if p.ID == opts.Self.ID {
			found = true
		}
	}
	if !found {
		return nil, fmt.Errorf("fleet: self %q is not in the peer list", opts.Self.ID)
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.New(discardHandler{})
	}
	hc := opts.HTTPClient
	if hc == nil {
		hc = &http.Client{}
	}
	c := &Client{
		opts:   opts,
		ring:   NewRing(opts.Peers, opts.VNodes),
		hc:     hc,
		logger: logger,
		now:    time.Now,
		m:      newMetrics(),
		health: make(map[string]*peerState),
		flight: make(map[string]*flight),
	}
	c.sleep = func(ctx context.Context, d time.Duration) error {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
			return nil
		}
	}
	for _, p := range opts.Peers {
		if p.ID != opts.Self.ID {
			c.health[p.ID] = &peerState{}
		}
	}
	return c, nil
}

// discardHandler drops every record, mirroring the serve layer's default.
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }

// Ring exposes the ring for the serve layer's /fleet/ring handler.
func (c *Client) Ring() *Ring { return c.ring }

// Self returns the local peer identity.
func (c *Client) Self() Peer { return c.opts.Self }

// Secret returns the configured shared secret ("" when disabled).
func (c *Client) Secret() string { return c.opts.Secret }

// NoteRingMismatch accounts a membership disagreement detected outside the
// fetch path (the serve handler rejecting an inbound fetch).
func (c *Client) NoteRingMismatch() { c.m.ringMismatches.Inc() }

// admit decides whether a peer may be tried now. An ejected peer is
// skipped until ProbeAfter has elapsed; then exactly one caller wins the
// half-open probe slot and carries the peer's fate.
func (c *Client) admit(id string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.health[id]
	if st == nil || !st.ejected {
		return true
	}
	if c.now().Sub(st.openedAt) < c.opts.ProbeAfter || st.probing {
		return false
	}
	st.probing = true
	return true
}

// markSuccess closes the peer's breaker (probe or not) and resets its
// failure run. Clean 404s come here too: a peer that answers "I don't
// have it" is healthy.
func (c *Client) markSuccess(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.health[id]
	if st == nil {
		return
	}
	if st.ejected {
		c.m.ejectedPeers.Dec()
		c.logger.Info("fleet peer re-admitted", "peer", id)
	}
	st.fails = 0
	st.ejected = false
	st.probing = false
}

// markFailure advances the peer's failure run and opens (or re-opens) the
// breaker at the threshold. A failed half-open probe re-ejects
// immediately — one request per ProbeAfter is all a dead peer costs.
func (c *Client) markFailure(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.health[id]
	if st == nil {
		return
	}
	st.fails++
	wasProbe := st.probing
	st.probing = false
	if st.ejected {
		st.openedAt = c.now() // failed probe: sit out another interval
		return
	}
	if wasProbe || st.fails >= c.opts.FailureThreshold {
		st.ejected = true
		st.openedAt = c.now()
		c.m.ejectedPeers.Inc()
		c.logger.Warn("fleet peer ejected",
			"peer", id, "consecutive_failures", st.fails,
			"probe_after_s", c.opts.ProbeAfter.Seconds())
	}
}

// Fetch resolves a fingerprint against the fleet: peers are tried in the
// ring's owner-first order (Self excluded), each with bounded retries and
// jittered backoff, skipping ejected peers. The first committed segment
// wins. Concurrent fetches of the same fingerprint coalesce into one
// round-trip; joiners share the leader's result.
//
// Returns ErrNotFound when every reachable peer lacks the segment (run
// locally), a *MismatchError when membership disagrees (run locally, page
// the operator), or a last-error summary when everything failed (run
// locally).
func (c *Client) Fetch(ctx context.Context, fp string) (*Segment, error) {
	c.mu.Lock()
	if f := c.flight[fp]; f != nil {
		c.mu.Unlock()
		c.m.coalesced.Inc()
		select {
		case <-f.done:
			return f.seg, f.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	c.flight[fp] = f
	c.mu.Unlock()

	f.seg, f.err = c.fetch(ctx, fp)
	c.mu.Lock()
	delete(c.flight, fp)
	c.mu.Unlock()
	close(f.done)
	return f.seg, f.err
}

// fetch is the single-flighted body of Fetch.
func (c *Client) fetch(ctx context.Context, fp string) (*Segment, error) {
	var lastErr error
	sawPeer := false
	for _, p := range c.ring.Successors(fp) {
		if p.ID == c.opts.Self.ID {
			continue
		}
		if !c.admit(p.ID) {
			continue
		}
		sawPeer = true
		for attempt := 0; attempt < c.opts.AttemptsPerPeer; attempt++ {
			if attempt > 0 {
				// Base backoff plus up to one extra base of jitter, so a
				// herd of daemons retrying a wounded peer decorrelates.
				d := c.opts.Backoff + time.Duration(rand.Int63n(int64(c.opts.Backoff)))
				if err := c.sleep(ctx, d); err != nil {
					return nil, err
				}
			}
			seg, retriable, err := c.fetchFrom(ctx, p, fp)
			if err == nil {
				c.markSuccess(p.ID)
				return seg, nil
			}
			if errors.Is(err, ErrNotFound) {
				// The peer is healthy; it just never characterized this
				// spec. Move on to the next ring successor.
				c.markSuccess(p.ID)
				c.bumpNotFound(p.ID)
				lastErr = joinErr(lastErr, nil)
				break
			}
			var mm *MismatchError
			if errors.As(err, &mm) {
				// Membership disagreement is a config fault, not a peer
				// fault: abort the whole fetch so nothing replicates
				// across the split.
				c.markSuccess(p.ID)
				c.NoteRingMismatch()
				c.logger.Warn("fleet ring mismatch",
					"peer", p.ID, "ours", mm.Ours, "theirs", mm.Theirs)
				return nil, err
			}
			c.markFailure(p.ID)
			c.logger.Warn("fleet fetch attempt failed",
				"peer", p.ID, "fingerprint", fp, "attempt", attempt+1, "err", err)
			lastErr = joinErr(lastErr, fmt.Errorf("peer %s: %w", p.ID, err))
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			if !retriable {
				break
			}
		}
	}
	if lastErr != nil {
		return nil, fmt.Errorf("fleet: fetch %s: %w", fp, lastErr)
	}
	if !sawPeer {
		return nil, fmt.Errorf("fleet: fetch %s: every peer ejected: %w", fp, ErrNotFound)
	}
	return nil, ErrNotFound
}

func joinErr(acc, err error) error {
	switch {
	case err == nil:
		return acc
	case acc == nil:
		return err
	default:
		return errors.Join(acc, err)
	}
}

// bumpNotFound accounts a clean miss on a peer.
func (c *Client) bumpNotFound(id string) {
	c.mu.Lock()
	if st := c.health[id]; st != nil {
		st.notFound++
	}
	c.mu.Unlock()
}

// fetchFrom performs one HTTP attempt against one peer. retriable reports
// whether retrying the same peer could help (network/5xx/damage yes;
// auth rejection no).
func (c *Client) fetchFrom(ctx context.Context, p Peer, fp string) (seg *Segment, retriable bool, err error) {
	c.m.peerFetches.With(p.ID).Inc()
	fail := func(retriable bool, err error) (*Segment, bool, error) {
		c.m.peerFailures.With(p.ID).Inc()
		return nil, retriable, err
	}

	actx, cancel := context.WithTimeout(ctx, c.opts.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodGet,
		p.BaseURL+"/fleet/segments/"+fp, nil)
	if err != nil {
		return fail(false, err)
	}
	if c.opts.Secret != "" {
		req.Header.Set(HeaderSecret, c.opts.Secret)
	}
	req.Header.Set(HeaderRing, c.ring.Version())
	req.Header.Set(HeaderPeer, c.opts.Self.ID)

	resp, err := c.hc.Do(req)
	if err != nil {
		return fail(true, err)
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
	}()

	switch resp.StatusCode {
	case http.StatusOK:
		// fall through to the body
	case http.StatusNotFound:
		return nil, false, ErrNotFound
	case http.StatusConflict:
		return nil, false, &MismatchError{
			Peer: p.ID, Ours: c.ring.Version(), Theirs: resp.Header.Get(HeaderRing)}
	case http.StatusUnauthorized, http.StatusForbidden:
		return fail(false, fmt.Errorf("peer rejected fleet secret (%d)", resp.StatusCode))
	default:
		return fail(resp.StatusCode >= 500, fmt.Errorf("unexpected status %d", resp.StatusCode))
	}

	// A 200 under a different ring version means the peer skipped the
	// check (older build?); distrust it the same way a 409 is distrusted.
	if theirs := resp.Header.Get(HeaderRing); theirs != "" && theirs != c.ring.Version() {
		return nil, false, &MismatchError{Peer: p.ID, Ours: c.ring.Version(), Theirs: theirs}
	}
	meta, err := base64.StdEncoding.DecodeString(resp.Header.Get(HeaderMeta))
	if err != nil || len(meta) == 0 {
		return fail(false, fmt.Errorf("bad %s header: %v", HeaderMeta, err))
	}
	want, err := strconv.Atoi(resp.Header.Get(HeaderRecords))
	if err != nil || want <= 0 {
		return fail(false, fmt.Errorf("bad %s header %q", HeaderRecords, resp.Header.Get(HeaderRecords)))
	}
	if err := fault.Inject("fleet.fetch.body"); err != nil {
		// The fault point sits where the replica body transfer happens, so
		// chaos plans can stall or sever an adoption mid-flight.
		return fail(true, fmt.Errorf("segment body: %w", err))
	}
	// ReadSegment holds the whole body, so cap it at the most the
	// advertised record count can take.
	frames, err := wire.ReadSegment(io.LimitReader(resp.Body, wire.MaxSegmentSize(want)))
	if err != nil {
		// CRC mismatch, damaged framing or a dropped connection: the
		// salvaged prefix is worthless here — a replica must be whole.
		return fail(true, fmt.Errorf("segment body: %w", err))
	}
	if len(frames) != want {
		// Cleanly framed but short: the peer advertised more records than
		// it sent (truncated source segment). Never adopt a partial
		// characterization.
		return fail(true, fmt.Errorf("truncated segment: got %d records, want %d", len(frames), want))
	}
	return &Segment{Peer: p, Meta: meta, Frames: frames}, false, nil
}

// PeerStats is one peer's slice of Stats.
type PeerStats struct {
	ID string `json:"id"`
	// Healthy is false while the peer's breaker is open.
	Healthy bool `json:"healthy"`
	// Fetches counts attempts (successes, misses and failures alike);
	// Failures counts failed attempts; NotFound counts clean misses.
	Fetches  uint64 `json:"fetches"`
	Failures uint64 `json:"failures"`
	NotFound uint64 `json:"not_found,omitempty"`
}

// Stats is the Client's slice of GET /stats.
type Stats struct {
	Self        string      `json:"self"`
	RingVersion string      `json:"ring_version"`
	Ejected     int         `json:"ejected_peers,omitempty"`
	Mismatches  uint64      `json:"ring_mismatches,omitempty"`
	Coalesced   uint64      `json:"coalesced_fetches,omitempty"`
	Peers       []PeerStats `json:"peers"`
}

// Stats snapshots the client's health and traffic counters, read from the
// same instruments its Metrics registry renders.
func (c *Client) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Stats{
		Self:        c.opts.Self.ID,
		RingVersion: c.ring.Version(),
		Ejected:     int(c.m.ejectedPeers.Value()),
		Mismatches:  c.m.ringMismatches.Value(),
		Coalesced:   c.m.coalesced.Value(),
	}
	for _, p := range c.ring.Peers() {
		h := c.health[p.ID]
		if h == nil {
			continue // self
		}
		st.Peers = append(st.Peers, PeerStats{
			ID:       p.ID,
			Healthy:  !h.ejected,
			Fetches:  c.m.peerFetches.Value(p.ID),
			Failures: c.m.peerFailures.Value(p.ID),
			NotFound: h.notFound,
		})
	}
	return st
}
