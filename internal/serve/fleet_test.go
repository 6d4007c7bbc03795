package serve

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/wire"
	"repro/internal/xgene"
)

// fleetHarness is one federated daemon on a real listener.
type fleetHarness struct {
	srv  *Server
	base string
}

// startFleet boots n federated servers that all know each other; mod may
// adjust each server's options (store dirs, auth, limits) before New.
func startFleet(t *testing.T, n int, secret string, mod func(i int, o *Options)) []*fleetHarness {
	t.Helper()
	lns := make([]net.Listener, n)
	peers := make([]fleet.Peer, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		id := ln.Addr().String()
		peers[i] = fleet.Peer{ID: id, BaseURL: "http://" + id}
	}
	out := make([]*fleetHarness, n)
	for i := range lns {
		opts := Options{Fleet: &fleet.Options{
			Self:            peers[i],
			Peers:           peers,
			Secret:          secret,
			Backoff:         time.Millisecond,
			AttemptsPerPeer: 1,
			Timeout:         5 * time.Second,
		}}
		if mod != nil {
			mod(i, &opts)
		}
		s, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		hs := &http.Server{Handler: s}
		go hs.Serve(lns[i])
		t.Cleanup(func() {
			hs.Close()
			s.Close()
		})
		out[i] = &fleetHarness{srv: s, base: "http://" + peers[i].ID}
	}
	return out
}

func (h *fleetHarness) gridsRun() int { return h.srv.gridsRunCount() }

// streamBytes tails a campaign over HTTP to EOF.
func fleetStreamBytes(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/campaigns/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status = %d", resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestFleetReplicatesAcrossPeers(t *testing.T) {
	// The acceptance path: characterize on A, resubmit on B — B must
	// answer from A's committed segment with zero grids run and a
	// byte-identical stream, and persist the replica in its own store.
	hs := startFleet(t, 3, "hush", func(i int, o *Options) {
		o.StoreDir = t.TempDir()
	})
	a, b, c := hs[0], hs[1], hs[2]
	spec := testSpec(2)
	want := batchJSONL(t, spec)

	ca, cached, err := a.srv.Submit(spec, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("first submission must run")
	}
	waitForStatus(t, a.srv, ca.id, StatusDone)

	cb, cached, err := b.srv.Submit(spec, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Fatal("peer B must answer from replication, not schedule a run")
	}
	if got := b.gridsRun(); got != 0 {
		t.Fatalf("peer B ran %d grids, want 0", got)
	}
	if got := fleetStreamBytes(t, b.base, cb.id); !bytes.Equal(got, want) {
		t.Fatal("replicated stream is not byte-identical to the batch report")
	}
	if n := b.srv.metrics.fleetReplications.Value(); n != 1 {
		t.Fatalf("peer B replications = %d, want 1", n)
	}
	if _, ok := b.srv.store.Get(ca.fingerprint); !ok {
		t.Fatal("replica was not persisted in peer B's store")
	}
	if n := a.srv.metrics.fleetServed.Value(); n != 1 {
		t.Fatalf("peer A served = %d, want 1", n)
	}

	// C can now get it from A or B; either way, no local run.
	cc, cached, err := c.srv.Submit(spec, "", "")
	if err != nil || !cached {
		t.Fatalf("peer C: cached=%v err=%v", cached, err)
	}
	if got := c.gridsRun(); got != 0 {
		t.Fatalf("peer C ran %d grids, want 0", got)
	}
	if got := fleetStreamBytes(t, c.base, cc.id); !bytes.Equal(got, want) {
		t.Fatal("peer C stream is not byte-identical")
	}

	// A second submission on B is an ordinary cache hit — the fleet is
	// consulted once per miss, never per request.
	before := b.srv.fleet.Stats()
	if _, cached, err = b.srv.Submit(spec, "", ""); err != nil || !cached {
		t.Fatalf("resubmit on B: cached=%v err=%v", cached, err)
	}
	after := b.srv.fleet.Stats()
	for i := range after.Peers {
		if after.Peers[i].Fetches != before.Peers[i].Fetches {
			t.Fatal("a cache hit must not touch the fleet")
		}
	}
}

func TestFleetRingInfoAgreesAcrossPeers(t *testing.T) {
	hs := startFleet(t, 3, "", nil)
	var versions []string
	for _, h := range hs {
		resp, err := http.Get(h.base + "/fleet/ring")
		if err != nil {
			t.Fatal(err)
		}
		var info fleet.RingInfo
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if len(info.Peers) != 3 {
			t.Fatalf("ring reports %d peers", len(info.Peers))
		}
		versions = append(versions, info.Version)
	}
	if versions[0] != versions[1] || versions[1] != versions[2] {
		t.Fatalf("ring versions disagree: %v", versions)
	}
}

func TestFleetSecretGatesPeerProtocol(t *testing.T) {
	hs := startFleet(t, 2, "hush", nil)
	for _, tc := range []struct {
		secret string
		want   int
	}{
		{"", http.StatusForbidden},
		{"wrong", http.StatusForbidden},
		{"hush", http.StatusNotFound}, // authenticated; nothing committed yet
	} {
		req, _ := http.NewRequest("GET", hs[0].base+"/fleet/segments/00000000000000aa", nil)
		if tc.secret != "" {
			req.Header.Set(fleet.HeaderSecret, tc.secret)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("secret %q: status = %d, want %d", tc.secret, resp.StatusCode, tc.want)
		}
	}
	if n := hs[0].srv.metrics.fleetAuthFailures.Value(); n != 2 {
		t.Fatalf("fleet auth failures = %d, want 2: both rejections counted", n)
	}
	// The ring endpoint sits behind the same gate.
	resp, err := http.Get(hs[0].base + "/fleet/ring")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("/fleet/ring without the secret: status = %d, want 403", resp.StatusCode)
	}
}

func TestFleetBypassesTenantLimits(t *testing.T) {
	// The satellite contract: a noisy tenant that has exhausted its token
	// bucket must not starve replication — fleet fetches ride outside the
	// tenant keyring and rate limiter.
	hs := startFleet(t, 2, "hush", func(i int, o *Options) {
		o.AuthKeys = []Key{{Secret: "k-noisy", Tenant: "noisy"}}
		o.RateLimit = 0.0001 // one token, then a very long wait
		o.RateBurst = 1
	})
	a := hs[0]
	spec := testSpec(1)
	ca, _, err := a.srv.Submit(spec, "", "") // library path: admitted regardless of HTTP limits
	if err != nil {
		t.Fatal(err)
	}
	waitForStatus(t, a.srv, ca.id, StatusDone)

	// Burn the tenant's only token, then confirm it is throttled.
	do := func() int {
		body, _ := json.Marshal(spec)
		req, _ := http.NewRequest("POST", a.base+"/campaigns", bytes.NewReader(body))
		req.Header.Set("X-API-Key", "k-noisy")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	if got := do(); got != http.StatusOK {
		t.Fatalf("first tenant request: %d", got)
	}
	if got := do(); got != http.StatusTooManyRequests {
		t.Fatalf("second tenant request: %d, want 429", got)
	}

	// The tenant is starved; the fleet must not be.
	for i := 0; i < 5; i++ {
		req, _ := http.NewRequest("GET", a.base+"/fleet/segments/"+ca.fingerprint, nil)
		req.Header.Set(fleet.HeaderSecret, "hush")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("fleet fetch %d: status = %d while tenant throttled", i, resp.StatusCode)
		}
	}
	if got := do(); got != http.StatusTooManyRequests {
		t.Fatalf("fleet traffic refilled the tenant bucket? status = %d", got)
	}
}

// fakePeer runs a raw HTTP handler on a real listener and returns it as a
// fleet member, for injecting protocol-level misbehavior.
func fakePeer(t *testing.T, handler http.HandlerFunc) fleet.Peer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: handler}
	go hs.Serve(ln)
	t.Cleanup(func() { hs.Close() })
	id := ln.Addr().String()
	return fleet.Peer{ID: id, BaseURL: "http://" + id}
}

// newFederatedServer builds one Server whose only remote peer is the fake.
func newFederatedServer(t *testing.T, peer fleet.Peer) *Server {
	t.Helper()
	self := fleet.Peer{ID: "self.test:1", BaseURL: "http://self.test:1"}
	s, err := New(Options{Fleet: &fleet.Options{
		Self:            self,
		Peers:           []fleet.Peer{self, peer},
		Backoff:         time.Millisecond,
		AttemptsPerPeer: 1,
		Timeout:         5 * time.Second,
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// runsLocally submits the spec and asserts the full degradation contract:
// admitted, not cached, exactly one grid run, stream byte-identical.
func runsLocally(t *testing.T, s *Server, spec Spec) {
	t.Helper()
	c, cached, err := s.Submit(spec, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("degraded submission must schedule a local run")
	}
	waitForStatus(t, s, c.id, StatusDone)
	runs := s.gridsRunCount()
	if runs != 1 {
		t.Fatalf("grids run = %d, want 1", runs)
	}
}

// binarySegment renders n throwaway records in the wire's binary framing.
func binarySegment(t *testing.T, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.Write(wire.Header())
	var scratch []byte
	for i := 0; i < n; i++ {
		rec := core.RunRecord{Benchmark: fmt.Sprintf("b%d", i), Outcome: xgene.OutcomeOK}
		var err error
		scratch, err = wire.AppendBinaryRecord(scratch[:0], rec)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(scratch)
	}
	return buf.Bytes()
}

func TestFleetTruncatedSegmentRunsLocally(t *testing.T) {
	// The owner advertises 8 records but streams 3: the fetch must reject
	// the partial characterization and the submission must re-run whole.
	body := binarySegment(t, 3)
	peer := fakePeer(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(fleet.HeaderRing, r.Header.Get(fleet.HeaderRing))
		w.Header().Set(fleet.HeaderMeta, base64.StdEncoding.EncodeToString([]byte(`{"spec":{}}`)))
		w.Header().Set(fleet.HeaderRecords, "8")
		w.Write(body)
	})
	s := newFederatedServer(t, peer)
	runsLocally(t, s, testSpec(1))
	st := s.fleet.Stats()
	if len(st.Peers) != 1 || st.Peers[0].Failures == 0 {
		t.Fatalf("truncation must count as a peer failure: %+v", st.Peers)
	}
}

func TestFleetRingMismatchRunsLocally(t *testing.T) {
	peer := fakePeer(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(fleet.HeaderRing, "0000000000000bad")
		w.WriteHeader(http.StatusConflict)
	})
	s := newFederatedServer(t, peer)
	runsLocally(t, s, testSpec(1))
	if st := s.fleet.Stats(); st.Mismatches == 0 {
		t.Fatal("ring mismatch must be counted")
	}
	// A config fault is not a peer fault: no breaker, no failure count.
	if st := s.fleet.Stats(); !st.Peers[0].Healthy {
		t.Fatal("mismatching peer must not be ejected")
	}
}

func TestFleetImpersonatingMetaRunsLocally(t *testing.T) {
	// A peer answers with a VALID segment for some other spec. adoptRemote
	// must refuse it — meta that does not fingerprint back to the asked-for
	// key never impersonates the requested characterization.
	other := testSpec(1)
	other.Seed = 999 // a different measurement, hence a different fingerprint
	otherMeta, err := json.Marshal(metaOf(other.withDefaults(), 1,
		campaign.Stats{Runs: 2, Planned: 2}))
	if err != nil {
		t.Fatal(err)
	}
	body := binarySegment(t, 2)
	peer := fakePeer(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(fleet.HeaderRing, r.Header.Get(fleet.HeaderRing))
		w.Header().Set(fleet.HeaderMeta, base64.StdEncoding.EncodeToString(otherMeta))
		w.Header().Set(fleet.HeaderRecords, "2")
		w.Write(body)
	})
	s := newFederatedServer(t, peer)
	runsLocally(t, s, testSpec(1))
}

func TestFleetPeerDeathMidFetchRunsLocally(t *testing.T) {
	// The peer dies mid-body: headers committed, a fragment written, then
	// the connection is torn down. Run several submissions of the same
	// fingerprint concurrently so the single-flight path is exercised
	// under -race too.
	full := binarySegment(t, 6)
	peer := fakePeer(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(fleet.HeaderRing, r.Header.Get(fleet.HeaderRing))
		w.Header().Set(fleet.HeaderMeta, base64.StdEncoding.EncodeToString([]byte(`{"spec":{}}`)))
		w.Header().Set(fleet.HeaderRecords, "6")
		w.Write(full[:len(full)/2])
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		panic(http.ErrAbortHandler) // net/http aborts the connection
	})
	s := newFederatedServer(t, peer)
	spec := testSpec(1)
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, _, err := s.Submit(spec, "", "")
			if err == nil {
				waitForStatus(t, s, c.id, StatusDone)
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	runs := s.gridsRunCount()
	if runs != 1 {
		t.Fatalf("grids run = %d, want exactly 1 (shared local run)", runs)
	}
	want := batchJSONL(t, spec)
	c := s.lookup("c000000")
	if c == nil {
		t.Fatal("campaign missing")
	}
	got, _, status := c.next(context.Background(), 0)
	if status != StatusDone {
		t.Fatalf("campaign %s, want done", status)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("local fallback stream is not byte-identical")
	}
}

// TestFleetMetricsScopedToPeer pins per-instance fleet metrics with three
// peers in one process. C keeps a different secret, so the fetches A and
// B send it fail. Each peer's /stats fleet.peers counts equal the series
// of its own /metrics, and C, whose client never fetched, has no fetch
// series at all.
func TestFleetMetricsScopedToPeer(t *testing.T) {
	hs := startFleet(t, 3, "hush", func(i int, o *Options) {
		o.StoreDir = t.TempDir()
		if i == 2 {
			o.Fleet.Secret = "other"
		}
	})
	a, b, c := hs[0], hs[1], hs[2]
	spec := testSpec(1)
	ca, cached, err := a.srv.Submit(spec, "", "")
	if err != nil || cached {
		t.Fatalf("peer A: cached=%v err=%v, want a local run", cached, err)
	}
	waitForStatus(t, a.srv, ca.id, StatusDone)
	if _, cached, err := b.srv.Submit(spec, "", ""); err != nil || !cached {
		t.Fatalf("peer B: cached=%v err=%v, want a replica", cached, err)
	}

	for _, h := range []struct {
		name string
		*fleetHarness
	}{{"A", a}, {"B", b}, {"C", c}} {
		resp, err := http.Get(h.base + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		var stats statsResponse
		err = json.NewDecoder(resp.Body).Decode(&stats)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		m := scrapeMetrics(t, h.base)
		if err := obs.Lint(strings.NewReader(m)); err != nil {
			t.Fatalf("%s exposition lint: %v", h.name, err)
		}
		var fetches, failures uint64
		for _, p := range stats.Fleet.Peers {
			fetches += p.Fetches
			failures += p.Failures
			for _, pair := range []struct {
				family string
				stats  uint64
			}{{"fleet_peer_fetches_total", p.Fetches}, {"fleet_peer_failures_total", p.Failures}} {
				sample := pair.family + `{peer="` + p.ID + `"}`
				if pair.stats == 0 {
					if strings.Contains(m, sample) {
						t.Errorf("%s: /metrics has %s but /stats counts none", h.name, sample)
					}
				} else if got := metricValue(t, m, sample); got != float64(pair.stats) {
					t.Errorf("%s: /stats says %d for %s, /metrics says %g", h.name, pair.stats, sample, got)
				}
			}
		}
		switch h.name {
		case "A":
			if fetches == 0 || failures == 0 {
				t.Errorf("A: %d fetches, %d failures; want both above zero", fetches, failures)
			}
			if got := metricValue(t, m, "fleet_segments_served_total"); got != 1 {
				t.Errorf("A: fleet_segments_served_total = %g, want 1 (B's replica)", got)
			}
		case "B":
			if got := metricValue(t, m, "fleet_replications_total"); got != 1 {
				t.Errorf("B: fleet_replications_total = %g, want 1", got)
			}
		case "C":
			if fetches != 0 || strings.Contains(m, "fleet_peer_fetches_total") {
				t.Errorf("C never fetched, but /stats counts %d fetches or /metrics has a fetch series", fetches)
			}
		}
	}
}

// TestFleetSegmentMovesVerbatim: a segment crosses the fleet as the
// store's own bytes. The owner's 200 body is its segment file byte for
// byte, the replica the receiver installs is that file again, and the
// receiver streams the batch report.
func TestFleetSegmentMovesVerbatim(t *testing.T) {
	dirs := make([]string, 2)
	hs := startFleet(t, 2, "hush", func(i int, o *Options) {
		dirs[i] = t.TempDir()
		o.StoreDir = dirs[i]
	})
	a, b := hs[0], hs[1]
	spec := testSpec(2)
	ca, _, err := a.srv.Submit(spec, "", "")
	if err != nil {
		t.Fatal(err)
	}
	waitForStatus(t, a.srv, ca.id, StatusDone)
	e, ok := a.srv.store.Get(ca.fingerprint)
	if !ok {
		t.Fatal("owner committed no segment")
	}
	file, err := os.ReadFile(filepath.Join(dirs[0], e.Segment))
	if err != nil {
		t.Fatal(err)
	}

	req, err := http.NewRequest(http.MethodGet, a.base+"/fleet/segments/"+ca.fingerprint, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(fleet.HeaderSecret, "hush")
	req.Header.Set(fleet.HeaderRing, a.srv.fleet.Ring().Version())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET segment: status %d, err %v", resp.StatusCode, err)
	}
	if !bytes.Equal(body, file) {
		t.Fatalf("served body (%d bytes) is not the owner's segment file (%d bytes)", len(body), len(file))
	}

	cb, cached, err := b.srv.Submit(spec, "", "")
	if err != nil || !cached {
		t.Fatalf("receiver: cached=%v err=%v, want a replica", cached, err)
	}
	replica, err := os.ReadFile(filepath.Join(dirs[1], e.Segment))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(replica, file) {
		t.Fatal("installed replica is not the owner's segment file")
	}
	if got := fleetStreamBytes(t, b.base, cb.id); !bytes.Equal(got, batchJSONL(t, spec)) {
		t.Fatal("receiver's stream is not byte-identical to the batch report")
	}
}

// TestFleetMemoryOnlyPeerServesSegment: a peer started without StoreDir
// serves a finished campaign from its private store like any other. The
// fetching peer, which has a store directory, adopts the segment without
// running a grid, persists it, and streams bytes identical to a daemon
// that ran the spec itself.
func TestFleetMemoryOnlyPeerServesSegment(t *testing.T) {
	hs := startFleet(t, 2, "hush", func(i int, o *Options) {
		if i == 1 {
			o.StoreDir = t.TempDir()
		}
	})
	a, b := hs[0], hs[1]
	spec := testSpec(2)
	ca, _, err := a.srv.Submit(spec, "", "")
	if err != nil {
		t.Fatal(err)
	}
	waitForStatus(t, a.srv, ca.id, StatusDone)

	cb, cached, err := b.srv.Submit(spec, "", "")
	if err != nil || !cached {
		t.Fatalf("store-backed peer: cached=%v err=%v, want the memory-only peer's segment", cached, err)
	}
	if got := b.gridsRun(); got != 0 {
		t.Fatalf("store-backed peer ran %d grids, want 0", got)
	}
	if n := a.srv.metrics.fleetServed.Value(); n != 1 {
		t.Fatalf("memory-only peer served %d segments, want 1", n)
	}
	if _, ok := b.srv.store.Get(cb.fingerprint); !ok {
		t.Fatal("adopted segment was not persisted")
	}

	_, ref := storeServer(t, t.TempDir(), Options{})
	want := streamBytes(t, ref, submit(t, ref, spec, http.StatusAccepted).ID)
	if got := fleetStreamBytes(t, b.base, cb.id); !bytes.Equal(got, want) {
		t.Fatal("adopted stream differs from a store-backed daemon's own run")
	}
	if got := fleetStreamBytes(t, a.base, ca.id); !bytes.Equal(got, want) {
		t.Fatal("memory-only peer's stream differs from a store-backed daemon's own run")
	}
}
