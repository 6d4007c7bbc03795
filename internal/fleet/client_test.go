package fleet

import (
	"bytes"
	"context"
	"encoding/base64"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/wire"
	"repro/internal/xgene"
)

// testSegment renders n records as a binary wire segment, the same bytes a
// real peer streams from its store.
func testSegment(t *testing.T, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.Write(wire.Header())
	for i := 0; i < n; i++ {
		rec := core.RunRecord{
			Benchmark:  fmt.Sprintf("bench-%d", i),
			Setup:      core.NominalSetup(),
			Repetition: i,
			Outcome:    xgene.OutcomeOK,
			DroopMV:    float64(10 + i),
		}
		b, err := wire.AppendBinaryRecord(nil, rec)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
	}
	return buf.Bytes()
}

const testMeta = `{"spec":{"benches":["mcf"]},"workers":1}`

// segmentHandler answers GET /fleet/segments/{fp} the way a healthy peer
// does: echoing the requester's ring version (simulating agreement) and
// advertising `records` records over `body`.
func segmentHandler(records int, body []byte) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(HeaderRing, r.Header.Get(HeaderRing))
		w.Header().Set(HeaderMeta, base64.StdEncoding.EncodeToString([]byte(testMeta)))
		w.Header().Set(HeaderRecords, strconv.Itoa(records))
		w.Write(body)
	}
}

// newTestClient builds a Client whose remote peers are the given test
// servers; self is a synthetic member that is never dialed.
func newTestClient(t *testing.T, opts Options, servers ...*httptest.Server) *Client {
	t.Helper()
	self := Peer{ID: "self.invalid:1", BaseURL: "http://self.invalid:1"}
	peers := []Peer{self}
	for _, ts := range servers {
		id := strings.TrimPrefix(ts.URL, "http://")
		peers = append(peers, Peer{ID: id, BaseURL: ts.URL})
	}
	opts.Self = self
	opts.Peers = peers
	if opts.Backoff == 0 {
		opts.Backoff = time.Millisecond
	}
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestFetchHappyPath(t *testing.T) {
	body := testSegment(t, 3)
	ts := httptest.NewServer(segmentHandler(3, body))
	defer ts.Close()
	c := newTestClient(t, Options{}, ts)

	seg, err := c.Fetch(context.Background(), "00000000000000aa")
	if err != nil {
		t.Fatal(err)
	}
	if len(seg.Frames) != 3 {
		t.Fatalf("frames = %d, want 3", len(seg.Frames))
	}
	if string(seg.Meta) != testMeta {
		t.Fatalf("meta = %s", seg.Meta)
	}
	for _, f := range seg.Frames {
		if len(f.Line) == 0 || f.Line[len(f.Line)-1] != '\n' {
			t.Fatal("frame line not a canonical JSONL line")
		}
	}
	st := c.Stats()
	if len(st.Peers) != 1 || st.Peers[0].Fetches != 1 || st.Peers[0].Failures != 0 {
		t.Fatalf("stats = %+v", st.Peers)
	}
}

func TestFetchNotFoundStaysHealthy(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.NotFound(w, r)
	}))
	defer ts.Close()
	c := newTestClient(t, Options{FailureThreshold: 1}, ts)
	for i := 0; i < 5; i++ {
		if _, err := c.Fetch(context.Background(), fmt.Sprintf("%016x", i)); !errors.Is(err, ErrNotFound) {
			t.Fatalf("err = %v, want ErrNotFound", err)
		}
	}
	st := c.Stats()
	if !st.Peers[0].Healthy || st.Peers[0].Failures != 0 || st.Peers[0].NotFound != 5 {
		t.Fatalf("a 404ing peer must stay healthy: %+v", st.Peers[0])
	}
}

func TestFetchFailsOverToPeerThatHasIt(t *testing.T) {
	body := testSegment(t, 2)
	miss := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.NotFound(w, r)
	}))
	defer miss.Close()
	hit := httptest.NewServer(segmentHandler(2, body))
	defer hit.Close()
	c := newTestClient(t, Options{}, miss, hit)

	// Whatever the ring order, the fetch must land on the peer that has
	// the segment — the owner may not be the peer that ran it.
	seg, err := c.Fetch(context.Background(), "00000000000000bb")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimPrefix(hit.URL, "http://"); seg.Peer.ID != got {
		t.Fatalf("served by %s, want %s", seg.Peer.ID, got)
	}
}

func TestFetchRejectsTruncatedSegment(t *testing.T) {
	body := testSegment(t, 2)
	ts := httptest.NewServer(segmentHandler(5, body)) // advertises 5, sends 2
	defer ts.Close()
	c := newTestClient(t, Options{AttemptsPerPeer: 1}, ts)
	_, err := c.Fetch(context.Background(), "00000000000000cc")
	if err == nil || errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want truncation failure", err)
	}
	if !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("err = %v", err)
	}
	if st := c.Stats(); st.Peers[0].Failures != 1 {
		t.Fatalf("stats = %+v", st.Peers[0])
	}
}

func TestFetchRejectsCorruptSegment(t *testing.T) {
	body := testSegment(t, 3)
	body[len(body)-2] ^= 0xff // flip a CRC byte of the last record
	ts := httptest.NewServer(segmentHandler(3, body))
	defer ts.Close()
	c := newTestClient(t, Options{AttemptsPerPeer: 1}, ts)
	_, err := c.Fetch(context.Background(), "00000000000000dd")
	if err == nil || errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want CRC failure", err)
	}
}

func TestFetchBoundsOversizedBody(t *testing.T) {
	// A peer that advertises one record and then streams without end must
	// be cut off at the most one record can take, not read until the
	// attempt's deadline.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(HeaderRing, r.Header.Get(HeaderRing))
		w.Header().Set(HeaderMeta, base64.StdEncoding.EncodeToString([]byte(testMeta)))
		w.Header().Set(HeaderRecords, "1")
		w.Write(wire.Header())
		junk := make([]byte, 32<<10)
		for r.Context().Err() == nil {
			if _, err := w.Write(junk); err != nil {
				return
			}
		}
	}))
	defer ts.Close()
	c := newTestClient(t, Options{AttemptsPerPeer: 1, Timeout: time.Minute}, ts)
	start := time.Now()
	_, err := c.Fetch(context.Background(), "00000000000000de")
	if err == nil || errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want a damaged-segment failure", err)
	}
	if d := time.Since(start); d > 20*time.Second {
		t.Fatalf("oversized body took %v to refuse, want well under the %v timeout", d, time.Minute)
	}
}

func TestFetchRingMismatchAborts(t *testing.T) {
	for name, handler := range map[string]http.HandlerFunc{
		"409": func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set(HeaderRing, "deadbeefdeadbeef")
			w.WriteHeader(http.StatusConflict)
		},
		"200-wrong-version": func(w http.ResponseWriter, r *http.Request) {
			h := segmentHandler(1, testSegment(t, 1))
			w.Header().Set(HeaderRing, "deadbeefdeadbeef")
			// segmentHandler would echo; pre-set and let it overwrite safely.
			w.Header().Set(HeaderMeta, base64.StdEncoding.EncodeToString([]byte(testMeta)))
			w.Header().Set(HeaderRecords, "1")
			_ = h
			w.Write(testSegment(t, 1))
		},
	} {
		t.Run(name, func(t *testing.T) {
			ts := httptest.NewServer(handler)
			defer ts.Close()
			c := newTestClient(t, Options{}, ts)
			_, err := c.Fetch(context.Background(), "00000000000000ee")
			var mm *MismatchError
			if !errors.As(err, &mm) {
				t.Fatalf("err = %v, want MismatchError", err)
			}
			if mm.Theirs != "deadbeefdeadbeef" || mm.Ours != c.Ring().Version() {
				t.Fatalf("mismatch = %+v", mm)
			}
			if st := c.Stats(); st.Mismatches != 1 {
				t.Fatalf("mismatches = %d, want 1", st.Mismatches)
			}
			// A config fault, not a peer fault: the peer stays healthy.
			if st := c.Stats(); !st.Peers[0].Healthy {
				t.Fatal("mismatching peer must not be ejected")
			}
		})
	}
}

func TestHealthEjectionAndHalfOpenProbe(t *testing.T) {
	var failing atomic.Bool
	failing.Store(true)
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		if failing.Load() {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		segmentHandler(1, testSegment(t, 1))(w, r)
	}))
	defer ts.Close()
	c := newTestClient(t, Options{
		AttemptsPerPeer:  1,
		FailureThreshold: 2,
		ProbeAfter:       time.Minute,
	}, ts)
	clock := time.Unix(1000, 0)
	c.now = func() time.Time { return clock }

	ctx := context.Background()
	// Two consecutive failures trip the breaker.
	for i := 0; i < 2; i++ {
		if _, err := c.Fetch(ctx, "00000000000000f0"); err == nil {
			t.Fatal("want error")
		}
	}
	if got := hits.Load(); got != 2 {
		t.Fatalf("hits = %d, want 2", got)
	}
	if st := c.Stats(); st.Peers[0].Healthy || st.Ejected != 1 {
		t.Fatalf("peer should be ejected: %+v", st)
	}
	// Ejected: fetches skip the peer entirely and degrade to a miss.
	if _, err := c.Fetch(ctx, "00000000000000f1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound (degraded to local compute)", err)
	}
	if got := hits.Load(); got != 2 {
		t.Fatalf("ejected peer was dialed: hits = %d", got)
	}
	// After ProbeAfter, exactly one half-open probe goes through; a
	// failure re-ejects for another full interval.
	clock = clock.Add(2 * time.Minute)
	if _, err := c.Fetch(ctx, "00000000000000f2"); errors.Is(err, ErrNotFound) || err == nil {
		t.Fatalf("probe should have been attempted and failed: %v", err)
	}
	if got := hits.Load(); got != 3 {
		t.Fatalf("hits = %d, want 3 (one probe)", got)
	}
	if _, err := c.Fetch(ctx, "00000000000000f3"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("re-ejected peer was not skipped: %v", err)
	}
	if got := hits.Load(); got != 3 {
		t.Fatalf("hits = %d, want 3", got)
	}
	// Peer recovers: the next probe succeeds and re-admits it.
	failing.Store(false)
	clock = clock.Add(2 * time.Minute)
	if _, err := c.Fetch(ctx, "00000000000000f4"); err != nil {
		t.Fatalf("recovered probe: %v", err)
	}
	if st := c.Stats(); !st.Peers[0].Healthy || st.Ejected != 0 {
		t.Fatalf("peer should be re-admitted: %+v", st)
	}
	// And stays admitted for ordinary traffic.
	if _, err := c.Fetch(ctx, "00000000000000f5"); err != nil {
		t.Fatal(err)
	}
}

func TestFetchSingleFlight(t *testing.T) {
	var hits atomic.Int64
	entered := make(chan struct{})
	release := make(chan struct{})
	body := testSegment(t, 2)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			close(entered)
		}
		<-release
		segmentHandler(2, body)(w, r)
	}))
	defer ts.Close()
	c := newTestClient(t, Options{}, ts)

	const joiners = 8
	var wg sync.WaitGroup
	errs := make([]error, joiners+1)
	segs := make([]*Segment, joiners+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		segs[0], errs[0] = c.Fetch(context.Background(), "00000000000000aa")
	}()
	<-entered // leader is inside the peer handler; the flight is registered
	for i := 1; i <= joiners; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			segs[i], errs[i] = c.Fetch(context.Background(), "00000000000000aa")
		}(i)
	}
	// Joiners must coalesce, not dial. Wait for them to park on the
	// flight, then release the one real round-trip.
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := c.m.coalesced.Value()
		if n == joiners {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d joiners coalesced", n, joiners)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("fetch %d: %v", i, err)
		}
		if segs[i] == nil || len(segs[i].Frames) != 2 {
			t.Fatalf("fetch %d: bad segment", i)
		}
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("peer dialed %d times, want 1 (single-flight)", got)
	}
}

func TestFetchDeadPeerIsBoundedAndDegrades(t *testing.T) {
	// A peer that is simply gone (connection refused) must cost bounded
	// retries, then trip the breaker — never hang or error the submission.
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close() // port is now refused
	id := strings.TrimPrefix(dead.URL, "http://")
	self := Peer{ID: "self.invalid:1", BaseURL: "http://self.invalid:1"}
	c, err := New(Options{
		Self:             self,
		Peers:            []Peer{self, {ID: id, BaseURL: dead.URL}},
		AttemptsPerPeer:  2,
		Backoff:          time.Millisecond,
		FailureThreshold: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := c.Fetch(context.Background(), "00000000000000ab"); err == nil {
		t.Fatal("want error")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("dead-peer fetch took %v, want bounded", d)
	}
	if st := c.Stats(); st.Peers[0].Healthy {
		t.Fatalf("dead peer should be ejected: %+v", st.Peers[0])
	}
	// With every peer ejected the fleet degrades to a clean local miss.
	if _, err := c.Fetch(context.Background(), "00000000000000ac"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}
