package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
)

// testSpec is a small grid with a deep-undervolt setup so streams cross
// the crash/hang recovery paths, not just clean runs.
func testSpec(workers int) Spec {
	return Spec{
		Seed:        7,
		Benches:     []string{"mcf", "cactusADM"},
		VoltagesMV:  []float64{980, 880, 780},
		Repetitions: 2,
		Workers:     workers,
	}
}

// expectedRecords computes the spec's grid size.
func expectedRecords(s Spec) int {
	return len(s.Benches) * len(s.VoltagesMV) * s.Repetitions
}

// batchJSONL runs the spec's grid serially through the engine (no daemon)
// and renders the batch report as JSON Lines — the reference byte stream.
func batchJSONL(t *testing.T, spec Spec) []byte {
	t.Helper()
	grid, err := spec.Grid()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := campaign.RunGrid(campaign.Config{Workers: 1, Seed: spec.Seed}, grid)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, rec := range rep.Records {
		if err := enc.Encode(rec); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// submit POSTs a spec and decodes the reply.
func submit(t *testing.T, ts *httptest.Server, spec Spec, wantStatus int) submitResponse {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(ts.URL+"/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit status %d, want %d: %s", resp.StatusCode, wantStatus, msg)
	}
	var sr submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	return sr
}

// streamBytes tails a campaign's NDJSON stream to EOF.
func streamBytes(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	data, err := tailCampaign(ts, id)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// tailCampaign is streamBytes for client goroutines: it reports failures
// as errors instead of stopping the test.
func tailCampaign(ts *httptest.Server, id string) ([]byte, error) {
	resp, err := http.Get(ts.URL + "/campaigns/" + id + "/stream")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("stream status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		return nil, fmt.Errorf("stream content type %q", ct)
	}
	return io.ReadAll(resp.Body)
}

// TestStreamMatchesBatchAcrossWorkers is the acceptance invariant: a
// campaign submitted to the daemon streams records byte-identical to the
// serial driver's batch output, at every worker count. The stream is
// opened while the campaign runs, so live tailing (not just cache replay)
// is what's measured.
func TestStreamMatchesBatchAcrossWorkers(t *testing.T) {
	want := batchJSONL(t, testSpec(0))
	if len(want) == 0 {
		t.Fatal("reference batch stream is empty")
	}
	for _, workers := range []int{1, 4, 16} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			// A fresh server per worker count: the fingerprint ignores
			// Workers, so a shared server would answer from cache instead
			// of re-running.
			_, ts := newTestServer(t, Options{})
			sr := submit(t, ts, testSpec(workers), http.StatusAccepted)
			if sr.Cached {
				t.Fatal("first submission reported cached")
			}
			got := streamBytes(t, ts, sr.ID)
			if !bytes.Equal(got, want) {
				t.Errorf("streamed bytes differ from serial batch output\ngot  %d bytes\nwant %d bytes", len(got), len(want))
			}
		})
	}
}

// TestRecordBufferPresized: an exhaustive grid's record index (the arena's
// line ends) is sized once, before the first shard lands, to exactly the
// grid's run count.
func TestRecordBufferPresized(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	spec := testSpec(4)
	sr := submit(t, ts, spec, http.StatusAccepted)
	streamBytes(t, ts, sr.ID)
	c := s.lookup(sr.ID)
	c.mu.Lock()
	n, capacity := len(c.ends), cap(c.ends)
	c.mu.Unlock()
	if want := expectedRecords(spec); n != want || capacity != want {
		t.Errorf("record index len %d cap %d, want both %d", n, capacity, want)
	}
}

// TestRecordBufferReserveBounded: the repetition count is the client's, so
// a grid larger than maxReserve reserves only maxReserve records up front
// and appends the rest as they arrive.
func TestRecordBufferReserveBounded(t *testing.T) {
	spec := testSpec(1)
	spec.Repetitions = 20000
	g, err := spec.Grid()
	if err != nil {
		t.Fatal(err)
	}
	c := &Campaign{}
	c.reserve(gridRuns(g))
	if got := cap(c.ends); got != maxReserve {
		t.Errorf("a %d-run grid reserved %d records, want %d", gridRuns(g), got, maxReserve)
	}
}

// TestCacheHit pins the characterization cache: an identical resubmission
// is served from the buffer without re-running the grid, and replays the
// same bytes.
func TestCacheHit(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	spec := testSpec(4)
	first := submit(t, ts, spec, http.StatusAccepted)
	firstStream := streamBytes(t, ts, first.ID) // drains to completion

	// Same characterization at a different worker count: Workers is not
	// part of the fingerprint, so this must be a cache hit.
	respec := spec
	respec.Workers = 16
	second := submit(t, ts, respec, http.StatusOK)
	if !second.Cached || second.ID != first.ID {
		t.Fatalf("resubmission not served from cache: %+v", second)
	}
	if got := streamBytes(t, ts, second.ID); !bytes.Equal(got, firstStream) {
		t.Error("cache replay differs from the original stream")
	}

	gridsRun, cacheHits := s.gridsRunCount(), s.metrics.submissions.With("cached").Value()
	if gridsRun != 1 {
		t.Errorf("grids run = %d, want 1 (cache hit must not re-run)", gridsRun)
	}
	if cacheHits != 1 {
		t.Errorf("cache hits = %d, want 1", cacheHits)
	}

	// A genuinely different spec (distinct seed) is a miss.
	other := spec
	other.Seed = 8
	third := submit(t, ts, other, http.StatusAccepted)
	if third.Cached || third.ID == first.ID {
		t.Errorf("distinct seed served from cache: %+v", third)
	}
	streamBytes(t, ts, third.ID)

	var stats statsResponse
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Submissions != 3 || stats.CacheHits != 1 || stats.GridsRun != 2 {
		t.Errorf("stats = %+v, want 3 submissions / 1 hit / 2 grids", stats)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	bad := []Spec{
		{},        // zero seed
		{Seed: 1}, // no benches
		{Seed: 1, Benches: []string{"nope"}, VoltagesMV: []float64{980}, Repetitions: 1},                      // unknown bench
		{Seed: 1, Benches: []string{"mcf"}, Repetitions: 1},                                                   // no voltages
		{Seed: 1, Benches: []string{"mcf"}, VoltagesMV: []float64{980}},                                       // no reps
		{Seed: 1, Benches: []string{"mcf"}, VoltagesMV: []float64{980}, Repetitions: 1, Corner: "XYZ"},        // bad corner
		{Seed: 1, Benches: []string{"mcf"}, VoltagesMV: []float64{980}, Repetitions: 1, Core: "bogus"},        // bad core
		{Seed: 1, Benches: []string{"mcf"}, VoltagesMV: []float64{980}, Repetitions: 1, Core: "pmd1.c2,junk"}, // trailing garbage
		{Seed: 1, Benches: []string{"mcf"}, VoltagesMV: []float64{980}, Repetitions: 1, Core: "pmd9.c9"},      // out of range
		{Seed: 1, Benches: []string{"mcf"}, VoltagesMV: []float64{980}, Repetitions: 1, CrossSeed: true},      // cross_seed is adaptive-only
		{Seed: 1, Strategy: StrategyAdaptive, Benches: []string{"mcf"}, Repetitions: 1, CrossSeed: true},      // cross_seed without a fleet
	}
	for i, spec := range bad {
		body, _ := json.Marshal(spec)
		resp, err := http.Post(ts.URL+"/campaigns", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad spec %d accepted with status %d", i, resp.StatusCode)
		}
	}
	resp, err := http.Post(ts.URL+"/campaigns", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON accepted with status %d", resp.StatusCode)
	}
	if resp, err := http.Get(ts.URL + "/campaigns/cXXXXXX"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown campaign status %d", resp.StatusCode)
		}
	}
}

// TestQueueBound pins the bounded run queue: with the scheduler gated, a
// running campaign plus a full queue yields 503 for the next submission.
func TestQueueBound(t *testing.T) {
	s, ts := newTestServer(t, Options{QueueDepth: 1, Concurrency: 1})
	gate := make(chan struct{})
	s.gate = gate

	mk := func(seed uint64) Spec {
		sp := testSpec(1)
		sp.Seed = seed
		return sp
	}
	running := submit(t, ts, mk(100), http.StatusAccepted)
	// Wait until the scheduler picked it up (it parks on the gate after
	// setRunning), so the queue slot is demonstrably free.
	deadline := time.Now().Add(5 * time.Second)
	for s.lookup(running.ID).Status() != StatusRunning {
		if time.Now().After(deadline) {
			t.Fatal("campaign never started")
		}
		time.Sleep(time.Millisecond)
	}
	queued := submit(t, ts, mk(101), http.StatusAccepted)
	rejected := mk(102)
	body, _ := json.Marshal(rejected)
	resp, err := http.Post(ts.URL+"/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-bound submission status %d, want 503", resp.StatusCode)
	}

	// The rejection rolled back cleanly: retrying after the queue drains
	// works.
	// A closed gate lets every subsequent execute pass immediately.
	close(gate)
	streamBytes(t, ts, running.ID)
	streamBytes(t, ts, queued.ID)
	retry := submit(t, ts, rejected, http.StatusAccepted)
	if retry.Cached {
		t.Error("rejected submission left a cache entry behind")
	}
	streamBytes(t, ts, retry.ID)
}

// TestFailedCampaign pins run-time failure handling: a spec that passes
// shape validation but fails on the bench (non-positive voltage) ends
// failed, terminates its stream, and does not satisfy its fingerprint —
// resubmission schedules a fresh attempt.
func TestFailedCampaign(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	spec := Spec{
		Seed:        9,
		Benches:     []string{"mcf"},
		VoltagesMV:  []float64{-5},
		Repetitions: 1,
	}
	sr := submit(t, ts, spec, http.StatusAccepted)
	streamBytes(t, ts, sr.ID) // must terminate despite the failure

	resp, err := http.Get(ts.URL + "/campaigns/" + sr.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v View
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	if v.Status != StatusFailed || v.Error == "" {
		t.Fatalf("failed campaign view = %+v", v)
	}

	again := submit(t, ts, spec, http.StatusAccepted)
	if again.Cached || again.ID == sr.ID {
		t.Errorf("failed campaign served from cache: %+v", again)
	}
	streamBytes(t, ts, again.ID)
	gridsRun := s.gridsRunCount()
	if gridsRun != 2 {
		t.Errorf("grids run = %d, want 2 (failure must not be cached)", gridsRun)
	}
}

// TestSSEStream checks the event-stream framing of the same records.
func TestSSEStream(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	spec := Spec{Seed: 11, Benches: []string{"mcf"}, VoltagesMV: []float64{980}, Repetitions: 2}
	sr := submit(t, ts, spec, http.StatusAccepted)

	req, _ := http.NewRequest("GET", ts.URL+"/campaigns/"+sr.ID+"/stream", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("SSE content type %q", ct)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if got := bytes.Count(data, []byte("data: ")); got != expectedRecords(spec)+1 {
		t.Errorf("SSE frames = %d, want %d records + done", got, expectedRecords(spec))
	}
	if !bytes.Contains(data, []byte("event: done")) {
		t.Error("SSE stream missing done event")
	}
}

// TestSpecFingerprint covers the cache key itself.
func TestSpecFingerprint(t *testing.T) {
	base := testSpec(0)
	if base.Fingerprint() != base.Fingerprint() {
		t.Error("fingerprint not stable")
	}
	withWorkers := base
	withWorkers.Workers = 9
	if base.Fingerprint() != withWorkers.Fingerprint() {
		t.Error("worker count changed the fingerprint")
	}
	defaulted := base.withDefaults()
	if base.Fingerprint() != defaulted.Fingerprint() {
		t.Error("defaulting changed the fingerprint")
	}
	// BoardSeed 0 is documented as "the campaign seed": both spellings of
	// the same board must share a cache entry.
	explicit := base
	explicit.BoardSeed = base.Seed
	if base.Fingerprint() != explicit.Fingerprint() {
		t.Error("board_seed 0 and board_seed == seed fingerprint differently")
	}
	for name, mutate := range map[string]func(*Spec){
		"seed":       func(s *Spec) { s.Seed++ },
		"board_seed": func(s *Spec) { s.BoardSeed = 99 },
		"corner":     func(s *Spec) { s.Corner = "TFF" },
		"core":       func(s *Spec) { s.Core = "weakest" },
		"bench":      func(s *Spec) { s.Benches = append(s.Benches, "namd") },
		"voltage":    func(s *Spec) { s.VoltagesMV[0] += 5 },
		"reps":       func(s *Spec) { s.Repetitions++ },
		"trefp":      func(s *Spec) { s.TREFPMillis = 32 },
		"name":       func(s *Spec) { s.Name = "other" },
	} {
		mutated := base
		mutated.Benches = append([]string(nil), base.Benches...)
		mutated.VoltagesMV = append([]float64(nil), base.VoltagesMV...)
		mutate(&mutated)
		if mutated.Fingerprint() == base.Fingerprint() {
			t.Errorf("%s change did not change the fingerprint", name)
		}
	}
}
