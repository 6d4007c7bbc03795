package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// scrapeMetrics GETs /metrics and returns the exposition body after
// checking the content type.
func scrapeMetrics(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Errorf("/metrics content type %q, want %q", ct, obs.ContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// metricValue extracts one sample's value from an exposition body.
// sample is the full sample name including any label set, e.g.
// `campaignd_submissions_total{result="accepted"}`.
func metricValue(t *testing.T, body, sample string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, sample) {
			continue
		}
		rest := line[len(sample):]
		if !strings.HasPrefix(rest, " ") {
			continue // longer name sharing the prefix
		}
		var v float64
		if _, err := fmt.Sscanf(rest, "%g", &v); err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		return v
	}
	t.Fatalf("sample %q not found in exposition", sample)
	return 0
}

// TestMetricsEndpoint pins the /metrics surface: the exposition parses
// under the strict linter (well-formed lines, declared families, no
// duplicates, cumulative histogram buckets), includes every layer's
// families, and moves when campaigns run. The server has a store, so the
// store's families join the scrape.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{StoreDir: t.TempDir()})
	before := scrapeMetrics(t, ts.URL)
	if err := obs.Lint(strings.NewReader(before)); err != nil {
		t.Fatalf("exposition lint: %v", err)
	}
	acceptedBefore := metricValue(t, before, `campaignd_submissions_total{result="accepted"}`)
	cachedBefore := metricValue(t, before, `campaignd_submissions_total{result="cached"}`)

	spec := testSpec(2)
	spec.Seed = 4242
	sr := submit(t, ts, spec, http.StatusAccepted)
	streamBytes(t, ts, sr.ID)
	submit(t, ts, spec, http.StatusOK) // cache hit

	after := scrapeMetrics(t, ts.URL)
	if err := obs.Lint(strings.NewReader(after)); err != nil {
		t.Fatalf("exposition lint after traffic: %v", err)
	}
	if got := metricValue(t, after, `campaignd_submissions_total{result="accepted"}`); got != acceptedBefore+1 {
		t.Errorf("accepted submissions %g, want %g", got, acceptedBefore+1)
	}
	if got := metricValue(t, after, `campaignd_submissions_total{result="cached"}`); got != cachedBefore+1 {
		t.Errorf("cached submissions %g, want %g", got, cachedBefore+1)
	}

	// Every layer's families must be present in one scrape: the server's
	// own (service, engine, wire) and its store's, a single pane of glass.
	// Among them are the seven perfbench's layer model reads, so a rename
	// fails here instead of silently zeroing a per-layer number.
	for _, family := range []string{
		"campaignd_submissions_total",
		"campaignd_campaigns_run_total",
		"campaignd_queue_length",
		"campaignd_queue_wait_seconds_bucket",
		"campaignd_active_subscribers",
		"campaignd_stream_bytes_total",
		"campaignd_draining",
		"campaign_run_seconds_bucket",
		"campaign_runs_total",
		"campaign_planned_runs_total",
		"campaign_board_fabrications_total",
		"campaign_board_pool_checkouts_total",
		"store_segments",
		"store_commits_total",
		"store_commit_seconds_bucket",
		"store_segment_loads_total",
		"wire_frames_encoded_total",
		"wire_encoded_bytes_total",
	} {
		if !strings.Contains(after, "\n"+family) && !strings.HasPrefix(after, family) {
			t.Errorf("family %s missing from exposition", family)
		}
	}

	// The campaign actually streamed: the engine histogram observed a run
	// and the stream byte counter moved.
	if got := metricValue(t, after, "campaign_run_seconds_count"); got < 1 {
		t.Errorf("campaign_run_seconds_count = %g, want >= 1", got)
	}
	if got := metricValue(t, after, "campaignd_stream_bytes_total"); got <= 0 {
		t.Errorf("campaignd_stream_bytes_total = %g, want > 0", got)
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for capturing the server's
// structured log stream (the scheduler logs from its own goroutines).
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestTraceIDPropagation pins the trace lifecycle: the ID minted (or
// adopted) at POST appears in the submit response body and X-Trace-ID
// header, in the campaign view, in the stream's X-Trace-ID header, and in
// every structured log line for the campaign — and a cache hit echoes the
// ORIGINAL campaign's ID, because the trace follows the measurement, not
// the request.
func TestTraceIDPropagation(t *testing.T) {
	logs := &syncBuffer{}
	logger := slog.New(slog.NewJSONHandler(logs, nil))
	_, ts := newTestServer(t, Options{Logger: logger})

	const clientTrace = "e2e-test-trace-0001"
	spec := testSpec(1)
	spec.Seed = 5151
	body, _ := json.Marshal(spec)
	req, _ := http.NewRequest("POST", ts.URL+"/campaigns", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Trace-ID", clientTrace)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var sr submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if sr.TraceID != clientTrace {
		t.Fatalf("response trace_id %q, want adopted client trace %q", sr.TraceID, clientTrace)
	}
	if h := resp.Header.Get("X-Trace-ID"); h != clientTrace {
		t.Errorf("submit X-Trace-ID header %q, want %q", h, clientTrace)
	}

	// Stream metadata carries the same ID (header only — the NDJSON body
	// stays byte-identical to the batch report).
	streamResp, err := http.Get(ts.URL + "/campaigns/" + sr.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	if h := streamResp.Header.Get("X-Trace-ID"); h != clientTrace {
		t.Errorf("stream X-Trace-ID header %q, want %q", h, clientTrace)
	}
	io.Copy(io.Discard, streamResp.Body)
	streamResp.Body.Close()

	// The campaign view reports it.
	getResp, err := http.Get(ts.URL + "/campaigns/" + sr.ID)
	if err != nil {
		t.Fatal(err)
	}
	var v View
	if err := json.NewDecoder(getResp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if v.TraceID != clientTrace {
		t.Errorf("view trace_id %q, want %q", v.TraceID, clientTrace)
	}

	// A cache hit keeps the original trace, even when the second client
	// offers its own.
	req2, _ := http.NewRequest("POST", ts.URL+"/campaigns", bytes.NewReader(body))
	req2.Header.Set("X-Trace-ID", "someone-elses-trace")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	var sr2 submitResponse
	if err := json.NewDecoder(resp2.Body).Decode(&sr2); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if !sr2.Cached || sr2.TraceID != clientTrace {
		t.Errorf("cache hit trace_id %q (cached=%v), want original %q", sr2.TraceID, sr2.Cached, clientTrace)
	}

	// The structured log stitched the whole lifecycle to the same ID:
	// queued, running and finished lines all carry it.
	logged := logs.String()
	for _, event := range []string{"campaign queued", "campaign running", "campaign finished", "submission served from cache"} {
		found := false
		for _, line := range strings.Split(logged, "\n") {
			if strings.Contains(line, event) && strings.Contains(line, clientTrace) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no %q log line carrying trace %q\nlogs:\n%s", event, clientTrace, logged)
		}
	}

	// An invalid client trace is replaced with a server-minted one, never
	// rejected and never echoed into headers or logs.
	const badTrace = "bad trace, spaces & punctuation!"
	req3, _ := http.NewRequest("POST", ts.URL+"/campaigns", strings.NewReader(mustJSON(t, testSpec(1))))
	req3.Header.Set("X-Trace-ID", badTrace)
	resp3, err := http.DefaultClient.Do(req3)
	if err != nil {
		t.Fatal(err)
	}
	var sr3 submitResponse
	if err := json.NewDecoder(resp3.Body).Decode(&sr3); err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if sr3.TraceID == "" || sr3.TraceID == badTrace {
		t.Errorf("invalid client trace not replaced: %q", sr3.TraceID)
	}
	if !obs.ValidTraceID(sr3.TraceID) {
		t.Errorf("server minted invalid trace %q", sr3.TraceID)
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestDrainUnderLoad pins graceful shutdown with traffic in flight: while
// a campaign runs (parked on the test gate), Drain flips the server to
// draining — new submissions 503, /stats and /metrics say so — and only
// returns once the in-flight campaign commits. Nothing measured before
// the drain is lost. Run under -race in CI.
func TestDrainUnderLoad(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Options{StoreDir: dir, Concurrency: 1})
	gate := make(chan struct{})
	s.gate = gate

	spec := testSpec(2)
	spec.Seed = 6363
	sr := submit(t, ts, spec, http.StatusAccepted)
	deadline := time.Now().Add(5 * time.Second)
	for s.lookup(sr.ID).Status() != StatusRunning {
		if time.Now().After(deadline) {
			t.Fatal("campaign never started")
		}
		time.Sleep(time.Millisecond)
	}

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()

	// Draining is observable before it completes: submissions bounce with
	// 503 and both stats surfaces report the state.
	waitDeadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		draining := s.draining
		s.mu.Unlock()
		if draining {
			break
		}
		if time.Now().After(waitDeadline) {
			t.Fatal("drain never engaged")
		}
		time.Sleep(time.Millisecond)
	}
	reject := testSpec(1)
	reject.Seed = 6364
	body, _ := json.Marshal(reject)
	resp, err := http.Post(ts.URL+"/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submission during drain got %d, want 503", resp.StatusCode)
	}
	metrics := scrapeMetrics(t, ts.URL)
	if err := obs.Lint(strings.NewReader(metrics)); err != nil {
		t.Fatalf("exposition lint during drain: %v", err)
	}
	if got := metricValue(t, metrics, "campaignd_draining"); got < 1 {
		t.Errorf("campaignd_draining = %g during drain, want >= 1", got)
	}
	var stats statsResponse
	statsResp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(statsResp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	statsResp.Body.Close()
	if !stats.Draining {
		t.Error("/stats draining=false during drain")
	}
	if stats.UptimeS <= 0 {
		t.Error("/stats uptime_s not positive")
	}

	// Release the in-flight campaign; drain must complete and the segment
	// must be durable (committed exactly once, before Drain returned).
	close(gate)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if st := s.lookup(sr.ID).Status(); st != StatusDone {
		t.Fatalf("in-flight campaign ended %q, want done", st)
	}
	if s.store == nil {
		t.Fatal("store not open")
	}
	if got := s.store.Stats().Segments; got != 1 {
		t.Errorf("store segments after drain = %d, want 1", got)
	}
}

// TestVersionEndpoint pins GET /version: module identity, go version and
// a live uptime.
func TestVersionEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/version")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/version status %d", resp.StatusCode)
	}
	var v versionResponse
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	if v.GoVersion == "" {
		t.Error("go_version empty")
	}
	if v.Module == "" {
		t.Error("module empty")
	}
	if v.UptimeS < 0 {
		t.Errorf("uptime_s = %g, want >= 0", v.UptimeS)
	}
}

// TestMetricsScopedToServer pins instance-scoped metrics: two Servers in
// one process, each with its own store, each count only their own
// traffic. Traffic to A moves A's /stats and /metrics (service, engine,
// wire and store families alike) while B's stay at zero, and on both
// servers every /stats counter equals the /metrics series it is read from.
func TestMetricsScopedToServer(t *testing.T) {
	a, tsA := newTestServer(t, Options{
		StoreDir:  t.TempDir(),
		AuthKeys:  []Key{{Secret: "k", Tenant: "t"}},
		RateLimit: 0.001, // two requests of burst, then 429
		RateBurst: 2,
	})
	_, tsB := newTestServer(t, Options{StoreDir: t.TempDir()})

	key := map[string]string{"X-API-Key": "k"}
	spec := testSpec(1)
	spec.Seed = 8383
	if resp, _ := authedSubmit(t, tsA, spec, nil); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("keyless submit = %d, want 401", resp.StatusCode)
	}
	if resp, _ := authedSubmit(t, tsA, spec, map[string]string{"X-API-Key": "wrong"}); resp.StatusCode != http.StatusForbidden {
		t.Fatalf("wrong-key submit = %d, want 403", resp.StatusCode)
	}
	resp, body := authedSubmit(t, tsA, spec, key)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, body)
	}
	var sr submitResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	waitForStatus(t, a, sr.ID, StatusDone)
	if resp, _ := authedSubmit(t, tsA, spec, key); resp.StatusCode != http.StatusOK {
		t.Fatalf("resubmit = %d, want 200 (cache hit)", resp.StatusCode)
	}
	if resp, _ := authedSubmit(t, tsA, spec, key); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit = %d, want 429", resp.StatusCode)
	}

	type want struct {
		submissions, cacheHits, gridsRun int
		authFailures, rateLimited        uint64
		// One campaign of testSpec(1): 12 runs and frames, one commit.
		runs, engineCampaigns, frames, segments, commits float64
	}
	for _, tc := range []struct {
		name string
		ts   *httptest.Server
		want want
	}{
		{"A", tsA, want{submissions: 2, cacheHits: 1, gridsRun: 1, authFailures: 2, rateLimited: 1,
			runs: 12, engineCampaigns: 1, frames: 12, segments: 1, commits: 1}},
		{"B", tsB, want{}},
	} {
		stats := serverStats(t, tc.ts)
		m := scrapeMetrics(t, tc.ts.URL)
		if err := obs.Lint(strings.NewReader(m)); err != nil {
			t.Fatalf("%s exposition lint: %v", tc.name, err)
		}
		got := want{stats.Submissions, stats.CacheHits, stats.GridsRun, stats.AuthFailures, stats.RateLimited,
			metricValue(t, m, "campaign_runs_total"), metricValue(t, m, "campaign_run_seconds_count"),
			metricValue(t, m, "wire_frames_encoded_total"), metricValue(t, m, "store_segments"),
			metricValue(t, m, "store_commits_total")}
		if got != tc.want {
			t.Errorf("%s /stats and /metrics = %+v, want %+v", tc.name, got, tc.want)
		}
		// How A's shards split between fabricated and pooled boards
		// depends on worker interleaving; B's engine never ran.
		if fabs := metricValue(t, m, "campaign_board_fabrications_total"); (fabs > 0) != (tc.want.runs > 0) {
			t.Errorf("%s campaign_board_fabrications_total = %g with %g runs", tc.name, fabs, tc.want.runs)
		}
		accepted := metricValue(t, m, `campaignd_submissions_total{result="accepted"}`)
		cached := metricValue(t, m, `campaignd_submissions_total{result="cached"}`)
		authFailures := metricValue(t, m, `serve_auth_failures_total{reason="missing"}`) +
			metricValue(t, m, `serve_auth_failures_total{reason="unknown"}`) +
			metricValue(t, m, `serve_auth_failures_total{reason="disabled"}`)
		for _, pair := range []struct {
			field       string
			stats, prom float64
		}{
			{"submissions", float64(stats.Submissions), accepted + cached},
			{"cache_hits", float64(stats.CacheHits), cached},
			{"grids_run", float64(stats.GridsRun), metricValue(t, m, "campaignd_campaigns_run_total")},
			{"evictions", float64(stats.Evictions), metricValue(t, m, "campaignd_evictions_total")},
			{"subscribers", float64(stats.Subscribers), metricValue(t, m, "campaignd_active_subscribers")},
			{"auth_failures", float64(stats.AuthFailures), authFailures},
			{"store.segments", float64(stats.Store.Segments), metricValue(t, m, "store_segments")},
			{"store.bytes", float64(stats.Store.Bytes), metricValue(t, m, "store_bytes")},
			{"store.quarantined", float64(stats.Store.Quarantined), metricValue(t, m, "store_quarantined_total")},
			{"store.compactions", float64(stats.Store.Compactions), metricValue(t, m, "store_compactions_total")},
			{"store.quarantine_bytes", float64(stats.Store.QuarantineBytes), metricValue(t, m, "store_quarantine_bytes")},
		} {
			if pair.stats != pair.prom {
				t.Errorf("%s: /stats %s = %g, /metrics says %g", tc.name, pair.field, pair.stats, pair.prom)
			}
		}
		if tc.want.rateLimited > 0 {
			if got := metricValue(t, m, `serve_rate_limited_total{tenant="t"}`); got != float64(stats.RateLimited) {
				t.Errorf("%s: /stats rate_limited = %d, /metrics says %g", tc.name, stats.RateLimited, got)
			}
		} else if strings.Contains(m, "serve_rate_limited_total") {
			t.Errorf("%s: rate-limit series minted without a 429", tc.name)
		}
	}
}

// TestQuarantineBytesAfterRestart pins the quarantine gauge across a
// restart: a server booted over a store whose quarantine/ already holds
// evidence reports its size on /stats and on /metrics alike, although
// nothing was quarantined since boot.
func TestQuarantineBytesAfterRestart(t *testing.T) {
	dir := t.TempDir()
	qdir := filepath.Join(dir, "quarantine")
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		t.Fatal(err)
	}
	const size = 4099
	if err := os.WriteFile(filepath.Join(qdir, "seg-evidence.bin"), make([]byte, size), 0o644); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Options{StoreDir: dir})
	if got := serverStats(t, ts).Store.QuarantineBytes; got != size {
		t.Errorf("/stats store.quarantine_bytes = %d, want %d", got, size)
	}
	if got := metricValue(t, scrapeMetrics(t, ts.URL), "store_quarantine_bytes"); got != size {
		t.Errorf("/metrics store_quarantine_bytes = %g, want %d", got, size)
	}
}
