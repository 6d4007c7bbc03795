package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// syncWriter makes the daemon's log writer safe to read while it serves.
type syncWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

func TestBadFlagsRejected(t *testing.T) {
	var out syncWriter
	if err := run(context.Background(), &out, []string{"-addr"}, nil); err == nil {
		t.Error("dangling -addr accepted")
	}
	if err := run(context.Background(), &out, []string{"-addr", "not-an-address"}, nil); err == nil {
		t.Error("unlistenable address accepted")
	}
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), &out, []string{"-store-dir", file}, nil); err == nil {
		t.Error("unusable store dir accepted")
	}
}

// startDaemon runs the daemon in-process with args and returns its base
// URL once /readyz answers ready, plus the channel run's error arrives on.
func startDaemon(t *testing.T, ctx context.Context, out *syncWriter, args []string) (string, chan error) {
	t.Helper()
	ready := make(chan string, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- run(ctx, out, args, ready)
	}()
	select {
	case addr := <-ready:
		base := "http://" + addr
		waitReady(t, base)
		return base, errc
	case err := <-errc:
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}
	return "", nil
}

// waitReady polls GET /readyz until the daemon answers "ready": a daemon
// that is draining or has a degraded store answers 503.
func waitReady(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && strings.TrimSpace(string(body)) == "ready" {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s/readyz never answered ready (last error %v)", base, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// submission is the part of a POST /campaigns reply the tests read.
type submission struct {
	status int
	Stream string `json:"stream"`
	Cached bool   `json:"cached"`
}

// submitSpec POSTs spec to the daemon at base and decodes the reply.
func submitSpec(t *testing.T, base, spec string) submission {
	t.Helper()
	resp, err := http.Post(base+"/campaigns", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sub := submission{status: resp.StatusCode}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	return sub
}

// tail reads a campaign's stream to its end.
func tail(t *testing.T, base, stream string) []byte {
	t.Helper()
	resp, err := http.Get(base + stream)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// getJSON GETs base+path and decodes the JSON reply into v.
func getJSON(t *testing.T, base, path string, v any) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// post sends body to POST /campaigns with the given header name/value
// pairs and returns the response, its body drained and closed.
func post(t *testing.T, base, body string, header ...string) *http.Response {
	t.Helper()
	req, err := http.NewRequest("POST", base+"/campaigns", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for i := 0; i+1 < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp
}

// fig4Tiny is the tiny Fig. 4 grid the daemon tests characterize:
// 1 bench x 2 voltages x 2 reps = 4 records.
const fig4Tiny = `{"seed":7,"benches":["mcf"],"voltages_mv":[980,940],"repetitions":2}`

// TestDaemonStoreRestart is the restart-replay contract over real
// processes: life 1 characterizes, then SIGTERM drains it through main's
// own signal wiring; life 2, booted on the same -store-dir, serves the
// characterization from disk, byte for byte, without running a grid.
func TestDaemonStoreRestart(t *testing.T) {
	dir := t.TempDir()
	life1 := startProc(t, nil, "-addr", "127.0.0.1:0", "-store-dir", dir)
	sub := submitSpec(t, life1.base, fig4Tiny)
	if sub.Cached {
		t.Fatal("first submission claimed cached")
	}
	live := tail(t, life1.base, sub.Stream)
	if n := bytes.Count(live, []byte("\n")); n != 4 {
		t.Fatalf("life 1 streamed %d records, want 4", n)
	}
	life1.signal(syscall.SIGTERM)
	if err := life1.wait(); err != nil {
		t.Fatalf("life 1 exit after SIGTERM: %v\n%s", err, life1.log.String())
	}
	for _, want := range []string{"durable store at " + dir, "campaignd: shut down"} {
		if !strings.Contains(life1.log.String(), want) {
			t.Errorf("life 1 log missing %q:\n%s", want, life1.log.String())
		}
	}

	life2 := life1.reboot()
	sub = submitSpec(t, life2.base, fig4Tiny)
	if !sub.Cached {
		t.Fatal("restarted daemon re-ran a stored characterization")
	}
	if replay := tail(t, life2.base, sub.Stream); !bytes.Equal(replay, live) {
		t.Error("replayed stream differs from life 1's live stream")
	}
	var stats struct {
		GridsRun int `json:"grids_run"`
		Store    *struct {
			Segments   int `json:"segments"`
			ReplayHits int `json:"replay_hits"`
		} `json:"store"`
	}
	getJSON(t, life2.base, "/stats", &stats)
	if stats.GridsRun != 0 {
		t.Errorf("life 2 ran %d grids, want 0", stats.GridsRun)
	}
	if stats.Store == nil || stats.Store.Segments != 1 || stats.Store.ReplayHits != 1 {
		t.Errorf("life 2 store stats = %+v", stats.Store)
	}
	life2.signal(syscall.SIGTERM)
	if err := life2.wait(); err != nil {
		t.Errorf("life 2 exit after SIGTERM: %v\n%s", err, life2.log.String())
	}
}

// TestDaemonSmoke boots the daemon on a free port, submits a tiny grid,
// tails the stream to completion, checks the record count, and shuts down
// cleanly.
func TestDaemonSmoke(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out syncWriter
	base, errc := startDaemon(t, ctx, &out, []string{"-addr", "127.0.0.1:0"})

	if resp, err := http.Get(base + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp, err)
	} else {
		resp.Body.Close()
	}

	sub := submitSpec(t, base, fig4Tiny)
	if sub.status != http.StatusAccepted || sub.Cached {
		t.Fatalf("submit: status %d cached %v", sub.status, sub.Cached)
	}
	if n := bytes.Count(tail(t, base, sub.Stream), []byte("\n")); n != 4 {
		t.Errorf("stream yielded %d records, want 4 (1 bench x 2 voltages x 2 reps)", n)
	}

	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Errorf("daemon shutdown error: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down")
	}
	log := out.String()
	for _, want := range []string{"campaignd listening on http://", "campaignd: shut down"} {
		if !strings.Contains(log, want) {
			t.Errorf("daemon log missing %q:\n%s", want, log)
		}
	}
}

// TestDaemonAuthFlags pins the front door's CLI wiring: the bad flag
// combinations are rejected before the listener comes up, and a daemon
// booted with a key and a rate limit walks the whole rejection matrix
// (401, 403, 202, 200, 413, 400, then 429 with Retry-After) while the ops
// surface stays open. The daemon has no -store-dir, so its store lives in
// a private directory under its TMPDIR, which shutdown must remove.
func TestDaemonAuthFlags(t *testing.T) {
	var out syncWriter
	if err := run(context.Background(), &out, []string{"-rate-burst", "4"}, nil); err == nil {
		t.Error("-rate-burst without -rate-limit accepted")
	}
	if err := run(context.Background(), &out, []string{"-auth-keys", "missing-tenant"}, nil); err == nil {
		t.Error("malformed -auth-keys accepted")
	}
	if err := run(context.Background(), &out, []string{"-auth-keyfile", filepath.Join(t.TempDir(), "nope.json")}, nil); err == nil {
		t.Error("missing -auth-keyfile accepted")
	}

	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// One token per 100 s: the burst of 4 never refills during the test.
	base, errc := startDaemon(t, ctx, &out, []string{
		"-addr", "127.0.0.1:0", "-auth-keys", "smoke-key=smoketeam",
		"-rate-limit", "0.01", "-rate-burst", "4",
	})
	spec := `{"seed":7,"benches":["mcf"],"voltages_mv":[980],"repetitions":1}`
	resp := post(t, base, spec)
	if resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("anonymous submit status %d, want 401", resp.StatusCode)
	}
	if got := resp.Header.Get("WWW-Authenticate"); !strings.HasPrefix(got, "Bearer") {
		t.Errorf("anonymous submit WWW-Authenticate %q, want a Bearer challenge", got)
	}
	if got := post(t, base, spec, "Authorization", "Bearer wrong").StatusCode; got != http.StatusForbidden {
		t.Errorf("wrong-key submit status %d, want 403", got)
	}
	// The tenant's four tokens: both key forms, then an oversized body and
	// trailing garbage, which spend a token too (admission runs before the
	// body is parsed).
	for _, c := range []struct {
		body   string
		header []string
		want   int
	}{
		{spec, []string{"Authorization", "Bearer smoke-key"}, http.StatusAccepted},
		{spec, []string{"X-API-Key", "smoke-key"}, http.StatusOK},
		{strings.Repeat(" ", 1200000) + spec, []string{"Authorization", "Bearer smoke-key"}, http.StatusRequestEntityTooLarge},
		{spec + `{"x":1}`, []string{"Authorization", "Bearer smoke-key"}, http.StatusBadRequest},
	} {
		if got := post(t, base, c.body, c.header...).StatusCode; got != c.want {
			t.Errorf("%s submit (%d bytes) status %d, want %d", c.header[0], len(c.body), got, c.want)
		}
	}
	resp = post(t, base, `{"seed":9,"benches":["mcf"],"voltages_mv":[980],"repetitions":1}`,
		"Authorization", "Bearer smoke-key")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("over-quota submit status %d, want 429", resp.StatusCode)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Errorf("over-quota Retry-After %q, want an integer >= 1", resp.Header.Get("Retry-After"))
	}
	for _, path := range []string{"/healthz", "/metrics", "/stats", "/version"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s status %d with auth on, want 200", path, resp.StatusCode)
		}
	}
	if !strings.Contains(out.String(), "campaignd auth enabled (1 keys)") {
		t.Errorf("missing auth banner:\n%s", out.String())
	}
	cancel()
	if err := <-errc; err != nil {
		t.Errorf("shutdown: %v", err)
	}
	if entries, err := os.ReadDir(tmp); err != nil || len(entries) != 0 {
		t.Errorf("TMPDIR holds %v after shutdown (%v), want nothing", entries, err)
	}
}

// TestDaemonKeyfileReload pins the SIGHUP path end to end: rewrite the
// keyfile, signal the (test) process, and the daemon swaps rings without
// restarting — the rotated-out key stops working, the new one starts. A
// subsequent SIGHUP with a corrupt file keeps the current ring.
func TestDaemonKeyfileReload(t *testing.T) {
	keyfile := filepath.Join(t.TempDir(), "keys.json")
	if err := os.WriteFile(keyfile, []byte(`[{"key":"old-key","tenant":"team"}]`), 0o600); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out syncWriter
	base, errc := startDaemon(t, ctx, &out, []string{
		"-addr", "127.0.0.1:0", "-auth-keyfile", keyfile, "-log-format", "json",
	})
	spec := `{"seed":7,"benches":["mcf"],"voltages_mv":[980],"repetitions":1}`
	if got := post(t, base, spec, "Authorization", "Bearer old-key").StatusCode; got != http.StatusAccepted {
		t.Fatalf("pre-rotation submit status %d, want 202", got)
	}

	rotate := func(content string) {
		t.Helper()
		if err := os.WriteFile(keyfile, []byte(content), 0o600); err != nil {
			t.Fatal(err)
		}
		if err := syscall.Kill(os.Getpid(), syscall.SIGHUP); err != nil {
			t.Fatal(err)
		}
	}
	rotate(`[{"key":"new-key","tenant":"team"}]`)
	deadline := time.Now().Add(10 * time.Second)
	for post(t, base, `{"seed":8,"benches":["mcf"],"voltages_mv":[980],"repetitions":1}`, "Authorization", "Bearer new-key").StatusCode != http.StatusAccepted {
		if time.Now().After(deadline) {
			t.Fatalf("new key never took effect\nlogs:\n%s", out.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got := post(t, base, spec, "Authorization", "Bearer old-key").StatusCode; got != http.StatusForbidden {
		t.Errorf("rotated-out key status %d, want 403", got)
	}

	// A corrupt keyfile must not take the ring down.
	rotate(`{broken`)
	deadline = time.Now().Add(10 * time.Second)
	for !strings.Contains(out.String(), "keyfile reload failed") {
		if time.Now().After(deadline) {
			t.Fatalf("reload failure never logged\nlogs:\n%s", out.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got := post(t, base, `{"seed":9,"benches":["mcf"],"voltages_mv":[980],"repetitions":1}`, "Authorization", "Bearer new-key").StatusCode; got != http.StatusAccepted {
		t.Errorf("working key lost after corrupt reload: %d", got)
	}
	cancel()
	<-errc
}

// TestDaemonJSONLogs pins -log-format json: lifecycle events arrive as
// parseable JSON lines carrying the campaign's trace ID — the same ID the
// submit response returned.
func TestDaemonJSONLogs(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out syncWriter
	base, errc := startDaemon(t, ctx, &out, []string{"-addr", "127.0.0.1:0", "-log-format", "json"})

	spec := `{"seed":11,"benches":["mcf"],"voltages_mv":[980],"repetitions":1}`
	resp, err := http.Post(base+"/campaigns", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	var sub struct {
		Stream  string `json:"stream"`
		TraceID string `json:"trace_id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if sub.TraceID == "" {
		t.Fatal("submit response missing trace_id")
	}
	if h := resp.Header.Get("X-Trace-ID"); h != sub.TraceID {
		t.Errorf("X-Trace-ID header %q != body trace_id %q", h, sub.TraceID)
	}
	stream, err := http.Get(base + sub.Stream)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, stream.Body)
	stream.Body.Close()

	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down")
	}

	// Every JSON log line must parse; the lifecycle lines carry the trace.
	sawLifecycle := map[string]bool{}
	for _, line := range strings.Split(out.String(), "\n") {
		if line == "" || !strings.HasPrefix(line, "{") {
			continue // plain banner lines (listening, shut down)
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Errorf("unparseable JSON log line: %q: %v", line, err)
			continue
		}
		msg, _ := rec["msg"].(string)
		if trace, _ := rec["trace_id"].(string); trace == sub.TraceID {
			sawLifecycle[msg] = true
		}
	}
	for _, want := range []string{"campaign queued", "campaign running", "campaign finished"} {
		if !sawLifecycle[want] {
			t.Errorf("no JSON log line %q with trace %s\nlogs:\n%s", want, sub.TraceID, out.String())
		}
	}
}

// TestDaemonFleetFlags pins the CLI fleet wiring: the bad flag combinations
// are rejected before the listener comes up, and a federated pair of
// daemons started with real -peers/-peer-id/-fleet-secret flags replicates
// a characterization instead of re-running it.
func TestDaemonFleetFlags(t *testing.T) {
	var out syncWriter
	for _, args := range [][]string{
		{"-peers", "a:1,b:2"},                    // -peers without -peer-id
		{"-peer-id", "a:1"},                      // -peer-id without -peers
		{"-fleet-secret", "hush"},                // -fleet-secret without -peers
		{"-peers", "a:1", "-peer-id", "a:1"},     // fleet of one
		{"-peers", "a:1,b:2", "-peer-id", "c:3"}, // self not a member
	} {
		if err := run(context.Background(), &out, args, nil); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}

	// A federated pair: fixed ports (the fleet membership is static
	// configuration, so the peers must know each other's addresses up
	// front). Two free ports are reserved and released just before boot.
	addrs := make([]string, 2)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	peerList := strings.Join(addrs, ",")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	bases := make([]string, 2)
	for i, addr := range addrs {
		var log syncWriter
		base, _ := startDaemon(t, ctx, &log, []string{
			"-addr", addr, "-store-dir", t.TempDir(),
			"-peers", peerList, "-peer-id", addr, "-fleet-secret", "hush",
		})
		bases[i] = base
		deadline := time.Now().Add(5 * time.Second)
		for !strings.Contains(log.String(), "campaignd fleet member "+addr+" of 2 peers") {
			if time.Now().After(deadline) {
				t.Fatalf("daemon %d missing fleet banner:\n%s", i, log.String())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	spec := `{"seed":21,"benches":["mcf"],"voltages_mv":[980,940],"repetitions":1}`
	sub := submitSpec(t, bases[0], spec)
	if sub.Cached {
		t.Fatal("first submission claimed cached")
	}
	live := tail(t, bases[0], sub.Stream)

	// The other peer answers the same fingerprint by replication: cache
	// hit, byte-identical stream, zero grids run on its side.
	sub = submitSpec(t, bases[1], spec)
	if !sub.Cached {
		t.Fatal("peer B re-ran a characterization peer A had committed")
	}
	if replica := tail(t, bases[1], sub.Stream); !bytes.Equal(replica, live) {
		t.Error("replicated stream differs from the origin's live stream")
	}
	var stats struct {
		GridsRun int `json:"grids_run"`
		Fleet    *struct {
			Replications uint64 `json:"replications"`
			RingVersion  string `json:"ring_version"`
		} `json:"fleet"`
	}
	getJSON(t, bases[1], "/stats", &stats)
	if stats.GridsRun != 0 {
		t.Errorf("peer B ran %d grids, want 0", stats.GridsRun)
	}
	if stats.Fleet == nil || stats.Fleet.Replications != 1 || len(stats.Fleet.RingVersion) != 16 {
		t.Errorf("peer B fleet stats = %+v, want 1 replication and a 16-digit ring version", stats.Fleet)
	}
}
