package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
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
	if err := run(context.Background(), &out, []string{"-spool", filepath.Join(t.TempDir(), "no", "such", "dir", "s.jsonl")}, nil); err == nil {
		t.Error("unopenable spool accepted")
	}
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), &out, []string{"-store-dir", file}, nil); err == nil {
		t.Error("unusable store dir accepted")
	}
}

// startDaemon boots the daemon with args and waits for the bound address.
func startDaemon(t *testing.T, ctx context.Context, out *syncWriter, args []string) (string, chan error) {
	t.Helper()
	ready := make(chan string, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- run(ctx, out, args, ready)
	}()
	select {
	case addr := <-ready:
		return "http://" + addr, errc
	case err := <-errc:
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}
	return "", nil
}

// TestDaemonStoreRestart is the CLI half of the restart-replay contract:
// a daemon rebooted on the same -store-dir serves a prior characterization
// from disk, byte for byte, without running a grid — and the shutdown in
// between is the graceful drain path.
func TestDaemonStoreRestart(t *testing.T) {
	dir := t.TempDir()
	spec := `{"seed":7,"benches":["mcf"],"voltages_mv":[980,940],"repetitions":2}`
	args := []string{"-addr", "127.0.0.1:0", "-store-dir", dir}

	post := func(base string) (id, stream string, cached bool) {
		t.Helper()
		resp, err := http.Post(base+"/campaigns", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sub struct {
			ID     string `json:"id"`
			Stream string `json:"stream"`
			Cached bool   `json:"cached"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
			t.Fatal(err)
		}
		return sub.ID, sub.Stream, sub.Cached
	}
	tail := func(base, stream string) []byte {
		t.Helper()
		resp, err := http.Get(base + stream)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data := new(bytes.Buffer)
		if _, err := data.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return data.Bytes()
	}

	// Life 1: characterize and shut down gracefully.
	ctx1, cancel1 := context.WithCancel(context.Background())
	var out1 syncWriter
	base1, errc1 := startDaemon(t, ctx1, &out1, args)
	_, stream1, cached := post(base1)
	if cached {
		t.Fatal("first submission claimed cached")
	}
	live := tail(base1, stream1)
	if n := bytes.Count(live, []byte("\n")); n != 4 {
		t.Fatalf("life 1 streamed %d records, want 4", n)
	}
	cancel1()
	select {
	case err := <-errc1:
		if err != nil {
			t.Fatalf("life 1 shutdown: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("life 1 did not shut down")
	}
	if !strings.Contains(out1.String(), "durable store at "+dir) {
		t.Errorf("daemon log missing store banner:\n%s", out1.String())
	}

	// Life 2: replay from disk.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	var out2 syncWriter
	base2, errc2 := startDaemon(t, ctx2, &out2, args)
	_, stream2, cached := post(base2)
	if !cached {
		t.Fatal("restarted daemon re-ran a stored characterization")
	}
	if replay := tail(base2, stream2); !bytes.Equal(replay, live) {
		t.Error("replayed stream differs from life 1's live stream")
	}
	resp, err := http.Get(base2 + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		GridsRun int `json:"grids_run"`
		Store    *struct {
			Segments   int `json:"segments"`
			ReplayHits int `json:"replay_hits"`
		} `json:"store"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.GridsRun != 0 {
		t.Errorf("life 2 ran %d grids, want 0", stats.GridsRun)
	}
	if stats.Store == nil || stats.Store.Segments != 1 || stats.Store.ReplayHits != 1 {
		t.Errorf("life 2 store stats = %+v", stats.Store)
	}
	cancel2()
	select {
	case err := <-errc2:
		if err != nil {
			t.Errorf("life 2 shutdown: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("life 2 did not shut down")
	}
}

// TestDaemonSmoke boots the daemon on a free port, submits a tiny grid,
// tails the stream to completion, checks the record count and the spool,
// and shuts down cleanly.
func TestDaemonSmoke(t *testing.T) {
	spool := filepath.Join(t.TempDir(), "spool.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var out syncWriter
	ready := make(chan string, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- run(ctx, &out, []string{"-addr", "127.0.0.1:0", "-spool", spool}, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-errc:
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}
	base := "http://" + addr

	if resp, err := http.Get(base + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp, err)
	} else {
		resp.Body.Close()
	}

	spec := `{"seed":7,"benches":["mcf"],"voltages_mv":[980,940],"repetitions":2}`
	resp, err := http.Post(base+"/campaigns", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	var sub struct {
		ID     string `json:"id"`
		Stream string `json:"stream"`
		Cached bool   `json:"cached"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || sub.Cached {
		t.Fatalf("submit: status %d cached %v", resp.StatusCode, sub.Cached)
	}

	stream, err := http.Get(base + sub.Stream)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	lines := 0
	sc := bufio.NewScanner(stream.Body)
	for sc.Scan() {
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines != 4 {
		t.Errorf("stream yielded %d records, want 4 (1 bench x 2 voltages x 2 reps)", lines)
	}

	// The spool sink saw the same records.
	data, err := os.ReadFile(spool)
	if err != nil {
		t.Fatal(err)
	}
	if got := bytes.Count(data, []byte("\n")); got != 4 {
		t.Errorf("spool holds %d records, want 4", got)
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

// TestDaemonLoadtest pins -loadtest end to end: the daemon hammers its own
// listener, writes a BENCH_load.json-shaped result to -loadtest-out, and
// exits zero without waiting for a signal.
func TestDaemonLoadtest(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench_load.json")
	var log syncWriter
	err := run(context.Background(), &log, []string{
		"-addr", "127.0.0.1:0", "-concurrency", "2",
		"-loadtest", "-loadtest-submitters", "2", "-loadtest-campaigns", "1",
		"-loadtest-tailers", "1", "-loadtest-out", out,
	}, nil)
	if err != nil {
		t.Fatalf("loadtest run: %v\nlog:\n%s", err, log.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var res struct {
		Campaigns int `json:"campaigns"`
		Errors    int `json:"errors"`
		Submit    struct {
			P99MS float64 `json:"p99_ms"`
		} `json:"submit"`
		Stream struct {
			P99MS float64 `json:"p99_ms"`
		} `json:"stream"`
	}
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatalf("result not JSON: %v\n%s", err, data)
	}
	if res.Campaigns != 2 || res.Errors != 0 {
		t.Errorf("campaigns=%d errors=%d, want 2 and 0", res.Campaigns, res.Errors)
	}
	if res.Submit.P99MS <= 0 || res.Stream.P99MS <= 0 {
		t.Errorf("p99s not positive: submit %g stream %g", res.Submit.P99MS, res.Stream.P99MS)
	}
	if !strings.Contains(log.String(), "campaignd loadtest:") {
		t.Errorf("missing loadtest summary line:\n%s", log.String())
	}
}

// postSpec submits a spec with an optional API key and returns the
// status code (body drained and closed).
func postSpec(t *testing.T, base, spec, key string) int {
	t.Helper()
	req, err := http.NewRequest("POST", base+"/campaigns", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// TestDaemonAuthFlags boots the daemon with inline keys and pins the CLI
// wiring: anonymous 401, authed 202, ops surface open, and the bad-flag
// combinations rejected before the listener comes up.
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

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	base, errc := startDaemon(t, ctx, &out, []string{
		"-addr", "127.0.0.1:0", "-auth-keys", "smoke-key=smoketeam",
	})
	spec := `{"seed":7,"benches":["mcf"],"voltages_mv":[980],"repetitions":1}`
	if got := postSpec(t, base, spec, ""); got != http.StatusUnauthorized {
		t.Errorf("anonymous submit status %d, want 401", got)
	}
	if got := postSpec(t, base, spec, "wrong"); got != http.StatusForbidden {
		t.Errorf("wrong-key submit status %d, want 403", got)
	}
	if got := postSpec(t, base, spec, "smoke-key"); got != http.StatusAccepted {
		t.Errorf("authed submit status %d, want 202", got)
	}
	for _, path := range []string{"/healthz", "/metrics", "/stats"} {
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
	<-errc
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
	if got := postSpec(t, base, spec, "old-key"); got != http.StatusAccepted {
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
	for postSpec(t, base, `{"seed":8,"benches":["mcf"],"voltages_mv":[980],"repetitions":1}`, "new-key") != http.StatusAccepted {
		if time.Now().After(deadline) {
			t.Fatalf("new key never took effect\nlogs:\n%s", out.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got := postSpec(t, base, spec, "old-key"); got != http.StatusForbidden {
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
	if got := postSpec(t, base, `{"seed":9,"benches":["mcf"],"voltages_mv":[980],"repetitions":1}`, "new-key"); got != http.StatusAccepted {
		t.Errorf("working key lost after corrupt reload: %d", got)
	}
	cancel()
	<-errc
}

// TestDaemonLoadtestAuthed runs -loadtest against an auth + rate-limited
// daemon: the harness authenticates as the first key's tenant and backs
// off through 429s per Retry-After, so the run still finishes with zero
// errors.
func TestDaemonLoadtestAuthed(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench_load.json")
	var log syncWriter
	err := run(context.Background(), &log, []string{
		"-addr", "127.0.0.1:0", "-concurrency", "2",
		"-auth-keys", "lt-key=loadteam", "-rate-limit", "2", "-rate-burst", "2",
		"-loadtest", "-loadtest-submitters", "2", "-loadtest-campaigns", "1",
		"-loadtest-tailers", "1", "-loadtest-out", out,
	}, nil)
	if err != nil {
		t.Fatalf("authed loadtest run: %v\nlog:\n%s", err, log.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var res struct {
		Campaigns int `json:"campaigns"`
		Errors    int `json:"errors"`
	}
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatalf("result not JSON: %v\n%s", err, data)
	}
	if res.Campaigns != 2 || res.Errors != 0 {
		t.Errorf("campaigns=%d errors=%d, want 2 and 0", res.Campaigns, res.Errors)
	}
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
		{"-peers", "a:1,b:2"},                     // -peers without -peer-id
		{"-peer-id", "a:1"},                       // -peer-id without -peers
		{"-fleet-secret", "hush"},                 // -fleet-secret without -peers
		{"-peers", "a:1", "-peer-id", "a:1"},      // fleet of one
		{"-peers", "a:1,b:2", "-peer-id", "c:3"},  // self not a member
		{"-loadtest-peers", "http://127.0.0.1:1"}, // -loadtest-peers without -loadtest
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
	post := func(base string) (cached bool, stream string) {
		t.Helper()
		resp, err := http.Post(base+"/campaigns", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sub struct {
			Cached bool   `json:"cached"`
			Stream string `json:"stream"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
			t.Fatal(err)
		}
		return sub.Cached, sub.Stream
	}
	tail := func(base, stream string) []byte {
		t.Helper()
		resp, err := http.Get(base + stream)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	cached, stream := post(bases[0])
	if cached {
		t.Fatal("first submission claimed cached")
	}
	live := tail(bases[0], stream)

	// The other peer answers the same fingerprint by replication: cache
	// hit, byte-identical stream, zero grids run on its side.
	cached, stream = post(bases[1])
	if !cached {
		t.Fatal("peer B re-ran a characterization peer A had committed")
	}
	if replica := tail(bases[1], stream); !bytes.Equal(replica, live) {
		t.Error("replicated stream differs from the origin's live stream")
	}
	resp, err := http.Get(bases[1] + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		GridsRun int `json:"grids_run"`
		Fleet    *struct {
			Replications uint64 `json:"replications"`
		} `json:"fleet"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.GridsRun != 0 {
		t.Errorf("peer B ran %d grids, want 0", stats.GridsRun)
	}
	if stats.Fleet == nil || stats.Fleet.Replications != 1 {
		t.Errorf("peer B fleet stats = %+v, want 1 replication", stats.Fleet)
	}
}
