package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestCrashHelper is not a test: it is the daemon half of
// TestDaemonCrashResume, re-exec'd as a child process so the injected
// panic kills a real campaignd rather than the test binary. The fault
// plan arrives through $CAMPAIGND_FAULT_PLAN — the flag's documented
// default — so this also exercises the env-var arming path.
func TestCrashHelper(t *testing.T) {
	if os.Getenv("CAMPAIGND_CRASH_HELPER") != "1" {
		t.Skip("spawned by TestDaemonCrashResume")
	}
	args := []string{"-addr", "127.0.0.1:0", "-store-dir", os.Getenv("CAMPAIGND_CRASH_DIR")}
	// The injected panic is the expected exit; a clean return means the
	// fault never fired, which the parent detects via the exit status.
	_ = run(context.Background(), os.Stdout, args, nil)
}

// TestDaemonCrashResume is the end-to-end crash-resume contract with a
// genuine process death: life 1 is a re-exec'd daemon armed with
// store.write:panic@3 (after a 200 ms delay) that dies mid-segment, life 2 reboots on the same
// store dir, requeues the journaled intent, finishes the grid from the
// checkpoint, and serves a stream byte-identical to an uninterrupted run.
func TestDaemonCrashResume(t *testing.T) {
	dir := t.TempDir()
	spec := `{"seed":7,"benches":["mcf"],"voltages_mv":[980,940],"repetitions":2}`

	// Life 1: a real child process, armed to panic on the 3rd segment
	// write (one full cell of two records survives on disk). The armed
	// write is held 200 ms first, so the 202 reaches the client before the
	// daemon dies even when the engine gets there first.
	cmd := exec.Command(os.Args[0], "-test.run=^TestCrashHelper$", "-test.v")
	cmd.Env = append(os.Environ(),
		"CAMPAIGND_CRASH_HELPER=1",
		"CAMPAIGND_CRASH_DIR="+dir,
		"CAMPAIGND_FAULT_PLAN=store.write:delay@3=200ms;store.write:panic@3",
	)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = io.Discard
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	base := ""
	armed := false
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		if strings.Contains(line, "FAULT INJECTION ARMED") {
			armed = true
		}
		if i := strings.Index(line, "listening on "); i >= 0 {
			base = strings.TrimSpace(line[i+len("listening on "):])
			break
		}
	}
	if base == "" {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatal("helper daemon never printed its listening address")
	}
	if !armed {
		t.Error("helper daemon did not announce the armed fault plan")
	}
	go io.Copy(io.Discard, stdout)

	resp, err := http.Post(base+"/campaigns", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	var sub struct {
		Cached bool `json:"cached"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if sub.Cached {
		t.Fatal("fresh submission claimed cached")
	}

	waited := make(chan error, 1)
	go func() { waited <- cmd.Wait() }()
	select {
	case err := <-waited:
		if err == nil {
			t.Fatal("helper daemon exited cleanly; the injected panic never fired")
		}
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatal("helper daemon survived the injected panic")
	}

	// The crash must leave debris for the next boot to salvage: an
	// in-flight segment and an intent journaled in the manifest.
	tmps, err := filepath.Glob(filepath.Join(dir, "seg-*.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tmps) != 1 {
		t.Fatalf("crash left %d in-flight segments, want 1", len(tmps))
	}
	manifest, err := os.ReadFile(filepath.Join(dir, "MANIFEST.jsonl"))
	if err != nil {
		t.Fatalf("crash left no manifest: %v", err)
	}
	if !strings.Contains(string(manifest), `"op":"begin"`) {
		t.Fatalf("manifest holds no journaled intent:\n%s", manifest)
	}

	// Life 2: in-process restart, no fault plan. The journaled intent
	// requeues on boot and finishes from the checkpoint on its own —
	// no resubmission needed.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out syncWriter
	base2, errc := startDaemon(t, ctx, &out, []string{"-addr", "127.0.0.1:0", "-store-dir", dir})

	type statsView struct {
		GridsRun int            `json:"grids_run"`
		Statuses map[string]int `json:"statuses"`
		Store    *struct {
			Segments     int    `json:"segments"`
			Requeued     uint64 `json:"requeued"`
			GridsResumed uint64 `json:"grids_resumed"`
			RunsSaved    uint64 `json:"runs_saved"`
		} `json:"store"`
	}
	getStats := func() statsView {
		t.Helper()
		resp, err := http.Get(base2 + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sv statsView
		if err := json.NewDecoder(resp.Body).Decode(&sv); err != nil {
			t.Fatal(err)
		}
		return sv
	}

	var sv statsView
	deadline := time.Now().Add(30 * time.Second)
	for {
		sv = getStats()
		if sv.Statuses["done"] >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("requeued campaign never finished; stats %+v, log:\n%s", sv, out.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if sv.Store == nil {
		t.Fatal("restarted daemon reports no store stats")
	}
	if sv.Store.Requeued != 1 {
		t.Errorf("requeued = %d, want 1", sv.Store.Requeued)
	}
	if sv.Store.GridsResumed != 1 {
		t.Errorf("grids_resumed = %d, want 1", sv.Store.GridsResumed)
	}
	if sv.Store.RunsSaved != 2 {
		t.Errorf("runs_saved = %d, want 2 (one checkpointed cell)", sv.Store.RunsSaved)
	}
	if sv.Store.Segments != 1 {
		t.Errorf("segments = %d, want 1", sv.Store.Segments)
	}

	// Resubmitting is now a cache hit, and the recovered stream is
	// byte-identical to a never-crashed daemon's run of the same spec.
	resp, err = http.Post(base2+"/campaigns", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	var sub2 struct {
		Stream string `json:"stream"`
		Cached bool   `json:"cached"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub2); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !sub2.Cached {
		t.Fatal("recovered characterization was not served from cache")
	}
	tail := func(base, stream string) []byte {
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
	recovered := tail(base2, sub2.Stream)

	ctx3, cancel3 := context.WithCancel(context.Background())
	defer cancel3()
	var out3 syncWriter
	base3, errc3 := startDaemon(t, ctx3, &out3, []string{"-addr", "127.0.0.1:0", "-store-dir", t.TempDir()})
	resp, err = http.Post(base3+"/campaigns", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	var sub3 struct {
		Stream string `json:"stream"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub3); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	pristine := tail(base3, sub3.Stream)

	if !bytes.Equal(recovered, pristine) {
		t.Errorf("recovered stream differs from an uninterrupted run\nrecovered:\n%spristine:\n%s",
			recovered, pristine)
	}
	if n := bytes.Count(recovered, []byte("\n")); n != 4 {
		t.Errorf("recovered stream has %d records, want 4", n)
	}

	cancel3()
	if err := <-errc3; err != nil {
		t.Errorf("pristine daemon shutdown: %v", err)
	}
	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Errorf("life 2 shutdown: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("life 2 did not shut down")
	}
}

// TestBadFaultPlanRejected pins flag validation: an unparseable plan must
// fail boot loudly, never arm partially.
func TestBadFaultPlanRejected(t *testing.T) {
	var out syncWriter
	if err := run(context.Background(), &out, []string{"-fault-plan", "store.write:explode@1"}, nil); err == nil {
		t.Error("unknown fault action accepted")
	}
	if err := run(context.Background(), &out, []string{"-fault-plan", "no-such-site:panic@1"}, nil); err == nil {
		t.Error("unregistered fault site accepted")
	}
}
