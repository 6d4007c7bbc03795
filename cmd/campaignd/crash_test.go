package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestDaemonCrashResume is the end-to-end crash-resume contract with a
// genuine process death: life 1 is a daemon armed with
// store.write:panic@3 (after a 200 ms delay) that dies mid-segment, life 2
// reboots on the same store dir, requeues the journaled intent, finishes
// the grid from the checkpoint, and serves a stream byte-identical to an
// uninterrupted run.
func TestDaemonCrashResume(t *testing.T) {
	dir := t.TempDir()

	// Life 1: armed to panic on the 3rd segment write (one full cell of two
	// records survives on disk). The armed write is held 200 ms first, so
	// the 202 reaches the client before the daemon dies even when the
	// engine gets there first. The plan arrives through
	// $CAMPAIGND_FAULT_PLAN, the flag's documented default, so this also
	// exercises the env-var arming path.
	life1 := startProc(t, []string{"CAMPAIGND_FAULT_PLAN=store.write:delay@3=200ms;store.write:panic@3"},
		"-addr", "127.0.0.1:0", "-store-dir", dir)
	if !strings.Contains(life1.log.String(), "FAULT INJECTION ARMED") {
		t.Error("life 1 did not announce the armed fault plan")
	}
	if sub := submitSpec(t, life1.base, fig4Tiny); sub.Cached {
		t.Fatal("fresh submission claimed cached")
	}
	if err := life1.wait(); err == nil {
		t.Fatalf("life 1 exited cleanly; the injected panic never fired:\n%s", life1.log.String())
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

	// Life 2: a clean reboot, no fault plan. The journaled intent requeues
	// on boot and finishes from the checkpoint on its own, no resubmission
	// needed.
	life2 := life1.reboot()
	var sv struct {
		Statuses map[string]int `json:"statuses"`
		Store    *struct {
			Segments     int    `json:"segments"`
			Requeued     uint64 `json:"requeued"`
			GridsResumed uint64 `json:"grids_resumed"`
			RunsSaved    uint64 `json:"runs_saved"`
		} `json:"store"`
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		getJSON(t, life2.base, "/stats", &sv)
		if sv.Statuses["done"] >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("requeued campaign never finished; stats %+v, log:\n%s", sv, life2.log.String())
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
	if !strings.Contains(life2.log.String(), "campaign resumed from checkpoint") {
		t.Errorf("life 2 log missing the resume line:\n%s", life2.log.String())
	}

	// Resubmitting is now a cache hit, and the recovered stream is
	// byte-identical to a never-crashed daemon's run of the same spec.
	sub := submitSpec(t, life2.base, fig4Tiny)
	if !sub.Cached {
		t.Fatal("recovered characterization was not served from cache")
	}
	recovered := tail(t, life2.base, sub.Stream)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out syncWriter
	base, errc := startDaemon(t, ctx, &out, []string{"-addr", "127.0.0.1:0", "-store-dir", t.TempDir()})
	pristine := tail(t, base, submitSpec(t, base, fig4Tiny).Stream)

	if !bytes.Equal(recovered, pristine) {
		t.Errorf("recovered stream differs from an uninterrupted run\nrecovered:\n%spristine:\n%s",
			recovered, pristine)
	}
	if n := bytes.Count(recovered, []byte("\n")); n != 4 {
		t.Errorf("recovered stream has %d records, want 4", n)
	}

	cancel()
	if err := <-errc; err != nil {
		t.Errorf("pristine daemon shutdown: %v", err)
	}
	life2.signal(syscall.SIGTERM)
	if err := life2.wait(); err != nil {
		t.Errorf("life 2 exit after SIGTERM: %v", err)
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
