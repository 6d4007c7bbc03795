package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/store"
)

// crashDaemonDir fabricates the exact on-disk state a daemon killed
// mid-campaign leaves behind: a manifest holding the accepted submission's
// begin, and a flushed-but-uncommitted segment .tmp with the first
// crashRecords records of the grid.
func crashDaemonDir(t *testing.T, spec Spec, crashRecords int) (string, string) {
	t.Helper()
	spec = spec.withDefaults()
	fp := spec.Fingerprint()
	dir := t.TempDir()

	grid, err := spec.Grid()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := campaign.RunGrid(campaign.Config{Workers: 1, Seed: spec.Seed}, grid)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	beginIntent(t, st, spec, "crash-tenant")
	if crashRecords > 0 {
		w, err := st.Begin(fp)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range rep.Records[:crashRecords] {
			if err := w.Append([]core.RunRecord{rec}); err != nil {
				t.Fatal(err)
			}
		}
		// No Commit, no Abort: the .tmp stays, flushed record by record.
	}
	st.Close()
	return dir, fp
}

// beginIntent journals an accepted submission exactly as Submit does.
func beginIntent(t *testing.T, st *store.Store, spec Spec, tenant string) {
	t.Helper()
	meta, err := json.Marshal(intentMeta{Spec: spec, Tenant: tenant})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.BeginIntent(spec.Fingerprint(), meta); err != nil {
		t.Fatal(err)
	}
}

// waitFingerprintDone polls until the fingerprint's campaign (requeued at
// boot, so it has no submit response to learn the ID from) turns terminal.
func waitFingerprintDone(t *testing.T, s *Server, fp string) *Campaign {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.mu.Lock()
		c := s.byFP[fp]
		s.mu.Unlock()
		if c != nil && c.Status().terminal() {
			return c
		}
		if time.Now().After(deadline) {
			t.Fatalf("fingerprint %s never reached a terminal state", fp)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// segmentBytes reads the single committed segment in a store directory.
func segmentBytes(t *testing.T, dir string) []byte {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "seg-*"))
	if err != nil {
		t.Fatal(err)
	}
	var segs [][]byte
	for _, m := range matches {
		if filepath.Ext(m) == ".tmp" {
			continue
		}
		data, err := os.ReadFile(m)
		if err != nil {
			t.Fatal(err)
		}
		segs = append(segs, data)
	}
	if len(segs) != 1 {
		t.Fatalf("store dir holds %d committed segments, want 1 (%v)", len(segs), matches)
	}
	return segs[0]
}

// TestCrashResumeByteIdentical is the tentpole acceptance test: a daemon
// booted on a crashed predecessor's directory requeues the interrupted
// campaign from the intent journal, restores the checkpointed prefix,
// executes only the remaining cells, and both the stream and the committed
// segment come out byte-identical to an uninterrupted run — at several
// worker counts. The crash point (5 records) deliberately tears a cell:
// two whole cells (4 records) restore, the torn fifth re-runs.
func TestCrashResumeByteIdentical(t *testing.T) {
	// Segments and checkpoints are binary-framed; the subtest names
	// the on-disk format the body exercises.
	t.Run("binary", crashResumeByteIdentical)
}

func crashResumeByteIdentical(t *testing.T) {
	// Reference: the same spec characterized by an uninterrupted daemon,
	// for segment-level comparison.
	refDir := t.TempDir()
	_, refTS := storeServer(t, refDir, Options{})
	refSub := submit(t, refTS, testSpec(2), http.StatusAccepted)
	wantStream := streamBytes(t, refTS, refSub.ID)
	wantSeg := segmentBytes(t, refDir)

	for _, workers := range []int{1, 4, 16} {
		spec := testSpec(workers)
		total := expectedRecords(spec)
		perCell := spec.Repetitions
		crashAt := 2*perCell + 1 // two whole cells + a torn one
		dir, fp := crashDaemonDir(t, spec, crashAt)

		s, ts := storeServer(t, dir, Options{})
		c := waitFingerprintDone(t, s, fp)
		if c.Status() != StatusDone {
			t.Fatalf("workers=%d: requeued campaign ended %s (%s)", workers, c.Status(), c.view().Error)
		}
		if got := streamBytes(t, ts, c.id); !bytes.Equal(got, wantStream) {
			t.Errorf("workers=%d: resumed stream differs from uninterrupted run", workers)
		}
		if got := segmentBytes(t, dir); !bytes.Equal(got, wantSeg) {
			t.Errorf("workers=%d: resumed segment differs from uninterrupted run", workers)
		}
		stats := serverStats(t, ts)
		if stats.Store == nil {
			t.Fatalf("workers=%d: no store stats", workers)
		}
		if stats.Store.Requeued != 1 || stats.Store.GridsResumed != 1 {
			t.Errorf("workers=%d: requeued=%d grids_resumed=%d, want 1/1",
				workers, stats.Store.Requeued, stats.Store.GridsResumed)
		}
		if want := 2 * perCell; stats.Store.RunsSaved != want {
			t.Errorf("workers=%d: runs_saved = %d, want %d (whole cells only)",
				workers, stats.Store.RunsSaved, want)
		}
		if v := c.view(); v.Runs != total-2*perCell {
			t.Errorf("workers=%d: engine ran %d records, want %d", workers, v.Runs, total-2*perCell)
		}
		// The restored prefix streams as the checkpoint's bytes; only the
		// records the engine ran are encoded.
		if got := metricValue(t, scrapeMetrics(t, ts.URL), "wire_frames_encoded_total"); got != float64(total-2*perCell) {
			t.Errorf("workers=%d: wire_frames_encoded_total = %g, want %d", workers, got, total-2*perCell)
		}
		if tn := c.view().Tenant; tn != "crash-tenant" {
			t.Errorf("workers=%d: requeued campaign lost its tenant: %q", workers, tn)
		}
		// The intent is terminal and the checkpoint consumed: a THIRD boot
		// must find nothing to requeue or resume.
		ts.Close()
		s.Close()
		s2, ts2 := storeServer(t, dir, Options{})
		stats2 := serverStats(t, ts2)
		if stats2.Store.Requeued != 0 || stats2.Store.Checkpoints != 0 {
			t.Errorf("workers=%d: third boot requeued=%d checkpoints=%d, want 0/0",
				workers, stats2.Store.Requeued, stats2.Store.Checkpoints)
		}
		if got := s2.gridsRunCount(); got != 0 {
			t.Errorf("workers=%d: third boot ran %d grids", workers, got)
		}
		ts2.Close()
		s2.Close()
	}
}

// TestIntentRequeueWithoutCheckpoint: a campaign accepted but killed before
// its first record still requeues at boot and runs from scratch.
func TestIntentRequeueWithoutCheckpoint(t *testing.T) {
	spec := testSpec(2)
	want := batchJSONL(t, spec)
	dir, fp := crashDaemonDir(t, spec, 0)

	s, ts := storeServer(t, dir, Options{})
	c := waitFingerprintDone(t, s, fp)
	if c.Status() != StatusDone {
		t.Fatalf("requeued campaign ended %s", c.Status())
	}
	if got := streamBytes(t, ts, c.id); !bytes.Equal(got, want) {
		t.Error("requeued stream differs from batch output")
	}
	stats := serverStats(t, ts)
	if stats.Store.Requeued != 1 || stats.Store.GridsResumed != 0 || stats.Store.RunsSaved != 0 {
		t.Errorf("requeued=%d grids_resumed=%d runs_saved=%d, want 1/0/0",
			stats.Store.Requeued, stats.Store.GridsResumed, stats.Store.RunsSaved)
	}
}

// TestIntentEndAfterCommit: a crash in the window between segment commit
// and the journal's end line must NOT re-run the campaign — the manifest
// already answers the fingerprint.
func TestIntentEndAfterCommit(t *testing.T) {
	spec := testSpec(2).withDefaults()
	fp := spec.Fingerprint()
	dir := t.TempDir()

	// Committed segment, dangling begin.
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	beginIntent(t, st, spec, "")
	grid, err := spec.Grid()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := campaign.RunGrid(campaign.Config{Workers: 1, Seed: spec.Seed}, grid)
	if err != nil {
		t.Fatal(err)
	}
	w, err := st.Begin(fp)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range rep.Records {
		if err := w.Append([]core.RunRecord{rec}); err != nil {
			t.Fatal(err)
		}
	}
	meta, err := json.Marshal(metaOf(spec, 1, campaign.Stats{Shards: 1, Runs: len(rep.Records), Planned: len(rep.Records)}))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(meta); err != nil {
		t.Fatal(err)
	}
	st.Close()

	s, ts := storeServer(t, dir, Options{})
	// The requeue goroutine resolves the intent against the manifest;
	// give it a beat, then prove nothing ran.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if len(s.store.Intents()) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("intent never resolved against the committed segment")
		}
		time.Sleep(2 * time.Millisecond)
	}
	stats := serverStats(t, ts)
	if stats.GridsRun != 0 || stats.Store.Requeued != 0 {
		t.Errorf("grids_run=%d requeued=%d, want 0/0", stats.GridsRun, stats.Store.Requeued)
	}
	sub := submit(t, ts, spec, http.StatusOK)
	if !sub.Cached {
		t.Error("committed fingerprint not served from store")
	}
}

// TestReadyzLifecycle: /readyz is 200 on a healthy daemon, 503 while the
// store is degraded (write faults exhausted the tee's retries), recovers
// on the next successful commit, and 503 again once draining.
func TestReadyzLifecycle(t *testing.T) {
	readyz := func(ts string) int {
		resp, err := http.Get(ts + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	plan, err := fault.Parse("store.write:error@1+=ENOSPC")
	if err != nil {
		t.Fatal(err)
	}
	fault.Arm(plan)
	t.Cleanup(fault.Disarm)

	dir := t.TempDir()
	s, ts := storeServer(t, dir, Options{})
	if got := readyz(ts.URL); got != http.StatusOK {
		t.Fatalf("healthy readyz = %d", got)
	}

	// Every segment write ENOSPCs: the campaign completes memory-only and
	// the daemon turns unready.
	sub := submit(t, ts, testSpec(2), http.StatusAccepted)
	waitForStatus(t, s, sub.ID, StatusDone)
	if got := readyz(ts.URL); got != http.StatusServiceUnavailable {
		t.Fatalf("degraded readyz = %d, want 503", got)
	}
	stats := serverStats(t, ts)
	if stats.Store == nil || !stats.Store.Degraded {
		t.Error("stats does not report store degraded")
	}
	if got := streamBytes(t, ts, sub.ID); !bytes.Equal(got, batchJSONL(t, testSpec(2))) {
		t.Error("degraded campaign's stream is not byte-identical (memory-only path broke)")
	}

	// Disk "recovers": the next successful commit clears readiness.
	fault.Disarm()
	other := testSpec(2)
	other.Seed = 99
	sub2 := submit(t, ts, other, http.StatusAccepted)
	waitForStatus(t, s, sub2.ID, StatusDone)
	if got := readyz(ts.URL); got != http.StatusOK {
		t.Fatalf("recovered readyz = %d, want 200", got)
	}
	if stats := serverStats(t, ts); stats.Store.Degraded {
		t.Error("stats still reports degraded after recovery")
	}

	// Draining flips it off for good.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if got := readyz(ts.URL); got != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz = %d, want 503", got)
	}
}

// TestTransientWriteRetryByteIdentical: one segment write fails with EIO
// and the next succeeds. The fourth record is the second of its grid
// cell, so the failure lands inside a shard's batch; the tee's retry must
// resume at that record, leaving a committed segment and a stream
// byte-identical to an uninterrupted run and the store healthy.
func TestTransientWriteRetryByteIdentical(t *testing.T) {
	refDir := t.TempDir()
	_, refTS := storeServer(t, refDir, Options{})
	refSub := submit(t, refTS, testSpec(2), http.StatusAccepted)
	wantStream := streamBytes(t, refTS, refSub.ID)
	wantSeg := segmentBytes(t, refDir)

	plan, err := fault.Parse("store.write:error@4=EIO")
	if err != nil {
		t.Fatal(err)
	}
	fault.Arm(plan)
	t.Cleanup(fault.Disarm)

	dir := t.TempDir()
	s, ts := storeServer(t, dir, Options{})
	sub := submit(t, ts, testSpec(2), http.StatusAccepted)
	waitForStatus(t, s, sub.ID, StatusDone)
	fault.Disarm()
	if got := streamBytes(t, ts, sub.ID); !bytes.Equal(got, wantStream) {
		t.Error("stream after a retried write differs from an uninterrupted run")
	}
	if got := segmentBytes(t, dir); !bytes.Equal(got, wantSeg) {
		t.Errorf("segment after a retried write differs from an uninterrupted run (%d vs %d bytes)",
			len(got), len(wantSeg))
	}
	stats := serverStats(t, ts)
	if stats.Store == nil || stats.Store.Degraded {
		t.Error("a write that succeeded on retry left the store degraded")
	}
}

// TestDirSyncErrorKeepsCampaignDone: a directory fsync that fails after
// the segment's rename fails the commit, not the characterization: the
// campaign still finishes done with its full stream, the failure counts
// in campaignd_store_errors_total, and the store holds no entry for it.
func TestDirSyncErrorKeepsCampaignDone(t *testing.T) {
	plan, err := fault.Parse("store.dirsync:error@1=EIO")
	if err != nil {
		t.Fatal(err)
	}
	fault.Arm(plan)
	t.Cleanup(fault.Disarm)

	s, ts := storeServer(t, t.TempDir(), Options{})
	sub := submit(t, ts, testSpec(2), http.StatusAccepted)
	waitForStatus(t, s, sub.ID, StatusDone)
	fault.Disarm()
	if got := streamBytes(t, ts, sub.ID); !bytes.Equal(got, batchJSONL(t, testSpec(2))) {
		t.Error("stream of a campaign whose commit failed is not byte-identical")
	}
	if got := metricValue(t, scrapeMetrics(t, ts.URL), "campaignd_store_errors_total"); got != 1 {
		t.Errorf("campaignd_store_errors_total = %g, want 1", got)
	}
	if _, ok := s.store.Get(sub.Fingerprint); ok {
		t.Error("a commit whose directory fsync failed is indexed")
	}
}

// gridsRunCount reads the engine-invocation counter.
func (s *Server) gridsRunCount() int { return int(s.metrics.campaignsRun.Value()) }

// TestDrainWaitsForFleetAdoption: a shutdown signal landing while a peer
// segment is being adopted must not strand the half-fetched replica —
// Drain waits for the in-flight adoption, the store ends clean (no .tmp
// debris), and the next boot replays the adopted characterization instead
// of re-running the grid.
func TestDrainWaitsForFleetAdoption(t *testing.T) {
	dirs := make([]string, 3)
	hs := startFleet(t, 3, "hush", func(i int, o *Options) {
		dirs[i] = t.TempDir()
		o.StoreDir = dirs[i]
	})
	a, b := hs[0], hs[1]
	spec := testSpec(2)
	fp := spec.withDefaults().Fingerprint()

	ca, _, err := a.srv.Submit(spec, "", "")
	if err != nil {
		t.Fatal(err)
	}
	waitForStatus(t, a.srv, ca.id, StatusDone)

	// Stretch the adoption's body transfer so the drain demonstrably
	// overlaps it.
	plan, err := fault.Parse("fleet.fetch.body:delay@1=250ms")
	if err != nil {
		t.Fatal(err)
	}
	fault.Arm(plan)
	t.Cleanup(fault.Disarm)

	subErr := make(chan error, 1)
	go func() {
		_, _, err := b.srv.Submit(spec, "", "")
		subErr <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for b.srv.adopting.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("adoption never started")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := b.srv.Drain(ctx); err != nil {
		t.Fatalf("drain did not wait out the adoption: %v", err)
	}
	// Drain returning implies the adoption landed: replica committed, no
	// half-written debris, submission bounced with the draining error.
	if _, ok := b.srv.store.Get(fp); !ok {
		t.Fatal("drain returned before the adoption committed")
	}
	if err := <-subErr; !errors.Is(err, errDraining) {
		t.Fatalf("mid-drain submission returned %v, want errDraining", err)
	}
	if tmps, _ := filepath.Glob(filepath.Join(dirs[1], "seg-*.tmp")); len(tmps) != 0 {
		t.Fatalf(".tmp debris after drain: %v", tmps)
	}

	// The next boot on B's directory answers from the adopted replica.
	fault.Disarm()
	s2, ts2 := storeServer(t, dirs[1], Options{})
	sub := submit(t, ts2, spec, http.StatusOK)
	if !sub.Cached {
		t.Error("adopted characterization not served from disk after reboot")
	}
	if got := s2.gridsRunCount(); got != 0 {
		t.Errorf("reboot ran %d grids, want 0", got)
	}
}
