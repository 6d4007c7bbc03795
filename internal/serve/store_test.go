package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/fault"
	"repro/internal/store"
)

// storeServer boots a server over a store directory.
func storeServer(t *testing.T, dir string, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	opts.StoreDir = dir
	return newTestServer(t, opts)
}

// serverStats fetches GET /stats.
func serverStats(t *testing.T, ts *httptest.Server) statsResponse {
	t.Helper()
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	return stats
}

// TestRestartReplay is the tentpole acceptance test: a daemon restarted on
// the same store directory answers a previously characterized submission
// from disk — byte-identical stream, zero grids run.
func TestRestartReplay(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(4)

	// First life: run the grid, let the store commit it.
	s1, ts1 := storeServer(t, dir, Options{})
	first := submit(t, ts1, spec, http.StatusAccepted)
	liveStream := streamBytes(t, ts1, first.ID)
	if len(liveStream) == 0 {
		t.Fatal("live stream is empty")
	}
	st := serverStats(t, ts1)
	if st.Store == nil || st.Store.Segments != 1 || st.Store.Bytes == 0 {
		t.Fatalf("store stats after first run = %+v", st.Store)
	}
	ts1.Close()
	s1.Close()

	// Second life: same directory, fresh process state.
	s2, ts2 := storeServer(t, dir, Options{})
	// The registry warm-loaded the manifest: the campaign is listed as
	// done and stored before anyone resubmits.
	resp, err := http.Get(ts2.URL + "/campaigns")
	if err != nil {
		t.Fatal(err)
	}
	var views []View
	if err := json.NewDecoder(resp.Body).Decode(&views); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(views) != 1 || views[0].Status != StatusDone || !views[0].Stored {
		t.Fatalf("warm-loaded registry = %+v", views)
	}
	if views[0].Records == 0 || views[0].Runs == 0 {
		t.Errorf("warm-loaded view lost its bookkeeping: %+v", views[0])
	}

	// Resubmission: a cache hit served from disk, grid not re-run.
	second := submit(t, ts2, spec, http.StatusOK)
	if !second.Cached {
		t.Fatal("restarted daemon re-ran a stored characterization")
	}
	if got := streamBytes(t, ts2, second.ID); !bytes.Equal(got, liveStream) {
		t.Error("replayed stream differs from the original live stream")
	}
	st = serverStats(t, ts2)
	if st.GridsRun != 0 {
		t.Errorf("grids run after restart = %d, want 0", st.GridsRun)
	}
	if st.Store == nil || st.Store.ReplayHits != 1 {
		t.Errorf("store stats after replay = %+v, want 1 replay hit", st.Store)
	}
	ts2.Close()
	s2.Close()
}

// TestRestartStreamWithoutResubmit covers the other replay door: streaming
// a warm-loaded campaign id directly hydrates from disk too.
func TestRestartStreamWithoutResubmit(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(2)
	s1, ts1 := storeServer(t, dir, Options{})
	first := submit(t, ts1, spec, http.StatusAccepted)
	liveStream := streamBytes(t, ts1, first.ID)
	ts1.Close()
	s1.Close()

	s2, ts2 := storeServer(t, dir, Options{})
	defer func() { ts2.Close(); s2.Close() }()
	resp, err := http.Get(ts2.URL + "/campaigns")
	if err != nil {
		t.Fatal(err)
	}
	var views []View
	if err := json.NewDecoder(resp.Body).Decode(&views); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(views) != 1 {
		t.Fatalf("registry = %+v", views)
	}
	// Status polls stay cheap: GET by id must not page the segment into
	// memory — only streaming (below) and submission hits hydrate.
	vr, err := http.Get(ts2.URL + "/campaigns/" + views[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	var v View
	if err := json.NewDecoder(vr.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	vr.Body.Close()
	if v.Records == 0 {
		t.Error("status poll lost the on-disk record count")
	}
	if c := s2.lookup(views[0].ID); !c.needsHydration() {
		t.Error("status poll hydrated the campaign")
	}
	if got := streamBytes(t, ts2, views[0].ID); !bytes.Equal(got, liveStream) {
		t.Error("warm-id stream differs from the original live stream")
	}
	if c := s2.lookup(views[0].ID); c.needsHydration() {
		t.Error("stream did not hydrate the campaign")
	}
	if st := serverStats(t, ts2); st.GridsRun != 0 {
		t.Errorf("streaming a stored campaign ran %d grids", st.GridsRun)
	}
}

// TestCrashRecoveryRerun is the damage acceptance test: a store directory
// with a truncated final segment recovers on boot — the intact campaign
// replays, the damaged one is quarantined and re-runs cleanly.
func TestCrashRecoveryRerun(t *testing.T) {
	dir := t.TempDir()
	intact := testSpec(2)
	damaged := testSpec(2)
	damaged.Seed = 8

	s1, ts1 := storeServer(t, dir, Options{})
	okSub := submit(t, ts1, intact, http.StatusAccepted)
	okStream := streamBytes(t, ts1, okSub.ID)
	badSub := submit(t, ts1, damaged, http.StatusAccepted)
	badStream := streamBytes(t, ts1, badSub.ID)
	ts1.Close()
	s1.Close()

	// Tear the damaged spec's segment mid-record (inside the final one).
	seg := filepath.Join(dir, "seg-"+badSub.Fingerprint+".bin")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, data[:len(data)-11], 0o644); err != nil {
		t.Fatal(err)
	}

	s2, ts2 := storeServer(t, dir, Options{})
	defer func() { ts2.Close(); s2.Close() }()

	// The intact campaign replays from disk.
	okAgain := submit(t, ts2, intact, http.StatusOK)
	if !okAgain.Cached {
		t.Error("intact campaign not served from disk after recovery")
	}
	if got := streamBytes(t, ts2, okAgain.ID); !bytes.Equal(got, okStream) {
		t.Error("intact replay differs from its original stream")
	}
	// The damaged one was quarantined: it re-runs and still converges on
	// the same deterministic stream.
	badAgain := submit(t, ts2, damaged, http.StatusAccepted)
	if badAgain.Cached {
		t.Fatal("truncated segment served as a cache hit")
	}
	if got := streamBytes(t, ts2, badAgain.ID); !bytes.Equal(got, badStream) {
		t.Error("re-run of the damaged campaign diverged from its original stream")
	}
	st := serverStats(t, ts2)
	if st.GridsRun != 1 {
		t.Errorf("grids run after recovery = %d, want 1 (damaged only)", st.GridsRun)
	}
	if st.Store == nil || st.Store.Quarantined != 1 {
		t.Errorf("store stats after recovery = %+v, want 1 quarantined", st.Store)
	}
	// The clean re-run recommitted its segment.
	if st.Store.Segments != 2 {
		t.Errorf("segments after re-run = %d, want 2", st.Store.Segments)
	}
}

// TestFlippedSegmentByteReruns: damage that keeps a segment's size (one
// flipped payload byte) is found when the segment is read, never served.
// After a restart, resubmitting the spec is not a cache hit: the campaign
// re-runs once and streams exactly its original bytes, with no short or
// failed stream on the way.
func TestFlippedSegmentByteReruns(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(2)
	s1, ts1 := storeServer(t, dir, Options{})
	first := submit(t, ts1, spec, http.StatusAccepted)
	want := streamBytes(t, ts1, first.ID)
	ts1.Close()
	s1.Close()

	seg := filepath.Join(dir, "seg-"+first.Fingerprint+".bin")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-5] ^= 0xff // the last record's final payload byte
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, ts2 := storeServer(t, dir, Options{})
	again := submit(t, ts2, spec, http.StatusAccepted)
	if again.Cached {
		t.Fatal("a damaged segment answered the submission as a cache hit")
	}
	if got := streamBytes(t, ts2, again.ID); !bytes.Equal(got, want) {
		t.Errorf("re-run streamed %d bytes that differ from the original %d", len(got), len(want))
	}
	if st := serverStats(t, ts2); st.GridsRun != 1 {
		t.Errorf("grids run = %d, want 1", st.GridsRun)
	}
}

// TestJSONLStoreUpgrade: a store left by a daemon that wrote JSONL
// segments boots cleanly. Its manifest-claimed seg-<fp>.jsonl and a stray
// unclaimed seg-* file are quarantined, so resubmitting the spec re-runs
// once, streams exactly what a fresh daemon streams, and commits a binary
// segment that answers the next submission.
func TestJSONLStoreUpgrade(t *testing.T) {
	spec := testSpec(2)
	refDir := t.TempDir()
	_, refTS := storeServer(t, refDir, Options{})
	want := streamBytes(t, refTS, submit(t, refTS, spec, http.StatusAccepted).ID)

	// The old daemon's store: the same campaign as a claimed JSONL segment.
	d := spec.withDefaults()
	fp := d.Fingerprint()
	dir := t.TempDir()
	legacy := batchJSONL(t, spec)
	seg := "seg-" + fp + ".jsonl"
	if err := os.WriteFile(filepath.Join(dir, seg), legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	meta, err := json.Marshal(metaOf(d, 1, campaign.Stats{Shards: 1, Runs: expectedRecords(spec), Planned: expectedRecords(spec)}))
	if err != nil {
		t.Fatal(err)
	}
	put, err := json.Marshal(map[string]any{
		"op": "put", "fp": fp, "segment": seg,
		"records": expectedRecords(spec), "bytes": len(legacy), "meta": json.RawMessage(meta),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "MANIFEST.jsonl"), append(put, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "seg-stray.jsonl"), legacy, 0o644); err != nil {
		t.Fatal(err)
	}

	s, ts := storeServer(t, dir, Options{})
	if st := serverStats(t, ts); st.Store == nil || st.Store.Quarantined != 2 || st.Store.Segments != 0 {
		t.Fatalf("store stats after upgrade boot = %+v, want 2 quarantined, 0 segments", st.Store)
	}
	sub := submit(t, ts, spec, http.StatusAccepted)
	if sub.Cached {
		t.Fatal("JSONL segment served as a cache hit")
	}
	if got := streamBytes(t, ts, sub.ID); !bytes.Equal(got, want) {
		t.Error("re-run after upgrade differs from a fresh daemon's stream")
	}
	if again := submit(t, ts, spec, http.StatusOK); !again.Cached {
		t.Error("resubmission after the re-run not served from the store")
	}
	if got := s.gridsRunCount(); got != 1 {
		t.Errorf("grids run = %d, want 1", got)
	}
	if got := segmentBytes(t, dir); !bytes.HasPrefix(got, []byte("WIRESEGM")) {
		t.Error("re-run did not commit a binary segment")
	}
}

// TestEvictionReloadsFromDisk pins the evicted-then-resubmitted flow: with
// the store enabled, LRU eviction only drops the memory buffer — the
// fingerprint replays from its segment instead of re-running.
func TestEvictionReloadsFromDisk(t *testing.T) {
	dir := t.TempDir()
	s, ts := storeServer(t, dir, Options{CacheMax: 1})
	defer func() { ts.Close() }()

	a := testSpec(2)
	b := testSpec(2)
	b.Seed = 9
	aSub := submit(t, ts, a, http.StatusAccepted)
	aStream := streamBytes(t, ts, aSub.ID)
	bSub := submit(t, ts, b, http.StatusAccepted)
	streamBytes(t, ts, bSub.ID) // drains; admitting b evicted a

	evictions := s.metrics.evictions.Value()
	if evictions == 0 {
		t.Fatal("CacheMax 1 evicted nothing")
	}

	aAgain := submit(t, ts, a, http.StatusOK)
	if !aAgain.Cached {
		t.Fatal("evicted fingerprint re-ran despite the store")
	}
	if aAgain.ID == aSub.ID {
		t.Error("evicted campaign kept its id; expected a fresh adoption")
	}
	if got := streamBytes(t, ts, aAgain.ID); !bytes.Equal(got, aStream) {
		t.Error("post-eviction replay differs from the original stream")
	}
	st := serverStats(t, ts)
	if st.GridsRun != 2 {
		t.Errorf("grids run = %d, want 2 (eviction must not force a re-run)", st.GridsRun)
	}
	if st.Store == nil || st.Store.ReplayHits != 1 {
		t.Errorf("store stats = %+v, want 1 replay hit", st.Store)
	}
	s.Close()
}

// TestFailedCampaignNotPersisted: only complete, successful streams become
// segments.
func TestFailedCampaignNotPersisted(t *testing.T) {
	dir := t.TempDir()
	s, ts := storeServer(t, dir, Options{})
	defer func() { ts.Close(); s.Close() }()
	bad := Spec{Seed: 9, Benches: []string{"mcf"}, VoltagesMV: []float64{-5}, Repetitions: 1}
	sr := submit(t, ts, bad, http.StatusAccepted)
	streamBytes(t, ts, sr.ID)
	if st := serverStats(t, ts); st.Store == nil || st.Store.Segments != 0 {
		t.Errorf("failed campaign persisted: %+v", st.Store)
	}
}

// TestStoreCompactionBound wires Options.StoreMaxSegments through: the
// store keeps only the newest segments, and a compacted fingerprint
// re-runs (no manifest entry left to replay).
func TestStoreCompactionBound(t *testing.T) {
	dir := t.TempDir()
	s, ts := storeServer(t, dir, Options{StoreMaxSegments: 1})
	defer func() { ts.Close() }()
	a := testSpec(2)
	b := testSpec(2)
	b.Seed = 10
	aSub := submit(t, ts, a, http.StatusAccepted)
	streamBytes(t, ts, aSub.ID)
	bSub := submit(t, ts, b, http.StatusAccepted)
	streamBytes(t, ts, bSub.ID)
	st := serverStats(t, ts)
	if st.Store == nil || st.Store.Segments != 1 || st.Store.Compactions != 1 {
		t.Fatalf("store stats = %+v, want 1 segment after compaction", st.Store)
	}
	s.Close()

	// Only b survived on disk: a re-runs after a restart, b replays.
	s2, ts2 := storeServer(t, dir, Options{StoreMaxSegments: 1})
	defer func() { ts2.Close(); s2.Close() }()
	if again := submit(t, ts2, b, http.StatusOK); !again.Cached {
		t.Error("surviving segment did not replay")
	}
	if again := submit(t, ts2, a, http.StatusAccepted); again.Cached {
		t.Error("compacted segment claimed a cache hit")
	}
}

// TestDrain covers graceful shutdown: draining rejects new submissions
// with 503 while letting the in-flight campaign finish and commit.
func TestDrain(t *testing.T) {
	dir := t.TempDir()
	s, ts := storeServer(t, dir, Options{})
	defer func() { ts.Close(); s.Close() }()

	spec := testSpec(2)
	sr := submit(t, ts, spec, http.StatusAccepted)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// Drained means terminal AND committed: the segment is on disk.
	st := serverStats(t, ts)
	if st.Store == nil || st.Store.Segments != 1 {
		t.Errorf("store after drain = %+v, want the finished campaign committed", st.Store)
	}
	if !st.Draining {
		t.Error("stats do not report draining")
	}
	// New submissions are refused, existing streams still replay.
	other := testSpec(2)
	other.Seed = 11
	body, _ := json.Marshal(other)
	resp, err := http.Post(ts.URL+"/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submission while draining got %d, want 503", resp.StatusCode)
	}
	if got := streamBytes(t, ts, sr.ID); len(got) == 0 {
		t.Error("stream of a finished campaign broke during drain")
	}
}

// TestStoreOpenFailure: an unusable store directory fails construction
// loudly instead of silently running without durability.
func TestStoreOpenFailure(t *testing.T) {
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Options{StoreDir: file}); err == nil {
		t.Fatal("server built over an unusable store directory")
	}
}

// TestMetaRoundTrip pins the manifest summary: spec and bookkeeping
// survive the JSON round trip that adoption performs.
func TestMetaRoundTrip(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(2)
	s1, ts1 := storeServer(t, dir, Options{})
	sr := submit(t, ts1, spec, http.StatusAccepted)
	streamBytes(t, ts1, sr.ID)
	origView := s1.lookup(sr.ID).view()
	ts1.Close()
	s1.Close()

	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	e, ok := st.Get(sr.Fingerprint)
	if !ok {
		t.Fatal("fingerprint missing from the reopened store")
	}
	var m storedMeta
	if err := json.Unmarshal(e.Meta, &m); err != nil {
		t.Fatal(err)
	}
	if m.Spec.Fingerprint() != sr.Fingerprint {
		t.Error("persisted spec fingerprints differently")
	}
	stats, err := m.campaignStats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Runs != origView.Runs || stats.Recoveries != origView.Recoveries {
		t.Errorf("restored stats %+v, original view %+v", stats, origView)
	}
	if e.Records != origView.Records {
		t.Errorf("entry records %d, view %d", e.Records, origView.Records)
	}
}

// TestPrivateStoreLifecycle: a Server without StoreDir keeps its store in
// one directory of its own under TMPDIR, which Close removes, and which a
// failing New removes too. Unless StoreMaxSegments says otherwise, that
// store holds no more segments than the registry holds campaigns.
func TestPrivateStoreLifecycle(t *testing.T) {
	tmpEntries := func(t *testing.T, dir string) []os.DirEntry {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		return entries
	}
	t.Run("close removes it", func(t *testing.T) {
		tmp := t.TempDir()
		t.Setenv("TMPDIR", tmp)
		s, err := New(Options{})
		if err != nil {
			t.Fatal(err)
		}
		if entries := tmpEntries(t, tmp); len(entries) != 1 || !entries[0].IsDir() {
			t.Errorf("TMPDIR holds %v, want one store directory", entries)
		}
		s.Close()
		if entries := tmpEntries(t, tmp); len(entries) != 0 {
			t.Errorf("TMPDIR holds %v after Close, want nothing", entries)
		}
	})
	t.Run("failed New removes it", func(t *testing.T) {
		tmp := t.TempDir()
		t.Setenv("TMPDIR", tmp)
		if _, err := New(Options{AuthKeys: []Key{{Secret: "", Tenant: "a"}}}); err == nil {
			t.Fatal("New accepted an empty key secret")
		}
		if entries := tmpEntries(t, tmp); len(entries) != 0 {
			t.Errorf("TMPDIR holds %v after a failed New, want nothing", entries)
		}
	})
	t.Run("bounded at CacheMax", func(t *testing.T) {
		_, ts := newTestServer(t, Options{CacheMax: 2})
		for seed := uint64(301); seed <= 305; seed++ {
			streamBytes(t, ts, submit(t, ts, tinySpec(seed), http.StatusAccepted).ID)
		}
		if st := serverStats(t, ts); st.Store.Segments > 2 || st.GridsRun != 5 {
			t.Errorf("after 5 campaigns at CacheMax 2: %d segments, %d grids run; want at most 2 and 5",
				st.Store.Segments, st.GridsRun)
		}
	})
}

// beginProbe is a log handler that, at each "campaign running" line,
// reads the store's journal from disk and notes any campaign the engine
// picked up before its begin was written.
type beginProbe struct {
	dir     string
	mu      sync.Mutex
	running int
	early   []string // fingerprints running with no begin on disk
}

func (h *beginProbe) Enabled(context.Context, slog.Level) bool { return true }
func (h *beginProbe) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h *beginProbe) WithGroup(string) slog.Handler            { return h }

func (h *beginProbe) Handle(_ context.Context, r slog.Record) error {
	if r.Message != "campaign running" {
		return nil
	}
	fp := ""
	r.Attrs(func(a slog.Attr) bool {
		if a.Key == "fingerprint" {
			fp = a.Value.String()
		}
		return true
	})
	journal, _ := os.ReadFile(filepath.Join(h.dir, "MANIFEST.jsonl"))
	h.mu.Lock()
	defer h.mu.Unlock()
	h.running++
	if !bytes.Contains(journal, []byte(`{"op":"begin","fp":"`+fp+`"`)) {
		h.early = append(h.early, fp)
	}
	return nil
}

// TestIntentJournaledBeforeEnqueue pins Submit's order: a campaign's
// begin is on disk before the engine can pick the campaign up, so a run
// (and its end) never precedes its begin. Every fsync'd journal line is held 20 ms before it reaches the file,
// so an engine that could see a campaign before its begin is durable
// runs it well inside that window.
func TestIntentJournaledBeforeEnqueue(t *testing.T) {
	dir := t.TempDir()
	probe := &beginProbe{dir: dir}
	_, ts := storeServer(t, dir, Options{Logger: slog.New(probe)})
	plan, err := fault.Parse("store.journal:delay@1+=20ms")
	if err != nil {
		t.Fatal(err)
	}
	fault.Arm(plan)
	t.Cleanup(fault.Disarm)
	const n = 4
	for i := 0; i < n; i++ {
		sr := submit(t, ts, tinySpec(uint64(100+i)), http.StatusAccepted)
		streamBytes(t, ts, sr.ID)
	}
	fault.Disarm()
	probe.mu.Lock()
	defer probe.mu.Unlock()
	if probe.running != n || len(probe.early) != 0 {
		t.Errorf("%d of %d campaigns ran before their begin was journaled: %v", len(probe.early), probe.running, probe.early)
	}
}
