package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/fleet"
	"repro/internal/store"
	"repro/internal/wire"
)

// tinySpec is a one-cell grid, distinct per seed.
func tinySpec(seed uint64) Spec {
	return Spec{Seed: seed, Benches: []string{"mcf"}, VoltagesMV: []float64{980}, Repetitions: 1}
}

// peerSegment renders the characterization a fleet peer would serve for
// spec: its manifest summary and its segment bytes.
func peerSegment(t *testing.T, spec Spec) *fleet.Segment {
	t.Helper()
	spec = spec.withDefaults()
	grid, err := spec.Grid()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := campaign.RunGrid(campaign.Config{Workers: 1, Seed: spec.Seed}, grid)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := json.Marshal(metaOf(spec, 1, rep.Stats))
	if err != nil {
		t.Fatal(err)
	}
	body := wire.Header()
	for _, rec := range rep.Records {
		if body, err = wire.AppendBinaryRecord(body, rec); err != nil {
			t.Fatal(err)
		}
	}
	return &fleet.Segment{Meta: meta, Body: body, Records: len(rep.Records)}
}

// TestRegistryInsertionPathsShareLRU drives every way a campaign enters
// the registry (store adoption at boot and on submit, intent requeue,
// fleet adoption, local submission) through one server at CacheMax 2.
// Each insertion into a full registry evicts the least-recently-used
// terminal entry, and a live (queued or running) campaign is never
// evicted, even when it is the least recently used.
func TestRegistryInsertionPathsShareLRU(t *testing.T) {
	dir := t.TempDir()
	specA, specR, specF := tinySpec(101), tinySpec(102), tinySpec(103)
	specL, specG, specM, specN := tinySpec(104), tinySpec(105), tinySpec(106), tinySpec(107)
	fp := func(s Spec) string { return s.withDefaults().Fingerprint() }

	// A first life commits A, and a crash leaves R journaled but unrun.
	s1, err := New(Options{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s1.Submit(specA, "", ""); err != nil {
		t.Fatal(err)
	}
	waitFingerprintDone(t, s1, fp(specA))
	s1.Close()
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	beginIntent(t, st, specR.withDefaults(), "")
	st.Close()

	s, err := New(Options{StoreDir: dir, CacheMax: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	evictions := func() int { return int(s.metrics.evictions.Value()) }
	registered := func(specs ...Spec) []bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		out := make([]bool, len(specs))
		for i, spec := range specs {
			out[i] = s.byFP[fp(spec)] != nil
		}
		return out
	}
	expect := func(step string, wantEvictions int, in, out []Spec) {
		t.Helper()
		for i, ok := range registered(in...) {
			if !ok {
				t.Errorf("%s: seed %d missing from the registry", step, in[i].Seed)
			}
		}
		for i, ok := range registered(out...) {
			if ok {
				t.Errorf("%s: seed %d still registered, want evicted", step, out[i].Seed)
			}
		}
		if got := evictions(); got != wantEvictions {
			t.Errorf("%s: %d evictions, want %d", step, got, wantEvictions)
		}
	}

	// Boot: A adopted from the store, then R requeued from the journal.
	waitFingerprintDone(t, s, fp(specR))
	expect("boot", 0, []Spec{specA, specR}, nil)

	// A lookup makes A the most recent, so fleet adoption into the full
	// registry evicts R.
	s.mu.Lock()
	aID := s.byFP[fp(specA)].id
	s.mu.Unlock()
	s.lookup(aID)
	if err := s.adoptRemote(fp(specF), peerSegment(t, specF)); err != nil {
		t.Fatal(err)
	}
	expect("fleet adoption", 1, []Spec{specA, specF}, []Spec{specR})

	// F entered after A's lookup, so a local submission evicts A. The
	// gate keeps that submission, L, running.
	gate := make(chan struct{})
	s.gate = gate
	defer close(gate)
	if _, cached, err := s.Submit(specL, "", ""); err != nil || cached {
		t.Fatalf("submit L: cached=%v err=%v", cached, err)
	}
	expect("submission", 2, []Spec{specF, specL}, []Spec{specA})

	// A resubmission of A adopts it from the store again: the only
	// terminal entry, F, goes; live L stays although it is older.
	if _, cached, err := s.Submit(specA, "", ""); err != nil || !cached {
		t.Fatalf("resubmit A: cached=%v err=%v", cached, err)
	}
	expect("store adoption", 3, []Spec{specL, specA}, []Spec{specF})

	// Again with L the least recently used: fleet G evicts A, not L.
	if err := s.adoptRemote(fp(specG), peerSegment(t, specG)); err != nil {
		t.Fatal(err)
	}
	expect("fleet adoption past a live entry", 4, []Spec{specL, specG}, []Spec{specA})

	// M queues behind L and evicts G; with every entry live, N is admitted
	// over the cap and nothing is evicted.
	for _, spec := range []Spec{specM, specN} {
		if _, cached, err := s.Submit(spec, "", ""); err != nil || cached {
			t.Fatalf("submit seed %d: cached=%v err=%v", spec.Seed, cached, err)
		}
	}
	expect("all live", 5, []Spec{specL, specM, specN}, []Spec{specG})
	s.mu.Lock()
	n := s.order.Len()
	s.mu.Unlock()
	if n != 3 {
		t.Errorf("registry holds %d entries, want 3 (live entries admitted over the cap)", n)
	}
}

// TestHydratingHitTouchesStoreOnce: a cache hit that reads its segment
// back counts as one use in the store's recency order, so exactly one
// touch line reaches the journal.
func TestHydratingHitTouchesStoreOnce(t *testing.T) {
	dir := t.TempDir()
	spec := tinySpec(201)
	fp := spec.withDefaults().Fingerprint()
	s1, err := New(Options{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s1.Submit(spec, "", ""); err != nil {
		t.Fatal(err)
	}
	waitFingerprintDone(t, s1, fp)
	s1.Close()

	s2, err := New(Options{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if c, cached, err := s2.Submit(spec, "", ""); err != nil || !cached || c.needsHydration() {
		t.Fatalf("resubmit after restart: cached=%v err=%v", cached, err)
	}
	s2.Close() // flushes the buffered touch
	journal, err := os.ReadFile(filepath.Join(dir, "MANIFEST.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(journal), `"op":"touch"`); n != 1 {
		t.Errorf("a hydrating hit journaled %d touch lines, want 1:\n%s", n, journal)
	}
}

// TestLocalHitsReachStoreLRU: cache hits on a campaign run by this process
// move it in the store's recency order too, so store compaction evicts
// what the registry last used least, not what was committed first.
func TestLocalHitsReachStoreLRU(t *testing.T) {
	specA, specB, specC := tinySpec(211), tinySpec(212), tinySpec(213)
	fp := func(s Spec) string { return s.withDefaults().Fingerprint() }
	s, err := New(Options{StoreDir: t.TempDir(), StoreMaxSegments: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	run := func(spec Spec) {
		t.Helper()
		if _, cached, err := s.Submit(spec, "", ""); err != nil || cached {
			t.Fatalf("submit seed %d: cached=%v err=%v", spec.Seed, cached, err)
		}
		waitFingerprintDone(t, s, fp(spec))
	}
	run(specA)
	run(specB)
	for i := 0; i < 3; i++ {
		if _, cached, err := s.Submit(specA, "", ""); err != nil || !cached {
			t.Fatalf("hit A: cached=%v err=%v", cached, err)
		}
	}
	run(specC)
	if _, ok := s.store.Get(fp(specA)); !ok {
		t.Error("compaction dropped A, the segment the registry used last")
	}
	if _, ok := s.store.Get(fp(specB)); ok {
		t.Error("compaction kept B, the least recently used segment")
	}
}

// TestAdmissionBoundsPlannedRuns: a spec planning more than maxPlannedRuns
// records is a 400 and journals no intent; the bound counts an exhaustive
// grid's cells and an adaptive descent's resolution steps, and a spec at
// the bound is admitted.
func TestAdmissionBoundsPlannedRuns(t *testing.T) {
	dir := t.TempDir()
	_, ts := storeServer(t, dir, Options{})
	tooMany := []Spec{
		{Seed: 1, Benches: []string{"mcf"}, VoltagesMV: []float64{980}, Repetitions: 1e8},
		{Seed: 1, Benches: []string{"mcf"}, VoltagesMV: []float64{980}, Repetitions: 1, Boards: 1e6},
		// 1000 -> 700 mV at 0.001 mV is 300001 levels.
		{Seed: 1, Strategy: StrategyAdaptive, Benches: []string{"mcf"}, Repetitions: 1,
			StartMV: 1000, FloorMV: 700, CoarseStepMV: 0.001, ResolutionMV: 0.001},
	}
	for i, spec := range tooMany {
		body, _ := json.Marshal(spec)
		resp, err := http.Post(ts.URL+"/campaigns", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("spec %d planning over %d runs: status %d, want 400", i, maxPlannedRuns, resp.StatusCode)
		}
	}
	if journal, err := os.ReadFile(filepath.Join(dir, "MANIFEST.jsonl")); err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	} else if strings.Contains(string(journal), `"op":"begin"`) {
		t.Errorf("a rejected spec journaled an intent:\n%s", journal)
	}

	atBound := tinySpec(1)
	atBound.Repetitions = maxPlannedRuns
	if err := atBound.withDefaults().Validate(); err != nil {
		t.Errorf("spec planning exactly %d runs rejected: %v", maxPlannedRuns, err)
	}
	atBound.Repetitions++
	if err := atBound.withDefaults().Validate(); err == nil {
		t.Errorf("spec planning %d runs accepted", maxPlannedRuns+1)
	}
}
