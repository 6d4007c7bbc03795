package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"repro/internal/campaign"
)

// adaptiveSpec is a small adaptive submission: two benchmarks, a two-board
// fleet, paper resolution.
func adaptiveSpec(workers int) Spec {
	return Spec{
		Seed:        7,
		Strategy:    StrategyAdaptive,
		Benches:     []string{"mcf", "cactusADM"},
		Boards:      2,
		Repetitions: 4,
		Workers:     workers,
	}
}

// adaptiveBatchJSONL renders the spec's schedule as the engine's batch
// report in JSON Lines — the reference byte stream for adaptive campaigns.
func adaptiveBatchJSONL(t *testing.T, spec Spec) ([]byte, *campaign.ScheduleReport) {
	t.Helper()
	sched, err := spec.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := campaign.RunSchedule(campaign.Config{Workers: 1, Seed: spec.Seed}, sched)
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
	return buf.Bytes(), rep
}

// TestAdaptiveSubmission runs the adaptive strategy end to end through the
// daemon: the live stream is byte-identical to the offline schedule run at
// every worker count, the view separates planned from executed runs, and a
// resubmission is a cache hit.
func TestAdaptiveSubmission(t *testing.T) {
	want, offline := adaptiveBatchJSONL(t, adaptiveSpec(0))
	if len(want) == 0 {
		t.Fatal("reference adaptive stream is empty")
	}
	for _, workers := range []int{1, 4, 16} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			_, ts := newTestServer(t, Options{})
			sr := submit(t, ts, adaptiveSpec(workers), http.StatusAccepted)
			if sr.Cached {
				t.Fatal("first adaptive submission reported cached")
			}
			if got := streamBytes(t, ts, sr.ID); !bytes.Equal(got, want) {
				t.Errorf("adaptive stream differs from offline schedule run\ngot  %d bytes\nwant %d bytes", len(got), len(want))
			}
		})
	}

	s, ts := newTestServer(t, Options{})
	sr := submit(t, ts, adaptiveSpec(4), http.StatusAccepted)
	streamBytes(t, ts, sr.ID)
	resp, err := http.Get(ts.URL + "/campaigns/" + sr.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v View
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	if v.Runs != offline.Stats.Runs || v.PlannedRuns != offline.Stats.Planned {
		t.Errorf("view runs %d/planned %d, engine %d/%d", v.Runs, v.PlannedRuns, offline.Stats.Runs, offline.Stats.Planned)
	}
	if v.SkippedRuns != v.PlannedRuns-v.Runs || v.SkippedRuns <= 0 {
		t.Errorf("skipped %d, planned %d, runs %d — adaptive view must expose avoided work", v.SkippedRuns, v.PlannedRuns, v.Runs)
	}
	outcomes := 0
	for _, n := range v.Outcomes {
		outcomes += n
	}
	if outcomes != v.Runs {
		t.Errorf("view outcomes sum to %d, want executed runs %d (skipped points are not failures)", outcomes, v.Runs)
	}

	// Same characterization, different worker count: cache hit, no re-run.
	again := submit(t, ts, adaptiveSpec(16), http.StatusOK)
	if !again.Cached || again.ID != sr.ID {
		t.Fatalf("adaptive resubmission not served from cache: %+v", again)
	}
	gridsRun := s.gridsRunCount()
	if gridsRun != 1 {
		t.Errorf("grids run = %d, want 1", gridsRun)
	}
}

// TestStrategyFingerprints pins the extended cache key: exhaustive and
// adaptive submissions can never collide, semantically identical adaptive
// spellings share an entry, and every adaptive knob is load-bearing.
func TestStrategyFingerprints(t *testing.T) {
	adaptive := adaptiveSpec(0)
	exhaustive := testSpec(0)
	if adaptive.Fingerprint() == exhaustive.Fingerprint() {
		t.Error("adaptive and exhaustive specs share a fingerprint")
	}
	// Explicit defaults and empty fields are the same characterization.
	explicit := adaptive
	explicit.StartMV = 980
	explicit.FloorMV = 700
	explicit.CoarseStepMV = 40
	explicit.ResolutionMV = 5
	if explicit.Fingerprint() != adaptive.Fingerprint() {
		t.Error("defaulted adaptive fields changed the fingerprint")
	}
	oneBoard := testSpec(0)
	oneBoard.Boards = 1
	if oneBoard.Fingerprint() != testSpec(0).Fingerprint() {
		t.Error("boards 0 and boards 1 fingerprint differently")
	}
	// The hash input must parse unambiguously: a bench name embedding what
	// looks like a voltage entry must not collide with the spec that
	// actually has that voltage.
	crafted := Spec{Seed: 7, Benches: []string{"mcf\x00v:980"}, Repetitions: 1}
	honest := Spec{Seed: 7, Benches: []string{"mcf"}, VoltagesMV: []float64{980}, Repetitions: 1}
	if crafted.Fingerprint() == honest.Fingerprint() {
		t.Error("crafted bench name impersonated a voltage list entry")
	}
	withWorkers := adaptive
	withWorkers.Workers = 9
	if withWorkers.Fingerprint() != adaptive.Fingerprint() {
		t.Error("worker count changed the adaptive fingerprint")
	}
	for name, mutate := range map[string]func(*Spec){
		"boards":     func(s *Spec) { s.Boards = 3 },
		"start":      func(s *Spec) { s.StartMV = 960 },
		"floor":      func(s *Spec) { s.FloorMV = 750 },
		"coarse":     func(s *Spec) { s.CoarseStepMV = 20 },
		"resolution": func(s *Spec) { s.ResolutionMV = 10 },
		"max_runs":   func(s *Spec) { s.MaxRuns = 50 },
	} {
		mutated := adaptive
		mutated.Benches = append([]string(nil), adaptive.Benches...)
		mutate(&mutated)
		if mutated.Fingerprint() == adaptive.Fingerprint() {
			t.Errorf("%s change did not change the adaptive fingerprint", name)
		}
	}
}

// TestAdaptiveSpecValidation covers the strategy-specific shape rules.
func TestAdaptiveSpecValidation(t *testing.T) {
	bad := []Spec{
		// exhaustive spec carrying adaptive knobs
		{Seed: 1, Benches: []string{"mcf"}, VoltagesMV: []float64{980}, Repetitions: 1, ResolutionMV: 5},
		{Seed: 1, Benches: []string{"mcf"}, VoltagesMV: []float64{980}, Repetitions: 1, MaxRuns: 10},
		// adaptive spec carrying a voltage grid
		{Seed: 1, Strategy: StrategyAdaptive, Benches: []string{"mcf"}, VoltagesMV: []float64{980}, Repetitions: 1},
		// adaptive with broken descent parameters
		{Seed: 1, Strategy: StrategyAdaptive, Benches: []string{"mcf"}, Repetitions: 1, CoarseStepMV: 7},
		{Seed: 1, Strategy: StrategyAdaptive, Benches: []string{"mcf"}, Repetitions: 1, FloorMV: 1200},
		{Seed: 1, Strategy: StrategyAdaptive, Benches: []string{"mcf"}, Repetitions: 1, MaxRuns: -1},
		// unknown strategy / negative fleet
		{Seed: 1, Strategy: "genetic", Benches: []string{"mcf"}, VoltagesMV: []float64{980}, Repetitions: 1},
		{Seed: 1, Benches: []string{"mcf"}, VoltagesMV: []float64{980}, Repetitions: 1, Boards: -1},
	}
	for i, spec := range bad {
		if err := spec.withDefaults().Validate(); err == nil {
			t.Errorf("bad spec %d accepted: %+v", i, spec)
		}
	}
	ok := Spec{Seed: 1, Strategy: StrategyAdaptive, Benches: []string{"mcf"}, Repetitions: 1, Boards: 2}
	if err := ok.withDefaults().Validate(); err != nil {
		t.Errorf("valid adaptive spec rejected: %v", err)
	}
}

// TestCacheEviction pins the bounded registry: beyond CacheMax the
// least-recently-used finished campaign is dropped — its id stops
// resolving and resubmitting its fingerprint re-runs the grid instead of
// replaying the buffer (no unbounded record-buffer growth).
func TestCacheEviction(t *testing.T) {
	s, ts := newTestServer(t, Options{CacheMax: 1})
	mk := func(seed uint64) Spec {
		sp := testSpec(1)
		sp.Seed = seed
		return sp
	}
	first := submit(t, ts, mk(100), http.StatusAccepted)
	streamBytes(t, ts, first.ID) // runs to completion → evictable

	second := submit(t, ts, mk(101), http.StatusAccepted)
	if second.Cached {
		t.Fatal("distinct spec reported cached")
	}
	streamBytes(t, ts, second.ID)

	// The first campaign was evicted on the second submission.
	resp, err := http.Get(ts.URL + "/campaigns/" + first.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("evicted campaign still resolves: status %d", resp.StatusCode)
	}

	// Resubmitting the evicted fingerprint is a miss: the grid re-runs.
	again := submit(t, ts, mk(100), http.StatusAccepted)
	if again.Cached {
		t.Fatal("evicted fingerprint served from cache")
	}
	if again.ID == first.ID {
		t.Error("evicted campaign's id reused for its re-run")
	}
	streamBytes(t, ts, again.ID)

	s.mu.Lock()
	gridsRun, evictions, cached := s.gridsRunCount(), s.metrics.evictions.Value(), s.order.Len()
	s.mu.Unlock()
	if gridsRun != 3 {
		t.Errorf("grids run = %d, want 3 (eviction must force a re-run)", gridsRun)
	}
	if evictions < 2 {
		t.Errorf("evictions = %d, want >= 2", evictions)
	}
	if cached > 1 {
		t.Errorf("registry holds %d campaigns, cap is 1", cached)
	}
}
