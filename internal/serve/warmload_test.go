package serve

import (
	"encoding/json"
	"net/http"
	"testing"
)

// warmSpec builds distinct small specs so each one fingerprints (and
// stores) separately.
func warmSpec(seed uint64) Spec {
	return Spec{
		Seed:        seed,
		Benches:     []string{"mcf"},
		VoltagesMV:  []float64{980},
		Repetitions: 1,
	}
}

// TestLazyWarmLoad pins the paged boot: with more stored campaigns than
// the registry holds (CacheMax), boot adopts only the most-recently-used
// CacheMax entries, reports the split in /stats, and a deferred
// fingerprint still replays from disk on demand — cached, zero grids run.
func TestLazyWarmLoad(t *testing.T) {
	dir := t.TempDir()

	// First life: characterize four distinct specs. Submission order sets
	// the store's LRU order: seed 1 is the coldest entry.
	s1, ts1 := storeServer(t, dir, Options{})
	for seed := uint64(1); seed <= 4; seed++ {
		r := submit(t, ts1, warmSpec(seed), http.StatusAccepted)
		streamBytes(t, ts1, r.ID) // wait for completion + commit
	}
	ts1.Close()
	s1.Close()

	// Second life: page in at most 2 entries at boot.
	s2, ts2 := storeServer(t, dir, Options{CacheMax: 2})
	defer ts2.Close()
	defer s2.Close()

	st := serverStats(t, ts2)
	if st.Store == nil {
		t.Fatal("store stats missing")
	}
	if st.Store.Boot.WarmLoaded != 2 || st.Store.Boot.Deferred != 2 {
		t.Fatalf("boot stats = %+v, want 2 warm-loaded / 2 deferred", st.Store.Boot)
	}
	if st.Cached != 2 {
		t.Fatalf("registry holds %d campaigns after boot, want 2", st.Cached)
	}

	// Only the two most recent entries were adopted.
	resp, err := http.Get(ts2.URL + "/campaigns")
	if err != nil {
		t.Fatal(err)
	}
	var views []View
	if err := json.NewDecoder(resp.Body).Decode(&views); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(views) != 2 {
		t.Fatalf("listed %d campaigns, want 2", len(views))
	}

	// A deferred fingerprint pages in on first demand: cache hit, replay
	// from disk, no grid re-run.
	r := submit(t, ts2, warmSpec(1), http.StatusOK)
	if !r.Cached {
		t.Fatal("deferred entry was not served from the store")
	}
	if b := streamBytes(t, ts2, r.ID); len(b) == 0 {
		t.Fatal("deferred entry replayed an empty stream")
	}
	st = serverStats(t, ts2)
	if st.GridsRun != 0 {
		t.Fatalf("grids_run = %d after deferred replay, want 0", st.GridsRun)
	}
	if st.Store.ReplayHits != 1 {
		t.Fatalf("replay_hits = %d, want 1", st.Store.ReplayHits)
	}
	// Boot numbers are a boot-time snapshot; paging in later must not
	// rewrite history.
	if st.Store.Boot.WarmLoaded != 2 || st.Store.Boot.Deferred != 2 {
		t.Fatalf("boot stats changed after paging: %+v", st.Store.Boot)
	}
}

// TestWarmLoadDefaultsToCacheMax pins the threshold: adopting more than
// the registry cap would evict the excess immediately, so boot adopts at
// most CacheMax entries.
func TestWarmLoadDefaultsToCacheMax(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := storeServer(t, dir, Options{})
	for seed := uint64(1); seed <= 3; seed++ {
		r := submit(t, ts1, warmSpec(seed), http.StatusAccepted)
		streamBytes(t, ts1, r.ID)
	}
	ts1.Close()
	s1.Close()

	s2, ts2 := storeServer(t, dir, Options{CacheMax: 2})
	defer ts2.Close()
	defer s2.Close()
	st := serverStats(t, ts2)
	if st.Store.Boot.WarmLoaded != 2 || st.Store.Boot.Deferred != 1 {
		t.Fatalf("boot stats = %+v, want 2 warm-loaded / 1 deferred (CacheMax default)", st.Store.Boot)
	}
}
