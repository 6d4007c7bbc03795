package campaign

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/silicon"
	"repro/internal/workloads"
	"repro/internal/xgene"
)

// TestBoardPoolSharedAcrossWorkers is the shared fleet pool's race and
// equivalence test: a fleet grid (3 distinct boards x 4 benchmark cells)
// must produce byte-identical records at workers 1, 4 and 16, and the
// process-wide fab pools must materialize each distinct die exactly once
// across ALL of those campaigns — never once per worker, as the old
// per-worker caches did. The grid runs at nominal refresh, where no run
// scans DRAM, so no DRAM population is fabricated at all. The CI campaign
// job runs this under -race, which also exercises the pool's
// check-out/return locking.
func TestBoardPoolSharedAcrossWorkers(t *testing.T) {
	dram.FabReset()
	silicon.FabReset()
	runFleetGrid(t, core.NominalSetup(silicon.CoreID{}))

	if st := dram.FabStats(); st.Misses != 0 {
		t.Errorf("DRAM populations fabricated %d times at nominal refresh, want 0", st.Misses)
	}
	if st := silicon.FabStats(); st.Misses != 3 {
		t.Errorf("dies fabricated %d times, want 3 (one per distinct board)", st.Misses)
	}
}

// TestBoardPoolSharedAcrossWorkersRelaxedRefresh is the same fleet grid at
// the paper's 35x-relaxed refresh period, where every run scans DRAM: each
// distinct board's population is fabricated exactly once across all
// worker counts, however many servers race to their first scan.
func TestBoardPoolSharedAcrossWorkersRelaxedRefresh(t *testing.T) {
	dram.FabReset()
	silicon.FabReset()
	setup := core.NominalSetup(silicon.CoreID{})
	setup.TREFP = 2283 * time.Millisecond
	runFleetGrid(t, setup)

	if st := dram.FabStats(); st.Misses != 3 {
		t.Errorf("DRAM populations fabricated %d times, want 3 (one per distinct board)", st.Misses)
	}
	if st := silicon.FabStats(); st.Misses != 3 {
		t.Errorf("dies fabricated %d times, want 3 (one per distinct board)", st.Misses)
	}
}

// runFleetGrid runs the 3-board fleet grid at setup with 1, 4 and 16
// workers and fails unless every worker count yields the same records.
func runFleetGrid(t *testing.T, setup core.Setup) {
	t.Helper()
	g := Grid{
		Name:  "pool",
		Board: Board{Corner: silicon.TFF, Seed: 77},
		Benches: []workloads.Profile{
			mustProfile(t, "mcf"),
			mustProfile(t, "gcc"),
			mustProfile(t, "namd"),
			mustProfile(t, "lbm"),
		},
		Setups:      []core.Setup{setup},
		Repetitions: 2,
		Boards:      3,
	}

	var ref []core.RunRecord
	for _, workers := range []int{1, 4, 16} {
		rep, err := RunGrid(Config{Workers: workers, Seed: 5}, g)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if ref == nil {
			ref = rep.Records
			continue
		}
		if !reflect.DeepEqual(ref, rep.Records) {
			t.Errorf("workers=%d: records differ from workers=1", workers)
		}
	}
}

// TestBoardPoolRecycling pins the reservoir mechanics directly: a released
// board comes back for the same key, keys never cross, and an empty pool
// reports nil (the caller fabricates).
func TestBoardPoolRecycling(t *testing.T) {
	p := newBoardPool()
	kA := boardKey{corner: silicon.TTT, seed: 1}
	kB := boardKey{corner: silicon.TTT, seed: 2}
	if p.acquire(kA) != nil {
		t.Fatal("empty pool handed out a board")
	}
	srv, err := xgene.NewServer(xgene.Options{Corner: kA.corner, Seed: kA.seed})
	if err != nil {
		t.Fatal(err)
	}
	p.release(kA, srv)
	if p.acquire(kB) != nil {
		t.Fatal("pool crossed keys")
	}
	if got := p.acquire(kA); got != srv {
		t.Fatal("pool did not return the released board")
	}
	if p.acquire(kA) != nil {
		t.Fatal("board handed out twice without a release")
	}
}

// TestSharedMemoDeterminismUnderCampaigns ties the process-wide memo layer
// to the engine contract end to end: wiping every memo between identical
// campaigns must not change a byte of output.
func TestSharedMemoDeterminismUnderCampaigns(t *testing.T) {
	g := Grid{
		Name:        "memo",
		Benches:     []workloads.Profile{mustProfile(t, "mcf")},
		Setups:      []core.Setup{core.NominalSetup(silicon.CoreID{})},
		Repetitions: 2,
		Boards:      2,
	}
	warm, err := RunGrid(Config{Workers: 4, Seed: 9}, g)
	if err != nil {
		t.Fatal(err)
	}
	dram.FabReset()
	silicon.FabReset()
	cold, err := RunGrid(Config{Workers: 4, Seed: 9}, g)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warm.Records, cold.Records) {
		t.Error("records depend on memo warmth; pooled artifacts must be pure")
	}
}
