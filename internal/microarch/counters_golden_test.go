package microarch_test

// Golden pin of the cache simulator: the full Counters struct of every
// paper workload profile, captured from the original per-way tick-stamp
// LRU Cache, must reproduce bit for bit. The hot-path work (flat tag
// storage, the per-set recency word of at most 16 four-bit way numbers
// with its fill count, the repeated-line fast path, reusable hierarchies,
// the process-wide simulate memo) is only allowed to change cost, never
// output — this test is the fence.
//
// Regenerate (only for an intentional model change) with:
//
//	go test ./internal/microarch/ -run TestSimulateCountersGolden -update-golden

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/microarch"
	"repro/internal/workloads"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/counters_golden.json from the current simulator")

// goldenInstr/goldenSeed mirror the xgene execution engine's Simulate call
// (internal/xgene/run.go), so the pinned values are exactly the counters
// every characterization run reports.
const (
	goldenInstr = 200000
	goldenSeed  = 0xC0FFEE
)

func TestSimulateCountersGolden(t *testing.T) {
	path := filepath.Join("testdata", "counters_golden.json")
	got := map[string]microarch.Counters{}
	for _, p := range workloads.All() {
		c, err := microarch.Simulate(p.Mix, p.Stream, goldenInstr, goldenSeed)
		if err != nil {
			t.Fatalf("Simulate(%s): %v", p.Name, err)
		}
		got[p.Name] = c
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d profiles", path, len(got))
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update-golden to create): %v", err)
	}
	want := map[string]microarch.Counters{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d profiles, simulator produced %d", len(want), len(got))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("%s: profile missing from workloads.All()", name)
			continue
		}
		if g != w {
			t.Errorf("%s: counters diverged from pre-refactor golden\n got %+v\nwant %+v", name, g, w)
		}
	}
}
