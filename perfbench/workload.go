package main

import (
	"fmt"

	"repro/internal/serve"
	"repro/internal/workloads"
	"repro/internal/xrand"
)

// workload is one traffic mix for the closed-loop client. Every spec it
// generates is a pure function of (run seed, phase, index), so the same
// seed always sends the same byte-identical submissions.
type workload struct {
	name string
	// rate is the nominal number of timed campaigns per measured second.
	// The run length is seconds*rate campaigns, fixed before the run
	// starts: the store grows through a run and later campaigns cost more,
	// so both sides of a comparison must do exactly the same work.
	rate float64
	// warm is how many campaigns set-up submits before timing starts.
	warm int
	// populate (replay only) is how many fig4-grid segments set-up commits
	// before the daemon restarts over them.
	populate int
	// cacheMax bounds the daemon registry (0 keeps the daemon default).
	cacheMax int
	// gen returns campaign i of a phase ("warm" or "timed"); replay has
	// none and cycles through its populated specs instead (see spec).
	gen func(seed uint64, phase string, i int) serve.Spec
}

// Paper constants for the generated specs.
var (
	fig4VoltagesMV = []float64{980, 960, 940, 920, 900}
	// relaxedTREFPMillis is the DRAM study's 35x relaxed refresh period.
	relaxedTREFPMillis = 2283.0
	// dramBenches are the memory-heavy Rodinia applications of the DRAM
	// study (Fig. 8).
	dramBenches = []string{"backprop", "kmeans", "nw", "srad"}
	// vminBench is the one benchmark every Vmin descent characterizes.
	vminBench = "mcf"
)

// Board seeds of the warm-board workloads. They stay fixed across run
// seeds: boards differ in weak-cell population, and so in scan cost, and a
// seed-dependent board would add that lottery to the run-to-run spread.
const (
	fig4Board = 0x5EED_F164
	dramBoard = 0x5EED_D4A3
)

func specNames() []string {
	var names []string
	for _, p := range workloads.SPEC2006() {
		names = append(names, p.Name)
	}
	return names
}

// derive maps (seed, label, i) to a nonzero 64-bit seed.
func derive(seed uint64, label string, i int) uint64 {
	v := xrand.New(seed).Split(fmt.Sprintf("perfbench/%s/%d", label, i)).Uint64()
	if v == 0 {
		v = 1
	}
	return v
}

func fig4Spec(seed uint64, phase string, i int) serve.Spec {
	return serve.Spec{
		Name:        "fig4",
		BoardSeed:   fig4Board,
		Seed:        derive(seed, "fig4/"+phase, i),
		Benches:     specNames(),
		VoltagesMV:  fig4VoltagesMV,
		Repetitions: 2,
	}
}

func vminSpec(seed uint64, phase string, i int) serve.Spec {
	return serve.Spec{
		Name:        "vmin",
		Strategy:    serve.StrategyAdaptive,
		BoardSeed:   derive(seed, "vmin/board/"+phase, i),
		Seed:        derive(seed, "vmin/"+phase, i),
		Benches:     []string{vminBench},
		Repetitions: 2,
	}
}

func dramSpec(seed uint64, phase string, i int) serve.Spec {
	return serve.Spec{
		Name:        "dram",
		BoardSeed:   dramBoard,
		Seed:        derive(seed, "dram/"+phase, i),
		Benches:     dramBenches,
		VoltagesMV:  []float64{980},
		TREFPMillis: relaxedTREFPMillis,
		Repetitions: 5,
	}
}

// spec returns campaign i of a phase. Replay cycles through the populated
// fig4-grid specs, oldest first, the timed phase continuing where set-up's
// warm replays stopped. With the registry bounded below the populated set,
// every replay misses memory and hydrates from disk.
func (w *workload) spec(seed uint64, phase string, i int) serve.Spec {
	if w.populate == 0 {
		return w.gen(seed, phase, i)
	}
	if phase == "timed" {
		i += w.warm
	}
	return fig4Spec(seed, "populate", i%w.populate)
}

// workloadList is every workload the benchmark runs, in BENCHMARK.json order.
func workloadList() []*workload {
	return []*workload{
		{
			name: "fig4-grid",
			rate: 300, warm: 300,
			gen: fig4Spec,
		},
		{
			name: "vmin-new-board",
			rate: 25, warm: 48,
			gen: vminSpec,
		},
		{
			name: "dram-refresh",
			rate: 12, warm: 8,
			gen: dramSpec,
		},
		{
			name: "replay",
			rate: 300, warm: 64, populate: 512, cacheMax: 64,
		},
	}
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloadList() {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// smoke shrinks a workload's set-up to a handful of campaigns; every check
// stays on.
func (w *workload) smoke() {
	w.warm = 2
	if w.populate > 0 {
		w.populate, w.cacheMax = 8, 4
	}
}
