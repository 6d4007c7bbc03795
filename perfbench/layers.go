package main

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/serve"
	"repro/internal/silicon"
	"repro/internal/simcache"
	"repro/internal/store"
	"repro/internal/wire"
	"repro/internal/workloads"
	"repro/internal/xgene"
)

// snapshot is the counter state around a traced window: the daemon's
// /metrics plus the process-wide pool counters and runtime.MemStats.
type snapshot struct {
	prom             map[string]float64
	sim, dFab, sFab  simcache.Stats
	totalAlloc, nGCs uint64
}

func takeSnapshot(base string) (snapshot, error) {
	prom, err := scrape(base)
	if err != nil {
		return snapshot{}, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return snapshot{
		prom: prom, sim: simcache.CountersStats(), dFab: dram.FabStats(), sFab: silicon.FabStats(),
		totalAlloc: ms.TotalAlloc, nGCs: uint64(ms.NumGC),
	}, nil
}

// delta is how far a /metrics series moved between two snapshots.
func delta(a, b snapshot, name string) float64 { return b.prom[name] - a.prom[name] }

// histMeanMS is a histogram's mean observation between two snapshots, in
// milliseconds, and how many observations it saw.
func histMeanMS(a, b snapshot, name string) (float64, float64) {
	n := delta(a, b, name+"_count")
	if n == 0 {
		return 0, 0
	}
	return delta(a, b, name+"_sum") / n * 1000, n
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// counterLayers turns the counter deltas over a traced window of
// `campaigns` campaigns into per-layer metrics.
func counterLayers(a, b snapshot, campaigns int, tr *tracer) map[string]float64 {
	n := float64(campaigns)
	m := map[string]float64{
		"serve.submit_ms": tr.meanMS("serve.submit"),
		"serve.stream_ms": tr.meanMS("serve.stream"),
	}
	m["serve.queue_wait_ms"], _ = histMeanMS(a, b, "campaignd_queue_wait_seconds")
	m["campaign.engine_ms"], _ = histMeanMS(a, b, "campaign_run_seconds")
	m["store.commit_ms"], _ = histMeanMS(a, b, "store_commit_seconds")
	runs := delta(a, b, "campaign_runs_total")
	m["campaign.runs_per_campaign"] = runs / n
	m["campaign.executed_ratio"] = ratio(runs, delta(a, b, "campaign_planned_runs_total"))
	m["campaign.board_fabs_per_campaign"] = delta(a, b, "campaign_board_fabrications_total") / n
	hits, misses := float64(b.sim.Hits-a.sim.Hits), float64(b.sim.Misses-a.sim.Misses)
	m["simcache.hit_ratio"] = ratio(hits, hits+misses)
	m["dram.fab_misses_per_campaign"] = float64(b.dFab.Misses-a.dFab.Misses) / n
	m["silicon.fab_misses_per_campaign"] = float64(b.sFab.Misses-a.sFab.Misses) / n
	m["runtime.alloc_mb_per_campaign"] = float64(b.totalAlloc-a.totalAlloc) / (1 << 20) / n
	m["runtime.gc_per_campaign"] = float64(b.nGCs-a.nGCs) / n
	return m
}

// residualMS is the campaign mean minus the time the daemon's layers
// account for per campaign: queue wait, engine, segment commit, and, at
// their ladder cost, segment loads (hydration) and DRAM fabrications.
func residualMS(a, b snapshot, campaigns int, meanMS, loadFramesMS, fabMS float64) float64 {
	n := float64(campaigns)
	explained := 0.0
	for _, h := range []string{"campaignd_queue_wait_seconds", "campaign_run_seconds", "store_commit_seconds"} {
		mean, count := histMeanMS(a, b, h)
		explained += mean * count / n
	}
	explained += loadFramesMS * delta(a, b, "store_segment_loads_total") / n
	explained += fabMS * float64(b.dFab.Misses-a.dFab.Misses) / n
	return meanMS - explained
}

// ladder calls f at least min times and until budget has passed, and
// returns the median call time. One span covers the whole ladder.
func ladder(tr *tracer, name string, min int, budget time.Duration, f func(i int) error) (time.Duration, error) {
	var times []time.Duration
	start := time.Now()
	for i := 0; i < min || time.Since(start) < budget; i++ {
		t := time.Now()
		if err := f(i); err != nil {
			return 0, fmt.Errorf("ladder %s: %w", name, err)
		}
		times = append(times, time.Since(t))
	}
	tr.add("ladder."+name, 0, "", start, time.Now())
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return times[len(times)/2], nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// Simulate's inputs as the xgene run path passes them (internal/xgene
// run.go: simInstructions, simSeed).
const (
	simInstructions = 200000
	simSeed         = 0xC0FFEE
)

// ladders times each layer's public function directly on the workload's
// own inputs: its first timed spec's board, benchmark and operating point,
// and the records of a checked campaign.
func (b *bench) ladders(tr *tracer, recs []core.RunRecord) (map[string]float64, error) {
	spec := b.w.spec(b.seed, "timed", 0)
	bench, setup, err := firstCell(spec)
	if err != nil {
		return nil, err
	}
	srv, err := xgene.NewServer(xgene.Options{Corner: silicon.TTT, Seed: spec.BoardSeed})
	if err != nil {
		return nil, err
	}
	fw, err := core.NewFramework(srv)
	if err != nil {
		return nil, err
	}
	m := make(map[string]float64)
	const budget = 300 * time.Millisecond

	d, err := ladder(tr, "xgene.run", 10, budget, func(i int) error {
		_, err := fw.ExecuteRun(bench, setup, i, derive(b.seed, "ladder/run", i))
		return err
	})
	if err != nil {
		return nil, err
	}
	m["xgene.run_us"] = ms(d) * 1000

	d, err = ladder(tr, "microarch.simulate_cold", 5, budget, func(int) error {
		simcache.CountersReset()
		_, err := simcache.Counters(bench.Mix, bench.Stream, simInstructions, simSeed)
		return err
	})
	if err != nil {
		return nil, err
	}
	m["microarch.simulate_cold_ms"] = ms(d)

	d, err = ladder(tr, "dram.fab", 3, budget, func(i int) error {
		_, err := dram.NewModule(dram.DefaultConfig(), derive(b.seed, "ladder/fab", i))
		return err
	})
	if err != nil {
		return nil, err
	}
	m["dram.fab_ms"] = ms(d)

	// The run path skips the cell scan when the analytic bound says no
	// error can manifest (nominal refresh); the ladder skips it likewise.
	m["dram.scan_ms"] = 0
	if srv.DRAM().ExpectedFailureUpperBound(setup.TREFP) >= 0.01 {
		d, err = ladder(tr, "dram.scan", 5, budget, func(i int) error {
			_, err := srv.DRAM().ScanWorkload(bench.Mem, setup.TREFP, derive(b.seed, "ladder/scan", i))
			return err
		})
		if err != nil {
			return nil, err
		}
		m["dram.scan_ms"] = ms(d)
	}

	if len(recs) == 0 {
		return nil, errors.New("no checked campaign records to encode")
	}
	lineBytes := 0
	d, err = ladder(tr, "wire.encode", 20, budget, func(int) error {
		lineBytes = 0
		for _, r := range recs {
			f, err := wire.EncodeFrame(r)
			if err != nil {
				return err
			}
			lineBytes += len(f.Line)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	m["wire.encode_us_per_record"] = ms(d) * 1000 / float64(len(recs))
	m["wire.bytes_per_record"] = float64(lineBytes) / float64(len(recs))
	return m, nil
}

// firstCell is the first (benchmark, operating point) a spec runs.
func firstCell(spec serve.Spec) (workloads.Profile, core.Setup, error) {
	if spec.Strategy == serve.StrategyAdaptive {
		s, err := spec.Schedule()
		if err != nil {
			return workloads.Profile{}, core.Setup{}, err
		}
		return s.Benches[0], s.Setup, nil
	}
	g, err := spec.Grid()
	if err != nil {
		return workloads.Profile{}, core.Setup{}, err
	}
	return g.Benches[0], g.Setups[0], nil
}

// storeLadders reopens a stopped daemon's store: store.Open verifies every
// segment, then LoadFrames reads back the timed campaigns' segments.
func storeLadders(tr *tracer, dir string, fps []string) (map[string]float64, error) {
	var st *store.Store
	d, err := ladder(tr, "store.open", 3, 0, func(int) error {
		if st != nil {
			if err := st.Close(); err != nil {
				return err
			}
		}
		var err error
		st, err = store.Open(store.Options{Dir: dir})
		return err
	})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	m := map[string]float64{"store.open_ms": ms(d)}
	stats := st.Stats()
	m["store.bytes_per_segment"] = ratio(float64(stats.Bytes), float64(stats.Segments))
	if len(fps) == 0 {
		return nil, errors.New("no committed segments to load")
	}
	d, err = ladder(tr, "store.load_frames", len(fps), 0, func(i int) error {
		_, err := st.LoadFrames(fps[i%len(fps)])
		return err
	})
	if err != nil {
		return nil, err
	}
	m["store.load_frames_ms"] = ms(d)
	return m, nil
}
