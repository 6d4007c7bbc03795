package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/dram"
	"repro/internal/serve"
	"repro/internal/silicon"
	"repro/internal/simcache"
)

// bench is one invocation: a workload, a seed and a fixed run length.
type bench struct {
	w    *workload
	seed uint64
	// n is the number of timed campaigns.
	n int
	// setups is how many times set-up runs; setup_s is their median.
	setups int
	// root holds this invocation's store directories.
	root string
}

// resetCaches empties the process-wide memo pools so every set-up starts
// as cold as a freshly started daemon process.
func resetCaches() {
	dram.FabReset()
	silicon.FabReset()
	simcache.CountersReset()
	runtime.GC()
}

func (b *bench) storeDir(k int) string { return filepath.Join(b.root, fmt.Sprintf("store-%d", k)) }

// setup builds daemon k on a fresh store and warms it to steady state:
// from daemon construction until the first timed campaign may be sent.
func (b *bench) setup(k int) (*daemon, time.Duration, error) {
	resetCaches()
	dir := b.storeDir(k)
	if err := os.RemoveAll(dir); err != nil {
		return nil, 0, err
	}
	cl := newClient()
	defer cl.close()
	start := time.Now()
	d, err := startDaemon(dir, 0)
	if err != nil {
		return nil, 0, err
	}
	// send runs set-up campaigns; any failure aborts the run.
	send := func(phase string, count int, spec func(i int) serve.Spec) error {
		for i := 0; i < count; i++ {
			if o := cl.run(d.base, spec(i), false, false); o.err != nil {
				return fmt.Errorf("set-up %s campaign %d: %w", phase, i, o.err)
			}
		}
		return nil
	}
	if b.w.populate > 0 {
		if err := send("populate", b.w.populate, func(i int) serve.Spec { return fig4Spec(b.seed, "populate", i) }); err != nil {
			d.stop()
			return nil, 0, err
		}
		if err := d.stop(); err != nil {
			return nil, 0, err
		}
		if d, err = startDaemon(dir, b.w.cacheMax); err != nil {
			return nil, 0, err
		}
	}
	if err := send("warm", b.w.warm, func(i int) serve.Spec { return b.w.spec(b.seed, "warm", i) }); err != nil {
		d.stop()
		return nil, 0, err
	}
	return d, time.Since(start), nil
}

// window is the timed closed loop over n campaigns.
type window struct {
	outcomes []outcome
	elapsed  time.Duration
	// steal is the share of the window's CPU time the hypervisor gave to
	// other guests.
	steal float64
	// kept indexes the campaigns whose bytes were kept for the offline check.
	kept []int
}

// sampleIndexes picks the campaigns checked byte for byte offline: the
// first, the last and two between.
func sampleIndexes(n int) map[int]bool {
	return map[int]bool{0: true, n / 3: true, 2 * n / 3: true, n - 1: true}
}

func (b *bench) run(d *daemon, cl *client) window {
	keep := sampleIndexes(b.n)
	win := window{outcomes: make([]outcome, b.n)}
	start, steal0 := time.Now(), stealSeconds()
	for i := 0; i < b.n; i++ {
		win.outcomes[i] = cl.run(d.base, b.w.spec(b.seed, "timed", i), keep[i], true)
	}
	win.elapsed = time.Since(start)
	win.steal = (stealSeconds() - steal0) / (win.elapsed.Seconds() * float64(runtime.NumCPU()))
	for i := range win.outcomes {
		if keep[i] {
			win.kept = append(win.kept, i)
		}
	}
	return win
}

// failed counts campaigns that did not pass the per-campaign checks.
func (w window) failed() int {
	n := 0
	for _, o := range w.outcomes {
		if o.err != nil {
			n++
		}
	}
	return n
}

// latencies returns the sorted submit-to-last-byte times of the
// campaigns that passed, in milliseconds, and their mean.
func (w window) latencies() ([]float64, float64) {
	var ms []float64
	sum := 0.0
	for _, o := range w.outcomes {
		if o.err == nil {
			v := float64(o.total.Nanoseconds()) / 1e6
			ms = append(ms, v)
			sum += v
		}
	}
	sort.Float64s(ms)
	if len(ms) == 0 {
		return nil, 0
	}
	return ms, sum / float64(len(ms))
}

func (w window) records() int {
	n := 0
	for _, o := range w.outcomes {
		n += o.records
	}
	return n
}

// quantile is the nearest-rank q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() (float64, error) {
	kb, err := procStatusKB("VmHWM")
	return kb / 1024, err
}
