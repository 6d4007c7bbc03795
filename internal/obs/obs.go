// Package obs is the daemon's dependency-free observability core: atomic
// counters, gauges and fixed-bucket latency histograms, collected in a
// registry that renders the Prometheus text exposition format.
//
// The package exists because the hot path cannot afford a metrics
// library: a characterization campaign streams hundreds of records per
// grid and the xgene run loop is pinned allocation-free, so every
// instrument here is a plain atomic word (or a fixed array of them) —
// Observe and Inc never lock, never allocate, and never appear on a
// profile. Rendering (/metrics scrapes) is the slow path and takes the
// registry lock.
//
// Layout convention: there is no process-wide registry. Whatever owns a
// fact owns its instrument: a daemon's Server, its Store and its fleet
// Client each build their instruments in a NewRegistry of their own and
// read their stats back from them, and the daemon's GET /metrics renders
// those registries one after another. Two instances in one process never
// share a counter, so tests may assert absolute values.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value reads the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an atomic instantaneous value (queue length, subscriber count,
// draining flag).
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Add adds d (which may be negative).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value reads the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// CounterVec is a fixed family of counters sharing one metric name and
// distinguished by a single label. The series set is frozen at
// construction, so With is a map lookup with no lock and Record-side
// increments stay wait-free.
type CounterVec struct {
	label    string
	values   []string
	counters []Counter
	index    map[string]int
}

// With returns the counter for the given label value. Unknown values
// panic: the series set is part of the metric's declaration, and a typo
// must fail loudly in tests rather than silently minting a new series.
func (v *CounterVec) With(value string) *Counter {
	i, ok := v.index[value]
	if !ok {
		panic(fmt.Sprintf("obs: counter vec %q has no series %q", v.label, value))
	}
	return &v.counters[i]
}

// Total sums every series.
func (v *CounterVec) Total() uint64 {
	var n uint64
	for i := range v.counters {
		n += v.counters[i].Value()
	}
	return n
}

// LabeledCounter is a counter family over one label whose series are
// minted on first use — the shape for label sets discovered at runtime
// (tenants from a reloadable keyfile) where CounterVec's frozen series
// set cannot work. With is a read-locked map hit once a series exists;
// the write lock is taken only to mint a new one. Callers must keep the
// value set bounded (tenant names come from a keyfile, not from request
// data) — there is no eviction, because a counter that disappears from
// an exposition would read as a reset to a Prometheus scraper.
type LabeledCounter struct {
	label  string
	mu     sync.RWMutex
	series map[string]*Counter
}

// With returns the counter for the given label value, minting the series
// on first use.
func (lc *LabeledCounter) With(value string) *Counter {
	lc.mu.RLock()
	c := lc.series[value]
	lc.mu.RUnlock()
	if c != nil {
		return c
	}
	lc.mu.Lock()
	defer lc.mu.Unlock()
	if c := lc.series[value]; c != nil {
		return c
	}
	c = &Counter{}
	lc.series[value] = c
	return c
}

// Value reads one series' count without minting it; zero for an unknown
// value.
func (lc *LabeledCounter) Value(value string) uint64 {
	lc.mu.RLock()
	defer lc.mu.RUnlock()
	if c := lc.series[value]; c != nil {
		return c.Value()
	}
	return 0
}

// Total sums every minted series.
func (lc *LabeledCounter) Total() uint64 {
	lc.mu.RLock()
	defer lc.mu.RUnlock()
	var n uint64
	for _, c := range lc.series {
		n += c.Value()
	}
	return n
}

// snapshot returns the series in sorted label-value order for exposition.
func (lc *LabeledCounter) snapshot() ([]string, []uint64) {
	lc.mu.RLock()
	defer lc.mu.RUnlock()
	values := make([]string, 0, len(lc.series))
	for v := range lc.series {
		values = append(values, v)
	}
	sort.Strings(values)
	counts := make([]uint64, len(values))
	for i, v := range values {
		counts[i] = lc.series[v].Value()
	}
	return values, counts
}

// escapeLabelValue applies the Prometheus text-format escaping rules for
// label values: backslash, double quote and newline.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// DefBuckets are the default latency histogram bounds: 100µs to 10s,
// roughly logarithmic — wide enough for a sub-millisecond cache hit and a
// multi-second characterization grid in the same instrument.
var DefBuckets = []time.Duration{
	100 * time.Microsecond, 250 * time.Microsecond, 500 * time.Microsecond,
	1 * time.Millisecond, 2500 * time.Microsecond, 5 * time.Millisecond,
	10 * time.Millisecond, 25 * time.Millisecond, 50 * time.Millisecond,
	100 * time.Millisecond, 250 * time.Millisecond, 500 * time.Millisecond,
	1 * time.Second, 2500 * time.Millisecond, 5 * time.Second, 10 * time.Second,
}

// Histogram is a fixed-bucket latency histogram. Observe is lock-free and
// allocation-free: a linear scan over a handful of int64 bounds followed
// by three atomic adds. Bucket counts are stored non-cumulative and
// summed at exposition time (the classic Prometheus cumulative form), so
// two concurrent observes never contend on more than one bucket word.
type Histogram struct {
	boundsNS []int64 // sorted upper bounds, nanoseconds
	buckets  []atomic.Uint64
	count    atomic.Uint64
	sumNS    atomic.Int64
}

func newHistogram(buckets []time.Duration) *Histogram {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	h := &Histogram{
		boundsNS: make([]int64, len(buckets)),
		buckets:  make([]atomic.Uint64, len(buckets)+1), // +1: the +Inf bucket
	}
	for i, b := range buckets {
		h.boundsNS[i] = int64(b)
		if i > 0 && h.boundsNS[i] <= h.boundsNS[i-1] {
			panic(fmt.Sprintf("obs: histogram buckets not strictly increasing at %d", i))
		}
	}
	return h
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	ns := int64(d)
	i := 0
	for i < len(h.boundsNS) && ns > h.boundsNS[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sumNS.Add(ns)
}

// Count reports how many observations the histogram holds.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum reports the total observed time.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sumNS.Load()) }

// family is one registered metric family: name, metadata, and a snapshot
// hook the exposition writer calls under the registry lock.
type family struct {
	name string
	help string
	typ  string // "counter", "gauge" or "histogram"
	// series renders the family's sample lines (no HELP/TYPE header).
	series func(w *expoWriter)
	// empty, when non-nil and true, omits the family (header included)
	// from the exposition — a dynamic-series family with nothing minted
	// yet has no samples to declare, and a declared family without
	// samples is a lint violation.
	empty func() bool
}

// Registry holds registered metric families in registration order.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

func (r *Registry) register(f *family) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[f.name]; dup {
		panic(fmt.Sprintf("obs: duplicate metric %q", f.name))
	}
	r.byName[f.name] = f
	r.families = append(r.families, f)
}

// Counter registers and returns a new counter in this registry.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(&family{name: name, help: help, typ: "counter", series: func(w *expoWriter) {
		w.sample(name, "", uintVal(c.Value()))
	}})
	return c
}

// Gauge registers and returns a new gauge in this registry.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(&family{name: name, help: help, typ: "gauge", series: func(w *expoWriter) {
		w.sample(name, "", intVal(g.Value()))
	}})
	return g
}

// Histogram registers and returns a new histogram in this registry.
// Nil or empty buckets mean DefBuckets.
func (r *Registry) Histogram(name, help string, buckets []time.Duration) *Histogram {
	h := newHistogram(buckets)
	r.register(&family{name: name, help: help, typ: "histogram", series: func(w *expoWriter) {
		var cum uint64
		for i := range h.buckets {
			cum += h.buckets[i].Load()
			le := "+Inf"
			if i < len(h.boundsNS) {
				le = floatString(float64(h.boundsNS[i]) / 1e9)
			}
			w.sample(name+"_bucket", `le="`+le+`"`, uintVal(cum))
		}
		w.sample(name+"_sum", "", floatVal(float64(h.sumNS.Load())/1e9))
		w.sample(name+"_count", "", uintVal(h.count.Load()))
	}})
	return h
}

// CounterVec registers a labeled counter family with a fixed series set.
func (r *Registry) CounterVec(name, help, label string, values ...string) *CounterVec {
	if len(values) == 0 {
		panic(fmt.Sprintf("obs: counter vec %q declared with no series", name))
	}
	sorted := append([]string(nil), values...)
	sort.Strings(sorted)
	v := &CounterVec{
		label:    label,
		values:   sorted,
		counters: make([]Counter, len(sorted)),
		index:    make(map[string]int, len(sorted)),
	}
	for i, val := range sorted {
		v.index[val] = i
	}
	r.register(&family{name: name, help: help, typ: "counter", series: func(w *expoWriter) {
		for i, val := range v.values {
			w.sample(name, label+`="`+val+`"`, uintVal(v.counters[i].Value()))
		}
	}})
	return v
}

// LabeledCounter registers a one-label counter family whose series are
// minted on first With. The family is omitted from the exposition until
// at least one series exists.
func (r *Registry) LabeledCounter(name, help, label string) *LabeledCounter {
	lc := &LabeledCounter{label: label, series: make(map[string]*Counter)}
	r.register(&family{
		name: name, help: help, typ: "counter",
		empty: func() bool {
			lc.mu.RLock()
			defer lc.mu.RUnlock()
			return len(lc.series) == 0
		},
		series: func(w *expoWriter) {
			values, counts := lc.snapshot()
			for i, v := range values {
				w.sample(name, label+`="`+escapeLabelValue(v)+`"`, uintVal(counts[i]))
			}
		},
	})
	return lc
}
