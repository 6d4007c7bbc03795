package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "a counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	g := r.Gauge("test_gauge", "a gauge")
	g.Set(7)
	g.Inc()
	g.Dec()
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Errorf("gauge = %d, want 4", got)
	}
}

func TestCounterVec(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("test_requests_total", "requests", "result", "ok", "err")
	v.With("ok").Add(3)
	v.With("err").Inc()
	if got := v.With("ok").Value(); got != 3 {
		t.Errorf("ok = %d, want 3", got)
	}
	if got := v.Total(); got != 4 {
		t.Errorf("total = %d, want 4", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown series did not panic")
		}
	}()
	v.With("nope")
}

// TestLabeledCounter pins the dynamic-series family: series mint on first
// With, render sorted and escaped, and the family vanishes from the
// exposition (rather than failing lint) while no series exists.
func TestLabeledCounter(t *testing.T) {
	r := NewRegistry()
	lc := r.LabeledCounter("test_tenant_total", "per-tenant requests", "tenant")

	// Unminted: the family is omitted entirely and the exposition lints.
	var empty strings.Builder
	if err := r.WritePrometheus(&empty); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(empty.String(), "test_tenant_total") {
		t.Errorf("empty family rendered:\n%s", empty.String())
	}
	if err := Lint(strings.NewReader(empty.String())); err != nil {
		t.Errorf("empty-family exposition lint: %v", err)
	}

	lc.With("bravo").Add(2)
	lc.With("alpha").Inc()
	if got := lc.Value("bravo"); got != 2 {
		t.Errorf("bravo = %d, want 2", got)
	}
	if got := lc.Value("never-minted"); got != 0 {
		t.Errorf("unknown series = %d, want 0", got)
	}
	if got := lc.Total(); got != 3 {
		t.Errorf("total = %d, want 3", got)
	}

	var out strings.Builder
	if err := r.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	body := out.String()
	if err := Lint(strings.NewReader(body)); err != nil {
		t.Errorf("exposition lint: %v", err)
	}
	alpha := strings.Index(body, `test_tenant_total{tenant="alpha"} 1`)
	bravo := strings.Index(body, `test_tenant_total{tenant="bravo"} 2`)
	if alpha < 0 || bravo < 0 || alpha > bravo {
		t.Errorf("series missing or unsorted:\n%s", body)
	}
}

// TestLabeledCounterEscaping pins the text-format escaping of hostile
// label values (the serve layer validates tenant names, but the metrics
// core must hold on its own).
func TestLabeledCounterEscaping(t *testing.T) {
	r := NewRegistry()
	lc := r.LabeledCounter("test_escape_total", "escaping", "tenant")
	lc.With("quote\"back\\slash\nnewline").Inc()
	var out strings.Builder
	if err := r.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	want := `test_escape_total{tenant="quote\"back\\slash\nnewline"} 1`
	if !strings.Contains(out.String(), want) {
		t.Errorf("escaped sample %q missing from:\n%s", want, out.String())
	}
	if err := Lint(strings.NewReader(out.String())); err != nil {
		t.Errorf("exposition lint: %v", err)
	}
}

// TestLabeledCounterConcurrent hammers minting and incrementing from many
// goroutines (run under -race in CI): one series per value, no lost adds.
func TestLabeledCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	lc := r.LabeledCounter("test_conc_total", "concurrent", "tenant")
	const goroutines, perG = 16, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tenant := []string{"a", "b", "c", "d"}[g%4]
			for i := 0; i < perG; i++ {
				lc.With(tenant).Inc()
			}
		}(g)
	}
	wg.Wait()
	for _, tenant := range []string{"a", "b", "c", "d"} {
		want := uint64(goroutines / 4 * perG)
		if got := lc.Value(tenant); got != want {
			t.Errorf("tenant %s = %d, want %d", tenant, got, want)
		}
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "first")
	defer func() {
		if recover() == nil {
			t.Error("duplicate metric name did not panic")
		}
	}()
	r.Counter("dup_total", "second")
}

func TestHistogramObserveAndQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_seconds", "latency", nil)
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
	// 100 observations spread over two decades: 90 fast, 10 slow.
	for i := 0; i < 90; i++ {
		h.Observe(2 * time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(800 * time.Millisecond)
	}
	if got := h.Count(); got != 100 {
		t.Fatalf("count = %d, want 100", got)
	}
	wantSum := 90*2*time.Millisecond + 10*800*time.Millisecond
	if got := h.Sum(); got != wantSum {
		t.Errorf("sum = %v, want %v", got, wantSum)
	}
	// p50 lands in the (1ms, 2.5ms] bucket, p99 in (500ms, 1s].
	p50 := h.Quantile(0.50)
	if p50 <= 1*time.Millisecond || p50 > 2500*time.Microsecond {
		t.Errorf("p50 = %v, want in (1ms, 2.5ms]", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 <= 500*time.Millisecond || p99 > time.Second {
		t.Errorf("p99 = %v, want in (500ms, 1s]", p99)
	}
	if p99 <= p50 {
		t.Errorf("p99 %v <= p50 %v", p99, p50)
	}
}

func TestHistogramOverflowClamps(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_clamp_seconds", "latency", []time.Duration{time.Millisecond, time.Second})
	h.Observe(time.Hour) // +Inf bucket
	if got := h.Quantile(0.99); got != time.Second {
		t.Errorf("overflow quantile = %v, want clamp to 1s", got)
	}
}

// TestHistogramConcurrent hammers one histogram from many goroutines; the
// totals must balance (run under -race in CI).
func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_conc_seconds", "latency", nil)
	const goroutines, per = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(g+1) * time.Millisecond)
			}
		}(g)
	}
	wg.Wait()
	if got := h.Count(); got != goroutines*per {
		t.Errorf("count = %d, want %d", got, goroutines*per)
	}
	var bucketSum uint64
	for i := range h.buckets {
		bucketSum += h.buckets[i].Load()
	}
	if bucketSum != goroutines*per {
		t.Errorf("bucket sum = %d, want %d", bucketSum, goroutines*per)
	}
}

func TestNewTraceID(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if len(id) != 16 {
			t.Fatalf("trace id %q: len %d, want 16", id, len(id))
		}
		if !ValidTraceID(id) {
			t.Fatalf("generated trace id %q fails ValidTraceID", id)
		}
		if seen[id] {
			t.Fatalf("duplicate trace id %q after %d draws", id, i)
		}
		seen[id] = true
	}
}

func TestValidTraceID(t *testing.T) {
	for _, ok := range []string{"abc123", "a-b_c.d", strings.Repeat("x", 64)} {
		if !ValidTraceID(ok) {
			t.Errorf("ValidTraceID(%q) = false, want true", ok)
		}
	}
	for _, bad := range []string{"", strings.Repeat("x", 65), "has space", "new\nline", `quo"te`, "semi;colon"} {
		if ValidTraceID(bad) {
			t.Errorf("ValidTraceID(%q) = true, want false", bad)
		}
	}
}
