package campaign

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/simcache"
	"repro/internal/xgene"
)

// TestColdGridSimulatesOncePerWorkload pins the grid's cold phase: on a
// cold simulate memo the Fig. 4 grid simulates each of its ten workloads
// exactly once at any worker count, streams the same bytes in the same
// batches as one worker does, the phase alone memoizes every workload at
// two workers and none at one, and a warm rerun simulates nothing and
// starts no cold-phase goroutine.
func TestColdGridSimulatesOncePerWorkload(t *testing.T) {
	g := fig4Grid()
	var ref *GridReport
	var refSink *collectSink
	for _, workers := range []int{1, 2, 4} {
		simcache.CountersReset()
		before := simcache.CountersStats().Misses
		sink := &collectSink{}
		rep, err := RunGrid(Config{Workers: workers, Seed: 3, Sink: sink}, g)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := simcache.CountersStats().Misses - before; got != 10 {
			t.Errorf("workers=%d: %d simulations on a cold memo, want one per workload (10)", workers, got)
		}
		if ref == nil {
			ref, refSink = rep, sink
			continue
		}
		if !reflect.DeepEqual(rep.Records, ref.Records) {
			t.Errorf("workers=%d: records differ from one worker's", workers)
		}
		if !bytes.Equal(lines(sink), lines(refSink)) {
			t.Errorf("workers=%d: streamed bytes differ from one worker's", workers)
		}
		if !reflect.DeepEqual(sink.batches, refSink.batches) {
			t.Errorf("workers=%d: sink batches %v, one worker's %v", workers, sink.batches, refSink.batches)
		}
	}

	// The phase itself: nothing ahead at one worker, every workload once
	// at two.
	simcache.CountersReset()
	simulateCold(g.Benches, 1)
	if got := simcache.CountersStats().Misses; got != 0 {
		t.Errorf("one-worker cold phase simulated %d workloads, want 0", got)
	}
	simulateCold(g.Benches, 2)
	if got := simcache.CountersStats().Misses; got != 10 {
		t.Errorf("two-worker cold phase simulated %d workloads, want 10", got)
	}
	for _, b := range g.Benches {
		if !xgene.CountersCached(b) {
			t.Errorf("%s not memoized after the cold phase", b.Name)
		}
	}

	before := simcache.CountersStats().Misses
	if _, err := RunGrid(Config{Workers: 2, Seed: 4, Sink: discardSink{}}, g); err != nil {
		t.Fatal(err)
	}
	if got := simcache.CountersStats().Misses - before; got != 0 {
		t.Errorf("warm rerun simulated %d workloads, want 0", got)
	}
	// Starting a goroutine allocates; a warm cold phase allocates nothing.
	if allocs := testing.AllocsPerRun(10, func() { simulateCold(g.Benches, 2) }); allocs != 0 {
		t.Errorf("warm cold phase allocates %.0f objects, want 0 (no goroutine, no work list)", allocs)
	}
}

// lines returns the line blocks a sink received, concatenated.
func lines(s *collectSink) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lines
}
