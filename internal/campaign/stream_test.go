package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/silicon"
	"repro/internal/workloads"
)

// collectSink gathers streamed records and lines; safe for concurrent use
// (the streamer serializes emission, but the race detector should see a
// locked sink regardless).
type collectSink struct {
	mu      sync.Mutex
	recs    []core.RunRecord
	lines   []byte // every delivered block, copied: a block is the caller's
	batches []int  // records in each delivered shard
	// onRecord, if set, observes each record under the lock.
	onRecord func(n int, rec core.RunRecord)
}

func (s *collectSink) Shard(recs []core.RunRecord, lines []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, rec := range recs {
		if s.onRecord != nil {
			s.onRecord(len(s.recs), rec)
		}
		s.recs = append(s.recs, rec)
	}
	s.lines = append(s.lines, lines...)
	s.batches = append(s.batches, len(recs))
	return nil
}

func (s *collectSink) records() []core.RunRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]core.RunRecord(nil), s.recs...)
}

// TestStreamMatchesBatchReport pins the ordering buffer: the live stream
// must equal the batch report record-for-record at every worker count,
// across the crash/hang recovery paths.
func TestStreamMatchesBatchReport(t *testing.T) {
	g := recoveryGrid(t)
	for _, workers := range []int{1, 4, 16} {
		sink := &collectSink{}
		rep, err := RunGrid(Config{Workers: workers, Seed: 7, Sink: sink}, g)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Stats.Recoveries == 0 {
			t.Fatal("grid exercised no recovery path; stream test too weak")
		}
		if !reflect.DeepEqual(sink.records(), rep.Records) {
			t.Errorf("workers=%d: streamed records differ from batch report", workers)
		}
	}
}

// TestStreamNeverOutOfOrder verifies, while the campaign is still running,
// that every streamed record extends the deterministic grid order — the
// property the ordering buffer exists for. Run under -race in CI at
// workers 1/4/16.
func TestStreamNeverOutOfOrder(t *testing.T) {
	g := recoveryGrid(t)
	ref, err := RunGrid(Config{Workers: 1, Seed: 7}, g)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, 16} {
		sink := &collectSink{}
		sink.onRecord = func(n int, rec core.RunRecord) {
			if n >= len(ref.Records) {
				t.Errorf("workers=%d: streamed %d records, reference has %d", workers, n+1, len(ref.Records))
				return
			}
			if !reflect.DeepEqual(rec, ref.Records[n]) {
				t.Errorf("workers=%d: record %d streamed out of grid order", workers, n)
			}
		}
		if _, err := RunGrid(Config{Workers: workers, Seed: 7, Sink: sink}, g); err != nil {
			t.Fatal(err)
		}
		if got := len(sink.records()); got != len(ref.Records) {
			t.Errorf("workers=%d: streamed %d records, want %d", workers, got, len(ref.Records))
		}
	}
}

// TestShardErrorStreamsPrefix covers the shard-failure path: records
// produced before the failure still stream, in order, and the campaign
// error is the lowest-indexed shard error.
func TestShardErrorStreamsPrefix(t *testing.T) {
	bench := mustProfile(t, "mcf")
	setup := core.NominalSetup(silicon.CoreID{})
	boom := errors.New("bench harness fell over")
	mk := func(name string, runs int, fail error) Shard[int] {
		return Shard[int]{
			Name: name,
			Run: func(ctx *Ctx) (int, error) {
				for r := 0; r < runs; r++ {
					if _, err := ctx.Framework.ExecuteRun(bench, setup, r, ctx.Seed); err != nil {
						return 0, err
					}
				}
				return runs, fail
			},
		}
	}
	shards := []Shard[int]{
		mk("ok0", 2, nil),
		mk("bad1", 1, boom), // fails after one successful run
		mk("ok2", 3, nil),
	}
	sink := &collectSink{}
	rep, err := Run(Config{Workers: 2, Seed: 5, Sink: sink}, shards)
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("campaign error = %v, want the shard failure", err)
	}
	// All three shards completed (the engine does not cancel siblings on a
	// shard error), so the full record sequence streams: 2 + 1 + 3.
	if got := len(sink.records()); got != 6 {
		t.Errorf("streamed %d records, want 6 (failed shard's prefix included)", got)
	}
	if !reflect.DeepEqual(sink.records(), rep.Records()) {
		t.Error("streamed records differ from the batch report around a shard failure")
	}
}

// TestSinkErrorSurfaces covers the sink-failure path: a broken subscriber
// aborts emission and surfaces as the campaign error when no shard failed.
func TestSinkErrorSurfaces(t *testing.T) {
	g := Grid{
		Name:        "sinkfail",
		Benches:     []workloads.Profile{mustProfile(t, "mcf")},
		Setups:      []core.Setup{core.NominalSetup(silicon.CoreID{})},
		Repetitions: 3,
	}
	broken := errors.New("spool disk full")
	sink := &failAfterSink{failAt: 1, err: broken}
	_, err := RunGrid(Config{Workers: 1, Seed: 3, Sink: sink}, g)
	if err == nil || !errors.Is(err, broken) {
		t.Errorf("sink failure not surfaced: %v", err)
	}
}

type failAfterSink struct {
	n      int
	failAt int
	err    error
}

func (s *failAfterSink) Shard(recs []core.RunRecord, _ []byte) error {
	s.n += len(recs)
	if s.n > s.failAt {
		return s.err
	}
	return nil
}

// TestCancellationMidGrid covers context cancellation while a campaign is
// in flight: the single worker is pinned inside a shard when the context
// cancels, so the dispatcher's only ready select case is ctx.Done() — the
// in-flight shard finishes (and its records stream), every undispatched
// shard reports the context error, and the stream still equals the
// report's record sequence.
func TestCancellationMidGrid(t *testing.T) {
	bench := mustProfile(t, "mcf")
	setup := core.NominalSetup(silicon.CoreID{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started := make(chan struct{})
	runOne := func(c *Ctx) (int, error) {
		_, err := c.Framework.ExecuteRun(bench, setup, 0, c.Seed)
		return c.Index, err
	}
	shards := []Shard[int]{
		{Name: "done-before-cancel", Run: runOne},
		{Name: "in-flight", Run: func(c *Ctx) (int, error) {
			if _, err := c.Framework.ExecuteRun(bench, setup, 0, c.Seed); err != nil {
				return 0, err
			}
			close(started)
			<-ctx.Done()
			// Hold the worker: until this shard returns, the job channel
			// has no receiver, so the dispatcher must take ctx.Done() and
			// skip the remaining shards. The sleep only needs to outlast
			// one scheduling of the (runnable) dispatcher goroutine.
			time.Sleep(200 * time.Millisecond)
			return 1, nil
		}},
		{Name: "skipped-a", Run: runOne},
		{Name: "skipped-b", Run: runOne},
	}
	sink := &collectSink{}
	var rep *Report[int]
	var err error
	done := make(chan struct{})
	go func() {
		defer close(done)
		rep, err = Run(Config{Workers: 1, Seed: 5, Sink: sink, Context: ctx}, shards)
	}()
	<-started
	cancel()
	<-done

	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled campaign error = %v, want context.Canceled", err)
	}
	if rep.Results[0].Err != nil || rep.Results[1].Err != nil {
		t.Error("dispatched shards did not finish cleanly")
	}
	if rep.Results[1].Value != 1 {
		t.Error("in-flight shard's value lost on cancellation")
	}
	for i := 2; i < len(shards); i++ {
		if res := rep.Results[i]; !errors.Is(res.Err, context.Canceled) {
			t.Errorf("shard %d error = %v, want context.Canceled", i, res.Err)
		}
	}
	// The stream saw exactly the completed shards' records, in order.
	if got := len(sink.records()); got != 2 {
		t.Errorf("streamed %d records, want 2 (one per completed shard)", got)
	}
	if !reflect.DeepEqual(sink.records(), rep.Records()) {
		t.Error("cancelled campaign's stream differs from the report's records")
	}
}

// TestCancellationSkipsShards checks the per-shard accounting of a
// cancelled campaign: a pre-cancelled context dispatches nothing and every
// shard reports the context error.
func TestCancellationSkipsShards(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran int
	shards := []Shard[int]{
		{Name: "a", Run: func(*Ctx) (int, error) { ran++; return 0, nil }},
		{Name: "b", Run: func(*Ctx) (int, error) { ran++; return 0, nil }},
	}
	rep, err := Run(Config{Workers: 2, Seed: 1, Context: ctx}, shards)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if ran != 0 {
		t.Errorf("%d shards ran under a pre-cancelled context", ran)
	}
	for i, res := range rep.Results {
		if res.Err == nil || !errors.Is(res.Err, context.Canceled) {
			t.Errorf("shard %d error = %v, want context.Canceled", i, res.Err)
		}
		if res.Name != shards[i].Name || res.Index != i {
			t.Errorf("skipped shard %d lost its identity: %+v", i, res)
		}
	}
}

// TestStreamSeedSensitivity: distinct seeds must stream distinct records
// (guards against a streamer that accidentally replays a cached sequence).
func TestStreamSeedSensitivity(t *testing.T) {
	g := recoveryGrid(t)
	streamOf := func(seed uint64) []core.RunRecord {
		sink := &collectSink{}
		if _, err := RunGrid(Config{Workers: 4, Seed: seed, Sink: sink}, g); err != nil {
			t.Fatal(err)
		}
		return sink.records()
	}
	if reflect.DeepEqual(streamOf(7), streamOf(8)) {
		t.Error("different campaign seeds streamed identical records")
	}
}

// TestStreamManyShards stresses the ordering buffer with many tiny shards
// (more shards than workers, completion order highly scrambled).
func TestStreamManyShards(t *testing.T) {
	bench := mustProfile(t, "mcf")
	setup := core.NominalSetup(silicon.CoreID{})
	const n = 40
	var shards []Shard[int]
	for i := 0; i < n; i++ {
		shards = append(shards, Shard[int]{
			Name: fmt.Sprintf("tiny/%02d", i),
			Run: func(ctx *Ctx) (int, error) {
				_, err := ctx.Framework.ExecuteRun(bench, setup, 0, ctx.Seed)
				return ctx.Index, err
			},
		})
	}
	sink := &collectSink{}
	rep, err := Run(Config{Workers: 16, Seed: 9, Sink: sink}, shards)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sink.records(), rep.Records()) {
		t.Error("many-shard stream differs from batch report")
	}
	if len(sink.records()) != n {
		t.Errorf("streamed %d records, want %d", len(sink.records()), n)
	}
}

// TestStreamFramesMatchBatch pins the one-render path at every worker
// count: the sink receives each record exactly once, in grid order, one
// shard per grid cell, with a line block holding one newline-terminated
// line per record, each byte-identical to what encoding/json produces for
// the record. Run under -race in CI at workers 1/4/16.
func TestStreamFramesMatchBatch(t *testing.T) {
	g := recoveryGrid(t)
	for _, workers := range []int{1, 4, 16} {
		sink := &collectSink{}
		rep, err := RunGrid(Config{Workers: workers, Seed: 7, Sink: sink}, g)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sink.recs, rep.Records) {
			t.Fatalf("workers=%d: streamed records differ from the batch report", workers)
		}
		if cells := len(g.Benches) * len(g.Setups); len(sink.batches) != cells {
			t.Errorf("workers=%d: %d shards for %d cells, want one per cell", workers, len(sink.batches), cells)
		}
		for i, n := range sink.batches {
			if n != g.Repetitions {
				t.Errorf("workers=%d: shard %d holds %d records, want one cell's %d", workers, i, n, g.Repetitions)
			}
		}
		var want []byte
		for _, rec := range rep.Records {
			line, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			want = append(append(want, line...), '\n')
		}
		if !bytes.Equal(sink.lines, want) {
			t.Fatalf("workers=%d: streamed lines differ from encoding/json of the batch report", workers)
		}
	}
}
