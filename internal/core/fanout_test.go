package core

import (
	"bytes"
	"errors"
	"sync"
	"testing"
)

// memSink collects records; optionally fails after a set number.
type memSink struct {
	mu       sync.Mutex
	recs     []RunRecord
	failAt   int // fail when len(recs) reaches failAt (0 = never)
	failWith error
}

func (s *memSink) Record(rec RunRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failAt > 0 && len(s.recs) >= s.failAt {
		return s.failWith
	}
	s.recs = append(s.recs, rec)
	return nil
}

func (s *memSink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.recs)
}

func rec(n int) RunRecord { return RunRecord{Benchmark: "b", Repetition: n} }

func TestMultiSinkSubscribeMidStream(t *testing.T) {
	m := NewMultiSink()
	early := &memSink{}
	id := m.Subscribe(early)
	if err := m.Record(rec(0)); err != nil {
		t.Fatal(err)
	}

	// A subscriber joining mid-stream sees only subsequent records.
	late := &memSink{}
	m.Subscribe(late)
	if err := m.Record(rec(1)); err != nil {
		t.Fatal(err)
	}
	if early.count() != 2 || late.count() != 1 {
		t.Errorf("early=%d late=%d, want 2/1", early.count(), late.count())
	}

	// An unsubscribed sink stops receiving; the rest keep streaming.
	m.Unsubscribe(id)
	if err := m.Record(rec(2)); err != nil {
		t.Fatal(err)
	}
	if early.count() != 2 || late.count() != 2 {
		t.Errorf("after unsubscribe early=%d late=%d, want 2/2", early.count(), late.count())
	}
	if m.Len() != 1 {
		t.Errorf("Len = %d, want 1", m.Len())
	}
}

func TestMultiSinkDropsFailingSubscriber(t *testing.T) {
	m := NewMultiSink()
	flaky := &memSink{failAt: 1, failWith: errors.New("consumer died")}
	healthy := &memSink{}
	m.Subscribe(flaky)
	m.Subscribe(healthy)
	for i := 0; i < 3; i++ {
		if err := m.Record(rec(i)); err != nil {
			t.Fatalf("MultiSink.Record must never fail, got %v", err)
		}
	}
	if flaky.count() != 1 {
		t.Errorf("failing subscriber got %d records after its error", flaky.count())
	}
	if healthy.count() != 3 {
		t.Errorf("healthy subscriber got %d records, want 3", healthy.count())
	}
	if m.Len() != 1 {
		t.Errorf("failing subscriber not dropped: Len = %d", m.Len())
	}
}

// TestMultiSinkConcurrent exercises broadcast against concurrent
// subscribe/unsubscribe churn under the race detector.
func TestMultiSinkConcurrent(t *testing.T) {
	m := NewMultiSink()
	stable := &memSink{}
	m.Subscribe(stable)

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			m.Record(rec(i))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			id := m.Subscribe(&memSink{})
			m.Unsubscribe(id)
		}
	}()
	wg.Wait()
	if stable.count() != 200 {
		t.Errorf("stable subscriber got %d records, want 200", stable.count())
	}
}

func TestChanSinkBlockDeliversAll(t *testing.T) {
	s := NewChanSink(1, Block)
	const n = 100
	done := make(chan int)
	go func() {
		got := 0
		for range s.C() {
			got++
		}
		done <- got
	}()
	for i := 0; i < n; i++ {
		if err := s.Record(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	if got := <-done; got != n {
		t.Errorf("consumer got %d records, want %d", got, n)
	}
	if s.Dropped() != 0 {
		t.Errorf("Block policy dropped %d records", s.Dropped())
	}
}

func TestChanSinkDropCountsOverflow(t *testing.T) {
	s := NewChanSink(2, Drop)
	// No consumer: the buffer fills at 2, the rest drop, nothing blocks.
	for i := 0; i < 5; i++ {
		if err := s.Record(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Dropped() != 3 {
		t.Errorf("Dropped = %d, want 3", s.Dropped())
	}
	// The buffered prefix is intact and in order.
	for want := 0; want < 2; want++ {
		got := <-s.C()
		if got.Repetition != want {
			t.Errorf("buffered record %d is repetition %d", want, got.Repetition)
		}
	}
}

// TestMultiSinkWithChanSinks is the intended composition: a blocking
// subscriber and a lossy subscriber share one broadcast without the lossy
// one ever stalling the stream.
func TestMultiSinkWithChanSinks(t *testing.T) {
	m := NewMultiSink()
	lossless := NewChanSink(64, Block)
	lossy := NewChanSink(1, Drop) // no consumer: must not block the fan-out
	m.Subscribe(lossless)
	m.Subscribe(lossy)

	const n = 32
	for i := 0; i < n; i++ {
		m.Record(rec(i))
	}
	if got := len(lossless.C()); got != n {
		t.Errorf("lossless subscriber buffered %d, want %d", got, n)
	}
	if lossy.Dropped() != n-1 {
		t.Errorf("lossy subscriber dropped %d, want %d", lossy.Dropped(), n-1)
	}
}

// TestChanSinkOnDropHook pins the slow-subscriber drop plumbing: the hook
// fires once per discarded record with the cumulative count, and never
// for delivered records.
func TestChanSinkOnDropHook(t *testing.T) {
	var calls []uint64
	s := NewChanSink(2, Drop).OnDrop(func(total uint64) { calls = append(calls, total) })
	const n = 5
	for i := 0; i < n; i++ {
		s.Record(rec(i))
	}
	if s.Dropped() != n-2 {
		t.Fatalf("dropped %d, want %d", s.Dropped(), n-2)
	}
	if len(calls) != n-2 {
		t.Fatalf("hook fired %d times, want %d", len(calls), n-2)
	}
	for i, total := range calls {
		if total != uint64(i+1) {
			t.Errorf("hook call %d reported total %d, want %d", i, total, i+1)
		}
	}
	// A Block-policy sink with room never invokes the hook.
	b := NewChanSink(8, Block).OnDrop(func(uint64) { t.Error("hook fired on Block policy") })
	for i := 0; i < 4; i++ {
		b.Record(rec(i))
	}
}

// batchSink records the frame batches it receives.
type batchSink struct {
	memSink
	batches [][]Frame
}

func (s *batchSink) Frames(batch []Frame) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.batches = append(s.batches, batch)
	return nil
}

// TestMultiSinkFramesBatch: a frame batch reaches a FrameSink subscriber
// as one batch with its shared lines, reaches a record-only subscriber
// record by record in order, and a subscriber failing mid-batch is
// dropped without failing the broadcast.
func TestMultiSinkFramesBatch(t *testing.T) {
	m := NewMultiSink()
	frames := &batchSink{}
	records := &memSink{}
	flaky := &memSink{failAt: 1, failWith: errors.New("consumer died")}
	m.Subscribe(frames)
	m.Subscribe(records)
	m.Subscribe(flaky)
	batch := []Frame{{Rec: rec(0), Line: []byte("a\n")}, {Rec: rec(1), Line: []byte("b\n")}}
	if err := m.Frames(batch); err != nil {
		t.Fatalf("MultiSink.Frames must never fail, got %v", err)
	}
	if len(frames.batches) != 1 || len(frames.batches[0]) != 2 || &frames.batches[0][0] != &batch[0] {
		t.Errorf("frame subscriber got batches %v, want the one shared batch", frames.batches)
	}
	if frames.count() != 0 {
		t.Errorf("frame subscriber got %d records through Record", frames.count())
	}
	if records.count() != 2 || records.recs[0].Repetition != 0 || records.recs[1].Repetition != 1 {
		t.Errorf("record subscriber got %+v, want both records in order", records.recs)
	}
	if flaky.count() != 1 || m.Len() != 2 {
		t.Errorf("subscriber failing mid-batch: got %d records, Len = %d; want 1 and dropped",
			flaky.count(), m.Len())
	}
}

// TestJSONLSinkFrames: a batch is written as its lines, in order.
func TestJSONLSinkFrames(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	if err := s.Frames([]Frame{{Line: []byte("a\n")}, {Line: []byte("b\n")}}); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "a\nb\n" {
		t.Errorf("wrote %q, want the batch's lines", buf.String())
	}
}
