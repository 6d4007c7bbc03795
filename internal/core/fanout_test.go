package core

import (
	"bytes"
	"errors"
	"sync"
	"testing"
)

// memSink collects the records of the batches it receives; optionally
// fails once it holds a set number, mid-batch if need be.
type memSink struct {
	mu       sync.Mutex
	recs     []RunRecord
	batches  [][]Frame
	failAt   int // fail when len(recs) reaches failAt (0 = never)
	failWith error
}

func (s *memSink) Frames(batch []Frame) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.batches = append(s.batches, batch)
	for _, f := range batch {
		if s.failAt > 0 && len(s.recs) >= s.failAt {
			return s.failWith
		}
		s.recs = append(s.recs, f.Rec)
	}
	return nil
}

func (s *memSink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.recs)
}

func rec(n int) RunRecord { return RunRecord{Benchmark: "b", Repetition: n} }

// one is a batch of a single record.
func one(n int) []Frame { return []Frame{{Rec: rec(n)}} }

func TestMultiSinkSubscribeMidStream(t *testing.T) {
	m := NewMultiSink()
	early := &memSink{}
	id := m.Subscribe(early)
	if err := m.Frames(one(0)); err != nil {
		t.Fatal(err)
	}

	// A subscriber joining mid-stream sees only subsequent records.
	late := &memSink{}
	m.Subscribe(late)
	if err := m.Frames(one(1)); err != nil {
		t.Fatal(err)
	}
	if early.count() != 2 || late.count() != 1 {
		t.Errorf("early=%d late=%d, want 2/1", early.count(), late.count())
	}

	// An unsubscribed sink stops receiving; the rest keep streaming.
	m.Unsubscribe(id)
	if err := m.Frames(one(2)); err != nil {
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
		if err := m.Frames(one(i)); err != nil {
			t.Fatalf("MultiSink.Frames must never fail, got %v", err)
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
			m.Frames(one(i))
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

// TestMultiSinkFramesBatch: a frame batch reaches every subscriber as the
// one shared batch, records in order, and a subscriber failing mid-batch
// is dropped without failing the broadcast.
func TestMultiSinkFramesBatch(t *testing.T) {
	m := NewMultiSink()
	a, b := &memSink{}, &memSink{}
	flaky := &memSink{failAt: 1, failWith: errors.New("consumer died")}
	m.Subscribe(a)
	m.Subscribe(b)
	m.Subscribe(flaky)
	batch := []Frame{{Rec: rec(0), Line: []byte("a\n")}, {Rec: rec(1), Line: []byte("b\n")}}
	if err := m.Frames(batch); err != nil {
		t.Fatalf("MultiSink.Frames must never fail, got %v", err)
	}
	for _, s := range []*memSink{a, b} {
		if len(s.batches) != 1 || len(s.batches[0]) != 2 || &s.batches[0][0] != &batch[0] {
			t.Errorf("subscriber got batches %v, want the one shared batch", s.batches)
		}
		if s.count() != 2 || s.recs[0].Repetition != 0 || s.recs[1].Repetition != 1 {
			t.Errorf("subscriber got %+v, want both records in order", s.recs)
		}
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
