package core

import "sync"

// The service layer (internal/serve) shares one live characterization
// stream between many consumers: the campaign engine produces records
// through a single Sink, and any number of subscribers — HTTP stream
// clients, spool files, monitoring hooks — come and go while the campaign
// runs. MultiSink is that broadcast point.

// MultiSink is a broadcast Sink: every frame batch fans out to a dynamic
// set of subscriber sinks. It is safe for concurrent use; subscribers may
// be added and removed mid-stream. The lock is held across a fan-out, so a
// subscriber joining between two batches sees none-or-all of each batch,
// never a torn view.
//
// Slow-subscriber policy: MultiSink itself is synchronous — Frames returns
// only after every subscriber has consumed the batch, so a blocking
// subscriber stalls the whole broadcast (and the campaign behind it). A
// subscriber whose Frames returns an error is removed from the set;
// MultiSink.Frames itself never fails, so one dead consumer cannot abort
// the campaign feeding it.
type MultiSink struct {
	mu   sync.Mutex
	subs map[int]Sink
	next int
}

// NewMultiSink returns an empty broadcast sink.
func NewMultiSink() *MultiSink {
	return &MultiSink{subs: make(map[int]Sink)}
}

// Subscribe adds a subscriber and returns its id for Unsubscribe.
func (m *MultiSink) Subscribe(s Sink) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	id := m.next
	m.next++
	m.subs[id] = s
	return id
}

// Unsubscribe removes a subscriber. Unknown ids (including ids already
// dropped for failing) are a no-op.
func (m *MultiSink) Unsubscribe(id int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.subs, id)
}

// Len reports the current subscriber count.
func (m *MultiSink) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.subs)
}

// Frames implements Sink by broadcasting the batch under one lock
// acquisition: every subscriber receives the same batch of shared
// pre-rendered lines (no per-subscriber re-encoding). Failing subscribers
// are dropped; Frames always returns nil.
func (m *MultiSink) Frames(batch []Frame) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for id, s := range m.subs {
		if err := s.Frames(batch); err != nil {
			delete(m.subs, id)
		}
	}
	return nil
}

var _ Sink = (*MultiSink)(nil)
