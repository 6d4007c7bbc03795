package core

import (
	"sync"
	"sync/atomic"
)

// The service layer (internal/serve) shares one live characterization
// stream between many consumers: the campaign engine produces records
// through a single Sink, and any number of subscribers — HTTP stream
// clients, spool files, monitoring hooks — come and go while the campaign
// runs. MultiSink is that broadcast point, and ChanSink adapts a
// subscriber's channel to the Sink interface with an explicit
// slow-consumer policy.

// MultiSink is a broadcast Sink: every record fans out to a dynamic set of
// subscriber sinks. It is safe for concurrent use; subscribers may be
// added and removed mid-stream. The lock is held across a fan-out, so a
// subscriber joining between two records sees none-or-all of each record —
// and, for frame batches, none-or-all of each batch — never a torn view.
//
// Slow-subscriber policy: MultiSink itself is synchronous — Record returns
// only after every subscriber has consumed the record, so a blocking
// subscriber stalls the whole broadcast (and the campaign behind it).
// Subscribers that must not exert backpressure wrap a ChanSink with the
// Drop policy. A subscriber whose Record returns an error is removed from
// the set; MultiSink.Record itself never fails, so one dead consumer
// cannot abort the campaign feeding it.
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

// Record implements Sink by broadcasting to every subscriber. Failing
// subscribers are dropped; Record always returns nil.
func (m *MultiSink) Record(rec RunRecord) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for id, s := range m.subs {
		if err := s.Record(rec); err != nil {
			delete(m.subs, id)
		}
	}
	return nil
}

// Frames implements FrameSink by broadcasting the batch under one lock
// acquisition: subscribers that understand frames receive the batch of
// shared pre-rendered lines (no per-subscriber re-encoding), the rest fall
// back to Record. The drop-on-error policy matches Record.
func (m *MultiSink) Frames(batch []Frame) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for id, s := range m.subs {
		if err := EmitFrames(s, batch); err != nil {
			delete(m.subs, id)
		}
	}
	return nil
}

var _ Sink = (*MultiSink)(nil)
var _ FrameSink = (*MultiSink)(nil)

// ChanPolicy selects what a ChanSink does when its consumer falls behind.
type ChanPolicy int

const (
	// Block makes Record wait until the consumer drains the channel:
	// lossless, but backpressure propagates to the producer (a campaign
	// streaming through the sink slows to the consumer's pace).
	Block ChanPolicy = iota
	// Drop makes Record discard the record when the buffer is full: the
	// producer never stalls, and Dropped counts the loss.
	Drop
)

// ChanSink bridges the Sink interface to a channel consumer, with an
// explicit slow-consumer policy. Typical use: subscribe a ChanSink to a
// MultiSink and range over C() in the consumer goroutine.
type ChanSink struct {
	c       chan RunRecord
	policy  ChanPolicy
	dropped atomic.Uint64
	onDrop  func(n uint64)
}

// NewChanSink returns a ChanSink with the given buffer depth and policy.
func NewChanSink(buffer int, policy ChanPolicy) *ChanSink {
	return &ChanSink{c: make(chan RunRecord, buffer), policy: policy}
}

// OnDrop registers a hook called once per record the Drop policy
// discards, with the new cumulative drop count — the plumbing that lets a
// serving layer surface slow-subscriber loss in its metrics instead of
// losing records silently. Set it before the sink starts receiving;
// the hook runs on the producer goroutine and must not block. Returns the
// sink for chaining.
func (s *ChanSink) OnDrop(fn func(total uint64)) *ChanSink {
	s.onDrop = fn
	return s
}

// C is the consumer side of the sink.
func (s *ChanSink) C() <-chan RunRecord { return s.c }

// Record implements Sink under the configured policy. It never returns an
// error: with Block it waits, with Drop it counts (and notifies the
// OnDrop hook, when set).
func (s *ChanSink) Record(rec RunRecord) error {
	if s.policy == Drop {
		select {
		case s.c <- rec:
		default:
			n := s.dropped.Add(1)
			if s.onDrop != nil {
				s.onDrop(n)
			}
		}
		return nil
	}
	s.c <- rec
	return nil
}

// Dropped reports how many records the Drop policy discarded.
func (s *ChanSink) Dropped() uint64 { return s.dropped.Load() }

// Close closes the consumer channel. Call only after the producer is done
// with the sink (e.g. after unsubscribing it from a MultiSink); a Record
// after Close panics, as for any closed channel.
func (s *ChanSink) Close() { close(s.c) }

var _ Sink = (*ChanSink)(nil)
