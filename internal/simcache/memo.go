// Package simcache holds the process-wide memo tables behind the
// characterization hot path. The substrate's expensive constructions are
// pure functions — microarch.Simulate of (mix, spec, nInstr, seed),
// dram/silicon fabrication of (config, seed) — yet the engine used to
// recompute them once per Server or per worker: a Vmin descent re-runs the
// same workload at 30+ voltages, and a 16-worker fleet fabricated the same
// board 16 times. A single bounded, concurrency-safe memo per function
// collapses that cost to one computation per process without changing a
// single byte of output.
//
// Memo is the shared machinery: a size-bounded LRU map with single-flight
// semantics (concurrent misses on one key compute the value exactly once;
// the losers wait). The Counters front in counters.go is the simulate memo
// itself; internal/dram and internal/silicon build their fabrication pools
// on Memo directly.
package simcache

import "sync"

// Stats counts a memo's traffic. Hits include calls that waited on another
// goroutine's in-flight computation of the same key.
type Stats struct {
	Hits, Misses, Evictions uint64
}

// entry is one memoized value. ready is closed once the computing goroutine
// has filled val/err; waiters block on it outside the memo lock. prev/next
// link the entry into its memo's recency list (guarded by the memo lock).
type entry[K comparable, V any] struct {
	ready      chan struct{}
	val        V
	err        error
	key        K
	prev, next *entry[K, V]
}

// Memo is a size-bounded, concurrency-safe, single-flight memo table.
// The zero value is not usable; construct with NewMemo.
type Memo[K comparable, V any] struct {
	mu      sync.Mutex
	max     int
	entries map[K]*entry[K, V]
	// lru is the sentinel of a circular recency list: lru.next is the most
	// recently used entry, lru.prev the least. Every entry in the map is on
	// the list, so eviction walks from the cold end instead of scanning the
	// whole table.
	lru   entry[K, V]
	stats Stats
}

// NewMemo returns a memo holding at most max entries (least-recently-used
// eviction; max <= 0 panics — an unbounded memo is a leak by construction).
func NewMemo[K comparable, V any](max int) *Memo[K, V] {
	if max <= 0 {
		panic("simcache: memo bound must be positive")
	}
	m := &Memo[K, V]{max: max, entries: make(map[K]*entry[K, V])}
	m.lru.prev, m.lru.next = &m.lru, &m.lru
	return m
}

// pushFront links e in as the most recently used entry. Callers hold m.mu.
func (m *Memo[K, V]) pushFront(e *entry[K, V]) {
	e.prev, e.next = &m.lru, m.lru.next
	e.prev.next, e.next.prev = e, e
}

// unlink removes e from the recency list. Callers hold m.mu.
func (m *Memo[K, V]) unlink(e *entry[K, V]) {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
}

// Get returns the memoized value for key, computing it with fill on the
// first request. Concurrent Gets of one key run fill exactly once — the
// rest wait for its result. fill runs outside the memo lock, so fills of
// distinct keys proceed in parallel and fill may itself use other memos.
// A failed fill is not retained: every waiter receives the error and the
// next Get retries.
func (m *Memo[K, V]) Get(key K, fill func() (V, error)) (V, error) {
	m.mu.Lock()
	if e, ok := m.entries[key]; ok {
		m.unlink(e)
		m.pushFront(e)
		m.stats.Hits++
		m.mu.Unlock()
		<-e.ready
		return e.val, e.err
	}
	e := &entry[K, V]{ready: make(chan struct{}), key: key}
	m.entries[key] = e
	m.pushFront(e)
	m.stats.Misses++
	m.evictLocked(e)
	m.mu.Unlock()

	e.val, e.err = fill()
	close(e.ready)
	if e.err != nil {
		m.mu.Lock()
		if m.entries[key] == e {
			delete(m.entries, key)
			m.unlink(e)
		}
		m.mu.Unlock()
	}
	return e.val, e.err
}

// evictLocked drops least-recently-used entries until the memo fits its
// bound, walking the recency list from its cold end. The entry being
// installed (keep) and entries still computing are never evicted — an
// in-flight fill must stay discoverable so concurrent requesters coalesce
// on it. Callers hold m.mu.
func (m *Memo[K, V]) evictLocked(keep *entry[K, V]) {
	e := m.lru.prev
	for len(m.entries) > m.max && e != &m.lru {
		victim := e
		e = e.prev
		if victim == keep {
			continue
		}
		select {
		case <-victim.ready:
		default:
			continue // still computing
		}
		delete(m.entries, victim.key)
		m.unlink(victim)
		m.stats.Evictions++
	}
	// Reaching the sentinel with the memo still over its bound means
	// everything left is in flight; the bound is exceeded transiently.
}

// Len returns the current entry count.
func (m *Memo[K, V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}

// Stats returns a snapshot of the memo's traffic counters.
func (m *Memo[K, V]) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// Reset empties the memo and zeroes its counters. Intended for tests and
// benchmarks that need a cold table; in-flight fills complete harmlessly
// against the old entries.
func (m *Memo[K, V]) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.entries = make(map[K]*entry[K, V])
	m.lru.prev, m.lru.next = &m.lru, &m.lru
	m.stats = Stats{}
}
