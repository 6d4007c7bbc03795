package simcache

import (
	"sort"
	"testing"
)

// scanModel is the memo's eviction policy written as a whole-table scan:
// on overflow the victim is the ready entry with the oldest use, never the
// key being installed and never an entry still computing. The recency list
// must pick exactly the victims this scan picks.
type scanModel struct {
	max      int
	seq      uint64
	lastUsed map[int]uint64
	inFlight map[int]bool
	evicted  uint64
}

func (s *scanModel) get(key int, inFlight bool) {
	s.seq++
	if _, ok := s.lastUsed[key]; ok {
		s.lastUsed[key] = s.seq
		return
	}
	s.lastUsed[key] = s.seq
	s.inFlight[key] = inFlight
	for len(s.lastUsed) > s.max {
		victim, found := 0, false
		for k, used := range s.lastUsed {
			if k == key || s.inFlight[k] {
				continue
			}
			if !found || used < s.lastUsed[victim] {
				victim, found = k, true
			}
		}
		if !found {
			return
		}
		delete(s.lastUsed, victim)
		delete(s.inFlight, victim)
		s.evicted++
	}
}

func (s *scanModel) keys() []int {
	out := make([]int, 0, len(s.lastUsed))
	for k := range s.lastUsed {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

func memoKeys(m *Memo[int, int]) []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]int, 0, len(m.entries))
	for k := range m.entries {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// TestMemoEvictionMatchesScan fills a small memo, touches some keys, parks
// two fills in flight and overflows it: after every request the survivors
// and the Evictions count must equal those of the whole-table scan.
func TestMemoEvictionMatchesScan(t *testing.T) {
	const max = 4
	m := NewMemo[int, int](max)
	model := &scanModel{max: max, lastUsed: map[int]uint64{}, inFlight: map[int]bool{}}

	release := make(chan struct{})
	parked := make(chan struct{})
	done := make(chan struct{})
	park := func(key int) {
		model.get(key, true)
		go func() {
			m.Get(key, func() (int, error) {
				parked <- struct{}{}
				<-release
				return key, nil
			})
			done <- struct{}{}
		}()
		<-parked
	}
	get := func(key int) {
		model.get(key, false)
		if _, err := m.Get(key, func() (int, error) { return key, nil }); err != nil {
			t.Fatal(err)
		}
	}
	check := func(step string) {
		t.Helper()
		got, want := memoKeys(m), model.keys()
		if len(got) != len(want) {
			t.Fatalf("%s: survivors %v, scan keeps %v", step, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: survivors %v, scan keeps %v", step, got, want)
			}
		}
		if ev := m.Stats().Evictions; ev != model.evicted {
			t.Fatalf("%s: %d evictions, scan makes %d", step, ev, model.evicted)
		}
	}

	for k := 1; k <= max; k++ {
		get(k)
	}
	check("fill")
	get(2)
	get(1)
	check("touch")
	park(10) // evicts 3, the oldest untouched key
	check("park 10")
	park(11) // evicts 4
	check("park 11")
	for k := 20; k < 26; k++ {
		get(k) // in-flight 10 and 11 stay; ready keys cycle
		check("overflow")
	}
	get(21)
	get(30)
	check("touch and overflow")
	close(release)
	<-done
	<-done
	model.inFlight[10], model.inFlight[11] = false, false
	get(40) // 10 and 11 are ready now and the oldest
	get(41)
	check("after release")
	if m.Len() != max {
		t.Fatalf("len = %d, want %d", m.Len(), max)
	}
}
