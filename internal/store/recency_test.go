package store

import (
	"flag"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

var recencySeed = flag.Uint64("recency-seed", 0, "seed for TestRecencyMatchesSeqClock (0 picks one from the clock)")

// seqModel is the reference recency order the store's list must agree
// with: a clock stamped on every use, and a full sort to read it.
type seqModel struct {
	max   int
	clock uint64
	seq   map[string]uint64
}

func (m *seqModel) use(fp string) {
	if _, ok := m.seq[fp]; ok {
		m.clock++
		m.seq[fp] = m.clock
	}
}

// commit stamps fp as the newest entry and returns what compaction then
// evicts.
func (m *seqModel) commit(fp string) []string {
	m.clock++
	m.seq[fp] = m.clock
	return m.compact()
}

// compact evicts the least recently used entries until the MaxSegments
// bound holds and returns them, sorted.
func (m *seqModel) compact() []string {
	var victims []string
	for len(m.seq) > m.max {
		victim := m.order()[0]
		delete(m.seq, victim)
		victims = append(victims, victim)
	}
	sort.Strings(victims)
	return victims
}

// order lists the live fingerprints least recently used first.
func (m *seqModel) order() []string {
	out := make([]string, 0, len(m.seq))
	for fp := range m.seq {
		out = append(out, fp)
	}
	sort.Slice(out, func(i, j int) bool { return m.seq[out[i]] < m.seq[out[j]] })
	return out
}

// TestRecencyMatchesSeqClock drives a store through a seeded random mix of
// commits, recommits, touches, loads, quarantining loads, compactions and
// reopens. After every step Entries() must list the seq-clock reference's
// order and every compaction must evict the reference's victims. Reproduce
// a failure with -args -recency-seed=N.
func TestRecencyMatchesSeqClock(t *testing.T) {
	seed := *recencySeed
	if seed == 0 {
		seed = uint64(time.Now().UnixNano())
	}
	t.Logf("seed %d (rerun with -args -recency-seed=%d)", seed, seed)
	rng := rand.New(rand.NewPCG(seed, 0))

	dir := t.TempDir()
	opts := Options{Dir: dir, MaxSegments: 2 + rng.IntN(5)}
	model := &seqModel{max: opts.MaxSegments, seq: map[string]uint64{}}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.Close() }()

	fps := []string{"aaaa", "bbbb", "cccc", "dddd", "eeee", "ffff", "gggg", "hhhh", "iiii"}
	stored := func() []string {
		var out []string
		for _, e := range s.Entries() {
			out = append(out, e.Fingerprint)
		}
		return out
	}
	// evicted lists, sorted, what was stored before a step and is gone
	// after it, other than the fingerprint the step itself dropped.
	evicted := func(before []string, dropped string) []string {
		gone := map[string]bool{}
		for _, fp := range before {
			gone[fp] = fp != dropped
		}
		for _, fp := range stored() {
			delete(gone, fp)
		}
		var out []string
		for fp, ok := range gone {
			if ok {
				out = append(out, fp)
			}
		}
		sort.Strings(out)
		return out
	}
	reopen := func() {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if s, err = Open(opts); err != nil {
			t.Fatal(err)
		}
	}

	for step := 0; step < 150; step++ {
		var name string
		var got, want []string
		before := stored()
		switch op := rng.IntN(10); {
		case op <= 3: // commit a fingerprint, new or already stored
			fp := fps[rng.IntN(len(fps))]
			name = "commit " + fp
			want = model.commit(fp)
			commit(t, s, fp, "mcf", 1+rng.IntN(3))
			got = evicted(before, fp)
		case op <= 5: // touch, possibly a fingerprint the store lacks
			fp := fps[rng.IntN(len(fps))]
			name = "touch " + fp
			s.Touch(fp)
			model.use(fp)
		case op == 6 && len(before) > 0: // load
			fp := before[rng.IntN(len(before))]
			name = "load " + fp
			if _, err := s.LoadFrames(fp); err != nil {
				t.Fatalf("seed %d, step %d %s: %v", seed, step, name, err)
			}
			model.use(fp)
		case op == 7 && len(before) > 0: // a load that finds size-preserving damage
			fp := before[rng.IntN(len(before))]
			name = "quarantining load " + fp
			flipPayloadByte(t, filepath.Join(dir, segName(fp)))
			if _, err := s.LoadFrames(fp); err == nil {
				t.Fatalf("seed %d, step %d %s: damaged segment loaded", seed, step, name)
			}
			delete(model.seq, fp)
		case op == 8: // reopen under a new bound: Open compacts a tighter one
			opts.MaxSegments = 1 + rng.IntN(6)
			model.max = opts.MaxSegments
			name = fmt.Sprintf("reopen at MaxSegments %d", opts.MaxSegments)
			want = model.compact()
			reopen()
			got = evicted(before, "")
		default: // reopen under the same bound
			name = "reopen"
			reopen()
		}
		step := fmt.Sprintf("seed %d, step %d %s", seed, step, name)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: compaction evicted %v, the seq clock evicts %v", step, got, want)
		}
		if got, want := stored(), model.order(); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: Entries() = %v, the seq clock orders %v", step, got, want)
		}
	}
}
