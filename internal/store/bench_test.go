package store

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/wire"
)

// benchSizes are the store sizes the scaling benchmarks compare: a store's
// per-commit and boot costs should not grow with the segments it holds.
var benchSizes = []int{100, 1000, 8000}

// benchRecords is the record count of every benchmark segment.
const benchRecords = 100

// storeFixture writes n committed 100-record segments and the manifest
// that claims them straight to a fresh directory, as a store would have
// left them, without paying n fsync'd commits.
func storeFixture(b testing.TB, n int) string {
	b.Helper()
	dir := b.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, quarantineDir), 0o755); err != nil {
		b.Fatal(err)
	}
	seg := benchSegment(b)
	f, err := os.Create(filepath.Join(dir, manifestName))
	if err != nil {
		b.Fatal(err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := 0; i < n; i++ {
		fp := fmt.Sprintf("fixture%08d", i)
		if err := os.WriteFile(filepath.Join(dir, segName(fp)), seg, 0o644); err != nil {
			b.Fatal(err)
		}
		if err := enc.Encode(manifestOp{
			Op: "put", Fingerprint: fp, Segment: segName(fp),
			Records: benchRecords, Bytes: int64(len(seg)), Meta: json.RawMessage(`{"label":"mcf"}`),
		}); err != nil {
			b.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	return dir
}

// benchSegment encodes one benchRecords-record segment, byte for byte the
// file a store's writer would commit for the same records.
func benchSegment(b testing.TB) []byte {
	b.Helper()
	seg := wire.Header()
	for _, rec := range testRecords("mcf", benchRecords) {
		var err error
		if seg, err = wire.AppendBinaryRecord(seg, rec); err != nil {
			b.Fatal(err)
		}
	}
	return seg
}

// BenchmarkOpen boots a store over n committed segments: manifest replay,
// the directory sweep and the per-segment size check.
func BenchmarkOpen(b *testing.B) {
	for _, n := range benchSizes {
		dir := storeFixture(b, n)
		b.Run(fmt.Sprintf("segments=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, err := Open(Options{Dir: dir})
				if err != nil {
					b.Fatal(err)
				}
				if got := s.Stats().Segments; got != n {
					b.Fatalf("opened %d segments, want %d", got, n)
				}
				s.Close()
			}
		})
	}
}

// BenchmarkCommitAtBound commits one 100-record segment, adopted as bytes,
// into a store held at MaxSegments = n, so every commit also evicts the
// least recently used segment.
func BenchmarkCommitAtBound(b *testing.B) {
	seg := benchSegment(b)
	for _, n := range benchSizes {
		dir := storeFixture(b, n)
		next := 0 // fingerprints stay new across the runs b.Run makes
		b.Run(fmt.Sprintf("segments=%d", n), func(b *testing.B) {
			s, err := Open(Options{Dir: dir, MaxSegments: n})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				next++
				if err := s.Adopt(fmt.Sprintf("bench%08d", next), nil, seg, benchRecords); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if st := s.Stats(); st.Segments != n || st.Compactions != b.N {
				b.Fatalf("stats = %+v, want %d segments and %d compactions", st, n, b.N)
			}
		})
	}
}

// TestCommitAtBoundAllocs bounds BenchmarkCommitAtBound's unit of work
// at 100 segments: one adopted 100-record segment committed into a full
// store, evicting the least recently used segment. Measured on Go 1.24:
// 28 allocations per commit; the bound allows 8 more for other
// toolchains.
func TestCommitAtBoundAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector are not the plain build's")
	}
	const n = 100
	seg := benchSegment(t)
	s, err := Open(Options{Dir: storeFixture(t, n), MaxSegments: n})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	next := 0
	commit := func() {
		next++
		if err := s.Adopt(fmt.Sprintf("bench%08d", next), nil, seg, benchRecords); err != nil {
			t.Fatal(err)
		}
	}
	const bound = 28 + 8
	allocs := testing.AllocsPerRun(20, commit)
	t.Logf("commit at bound: %.1f allocs", allocs)
	if allocs > bound {
		t.Errorf("a commit at the bound allocates %.1f objects, want <= %d", allocs, bound)
	}
}
