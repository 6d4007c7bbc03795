package campaign

import (
	"reflect"
	"testing"

	"repro/internal/core"
)

// TestGridResumeByteIdentical: restoring a cell-aligned prefix of a
// previous run's records reproduces the uninterrupted grid exactly, with
// only the remaining cells executing — at several worker counts, since
// restoration must not disturb the ordering contract.
func TestGridResumeByteIdentical(t *testing.T) {
	g := recoveryGrid(t)
	base, err := RunGrid(Config{Workers: 1, Seed: 7}, g)
	if err != nil {
		t.Fatal(err)
	}
	cell := g.Repetitions // single-board grid: Expected per cell
	cells := len(g.Benches) * len(g.Setups)
	for _, restoredCells := range []int{1, cells - 1, cells} {
		for _, workers := range []int{1, 4, 16} {
			resume := base.Records[:restoredCells*cell]
			rep, err := RunGrid(Config{Workers: workers, Seed: 7, Resume: resume}, g)
			if err != nil {
				t.Fatalf("cells=%d workers=%d: %v", restoredCells, workers, err)
			}
			if !reflect.DeepEqual(base.Records, rep.Records) {
				t.Errorf("cells=%d workers=%d: resumed records differ", restoredCells, workers)
			}
			if rep.Stats.Restored != restoredCells*cell {
				t.Errorf("cells=%d workers=%d: Restored = %d, want %d",
					restoredCells, workers, rep.Stats.Restored, restoredCells*cell)
			}
			if want := (cells - restoredCells) * cell; rep.Stats.Runs != want {
				t.Errorf("cells=%d workers=%d: Runs = %d, want %d",
					restoredCells, workers, rep.Stats.Runs, want)
			}
		}
	}
}

// TestGridResumeSinkEmitsOnlyNewRecords: restored cells stream nothing —
// the caller already replayed their bytes from its checkpoint — and the
// sink still sees the remaining records in grid order. The report's Tally
// counts exactly what was encoded and the boards the executed cells used.
func TestGridResumeSinkEmitsOnlyNewRecords(t *testing.T) {
	g := recoveryGrid(t)
	base, err := RunGrid(Config{Workers: 1, Seed: 7}, g)
	if err != nil {
		t.Fatal(err)
	}
	if base.Tally.Records != 0 || base.Tally.Bytes != 0 {
		t.Errorf("sink-less campaign rendered %d records, %d bytes", base.Tally.Records, base.Tally.Bytes)
	}
	cell := g.Repetitions
	sink := &collectSink{}
	rep, err := RunGrid(Config{Workers: 4, Seed: 7, Sink: sink, Resume: base.Records[:2*cell]}, g)
	if err != nil {
		t.Fatal(err)
	}
	if got := sink.records(); !reflect.DeepEqual(got, base.Records[2*cell:]) {
		t.Errorf("sink saw %d records, want the %d non-restored ones",
			len(got), len(base.Records)-2*cell)
	}
	if rep.Tally.Records != len(sink.recs) || rep.Tally.Bytes != len(sink.lines) {
		t.Errorf("Tally rendered %d records, %d bytes; the sink saw %d, %d",
			rep.Tally.Records, rep.Tally.Bytes, len(sink.recs), len(sink.lines))
	}
	// Each executed single-board cell takes one board, fabricated or
	// pooled; restored cells take none.
	executed := len(g.Benches)*len(g.Setups) - 2
	if got := rep.Tally.BoardFabs + rep.Tally.PoolCheckouts; got != executed || rep.Tally.BoardFabs < 1 {
		t.Errorf("Tally boards: %d fabricated + %d pooled, want %d in all, at least one fabricated",
			rep.Tally.BoardFabs, rep.Tally.PoolCheckouts, executed)
	}
	if rep.Tally.Wall <= 0 {
		t.Errorf("Tally.Wall = %v", rep.Tally.Wall)
	}
}

// TestResumeMisalignedRejected: a resume prefix that ends mid-cell (or
// overruns the campaign) must be rejected, never spliced.
func TestResumeMisalignedRejected(t *testing.T) {
	g := recoveryGrid(t)
	base, err := RunGrid(Config{Workers: 1, Seed: 7}, g)
	if err != nil {
		t.Fatal(err)
	}
	cell := g.Repetitions
	for _, n := range []int{1, cell + 1, len(base.Records) + cell} {
		var resume []core.RunRecord
		if n <= len(base.Records) {
			resume = base.Records[:n]
		} else {
			resume = append(append([]core.RunRecord{}, base.Records...), base.Records[:cell]...)
		}
		if _, err := RunGrid(Config{Workers: 2, Seed: 7, Resume: resume}, g); err == nil {
			t.Errorf("resume of %d records (cell=%d) accepted, want alignment error", n, cell)
		}
	}
}

// TestResumeRequiresExpected: shards that cannot declare their record
// count (Expected zero) refuse resume records rather than guessing.
func TestResumeRequiresExpected(t *testing.T) {
	shards := []Shard[int]{{
		Name: "anon",
		Run:  func(ctx *Ctx) (int, error) { return 0, nil },
	}}
	if _, err := Run(Config{Seed: 1, Resume: []core.RunRecord{{}}}, shards); err == nil {
		t.Fatal("resume against Expected-less shard accepted")
	}
}
