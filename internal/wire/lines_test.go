package wire_test

// Tests for the hydration read path, AppendSegmentLines: it must append
// exactly the lines of the records ReadSegment decodes, salvage the same
// prefix at every truncation, and hydrate the Fig. 4 segment within a
// fixed allocation budget that leaves no room for a records slice.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"slices"
	"testing"
	"testing/iotest"

	"repro/internal/core"
	"repro/internal/wire"
)

// checkSameRead fails unless AppendSegmentLines, called on an arena that
// already holds prefix with prefixEnds, appended exactly the lines of
// recs (wire.AppendRecordLine) and ended in the same error record as
// ReadSegment.
func checkSameRead(t *testing.T, prefix []byte, prefixEnds []int, lines []byte, ends []int, lerr error, recs []core.RunRecord, ferr error) {
	t.Helper()
	if !bytes.Equal(lines[:len(prefix)], prefix) || !slices.Equal(ends[:len(prefixEnds)], prefixEnds) {
		t.Fatal("the arena's existing lines or ends changed")
	}
	if len(ends)-len(prefixEnds) != len(recs) {
		t.Fatalf("appended %d line ends, ReadSegment read %d records", len(ends)-len(prefixEnds), len(recs))
	}
	off := len(prefix)
	for i, rec := range recs {
		end := ends[len(prefixEnds)+i]
		want, err := wire.AppendRecordLine(nil, rec)
		if err != nil || end < off || end > len(lines) || !bytes.Equal(lines[off:end], want) {
			t.Fatalf("line %d differs from the line of ReadSegment's record", i)
		}
		off = end
	}
	if off != len(lines) {
		t.Fatalf("%d bytes appended past the last line end", len(lines)-off)
	}
	var lre, fre *wire.ReadError
	if (lerr == nil) != (ferr == nil) || (lerr != nil && (!errors.As(lerr, &lre) || !errors.As(ferr, &fre) || lre.Record != fre.Record)) {
		t.Fatalf("AppendSegmentLines err = %v, ReadSegment err = %v", lerr, ferr)
	}
}

// TestAppendSegmentLinesMatchesReadSegment: onto an empty arena the Fig. 4
// segment's lines land in exact-size slices; onto a non-empty one they
// follow its bytes, with ends offset by them.
func TestAppendSegmentLinesMatchesReadSegment(t *testing.T) {
	seg := fig4Segment(t)
	recs, ferr := wire.ReadSegment(bytes.NewBuffer(seg))
	if ferr != nil {
		t.Fatal(ferr)
	}
	lines, ends, err := wire.AppendSegmentLines(nil, nil, bytes.NewBuffer(seg))
	checkSameRead(t, nil, nil, lines, ends, err, recs, ferr)
	if cap(lines) != len(lines) || cap(ends) != len(ends) {
		t.Errorf("lines cap %d len %d, ends cap %d len %d: want exact sizes", cap(lines), len(lines), cap(ends), len(ends))
	}
	prefix, prefixEnds := []byte("{}\n"), []int{3}
	lines, ends, err = wire.AppendSegmentLines(append([]byte(nil), prefix...), append([]int(nil), prefixEnds...), bytes.NewBuffer(seg))
	checkSameRead(t, prefix, prefixEnds, lines, ends, err, recs, ferr)
}

// TestAppendSegmentLinesEveryTruncation cuts the Fig. 4 segment at every
// byte offset, read in place and through a stream severed there: the lines
// appended are those of the records wholly before the cut, and the damage
// is the record the cut falls in (0 inside the header), as ReadSegment
// reports it. Under the race detector, which has no concurrency to watch
// here, every seventh cut is checked.
func TestAppendSegmentLinesEveryTruncation(t *testing.T) {
	seg := fig4Segment(t)
	full, err := wire.ReadSegment(bytes.NewBuffer(seg))
	if err != nil {
		t.Fatal(err)
	}
	// ends[i] is the segment offset just past record i.
	var ends []int
	for off := len(wire.Header()); off < len(seg); {
		plen, k := binary.Uvarint(seg[off:])
		off += k + int(plen) + 4
		ends = append(ends, off)
	}
	step := 1
	if raceEnabled {
		step = 7
	}
	severed := errors.New("connection reset")
	whole := 0 // records wholly before the cut
	for cut := 0; cut <= len(seg); cut += step {
		for whole < len(ends) && ends[whole] <= cut {
			whole++
		}
		var want error
		switch {
		case cut < len(wire.Header()):
			want = &wire.ReadError{Record: 0}
		case cut != len(wire.Header()) && ends[max(whole-1, 0)] != cut:
			want = &wire.ReadError{Record: whole + 1}
		}
		lines, lends, lerr := wire.AppendSegmentLines(nil, nil, bytes.NewBuffer(seg[:cut]))
		checkSameRead(t, nil, nil, lines, lends, lerr, full[:whole], want)
		stream := io.MultiReader(bytes.NewReader(seg[:cut]), iotest.ErrReader(severed))
		lines, lends, lerr = wire.AppendSegmentLines(nil, nil, stream)
		if cut >= len(wire.Header()) {
			want = &wire.ReadError{Record: whole + 1}
		}
		checkSameRead(t, nil, nil, lines, lends, lerr, full[:whole], want)
		if !errors.Is(lerr, severed) {
			t.Fatalf("cut at %d, stream severed: err = %v, want it to wrap %v", cut, lerr, severed)
		}
	}
}

// TestHydrateFig4Allocs gates hydration into an empty arena, the segment
// file's read included (one copy of the segment stands in for it). Per
// hydration: the file, the *bytes.Buffer, the lines, the ends, one string
// per distinct benchmark (10) and one core list. No records slice: bytes
// stay within the file plus the arena plus a small constant.
func TestHydrateFig4Allocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector randomly drops sync.Pool items, so scratch regrows")
	}
	seg := fig4Segment(t)
	lines, ends, err := wire.AppendSegmentLines(nil, nil, bytes.NewBuffer(seg))
	if err != nil {
		t.Fatal(err)
	}
	hydrate := func() {
		if _, _, err := wire.AppendSegmentLines(nil, nil, bytes.NewBuffer(bytes.Clone(seg))); err != nil {
			t.Fatal(err)
		}
	}
	const bound = 15
	allocs := testing.AllocsPerRun(20, hydrate)
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		hydrate()
	}
	runtime.ReadMemStats(&after)
	perRun := int((after.TotalAlloc - before.TotalAlloc) / runs)
	const slack = 4 << 10 // size-class rounding, the Buffer, names and cores
	arena := len(lines) + 8*len(ends)
	t.Logf("AppendSegmentLines: %.1f allocs, %d bytes per Fig. 4 segment (file %d, arena %d)", allocs, perRun, len(seg), arena)
	if allocs > bound {
		t.Errorf("hydration allocates %.1f objects per Fig. 4 segment, want <= %d", allocs, bound)
	}
	if perRun > len(seg)+arena+slack {
		t.Errorf("hydration allocates %d bytes per Fig. 4 segment, want <= file %d + arena %d + %d", perRun, len(seg), arena, slack)
	}
}
