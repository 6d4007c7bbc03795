package wire_test

// Tests for the segment read path on real campaign data: the Fig. 4 grid
// persisted as one binary segment must read back into exactly the records
// the live stream rendered, and replay exactly its lines, through every
// truncation, and both paths must stay within a fixed allocation budget.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"
	"testing/iotest"

	"repro/internal/core"
	"repro/internal/wire"
)

// TestAppendLinesMatchesSegmentLines: the lines the live streamer renders
// for the Fig. 4 records (AppendLines) are the lines a replay of their
// segment appends (AppendSegmentLines), and the segment reads back as the
// same records.
func TestAppendLinesMatchesSegmentLines(t *testing.T) {
	recs, err := fig4Records()
	if err != nil {
		t.Fatal(err)
	}
	live, err := wire.AppendLines(nil, recs)
	if err != nil {
		t.Fatal(err)
	}
	seg := fig4Segment(t)
	replayed, _, err := wire.AppendSegmentLines(nil, nil, bytes.NewBuffer(seg))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(replayed, live) {
		t.Fatalf("replayed lines differ from the live render at byte %d", firstDiff(replayed, live))
	}
	decoded, err := wire.ReadSegment(bytes.NewBuffer(seg))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decoded, recs) {
		t.Fatal("segment read back different records from the live ones")
	}
}

// TestReadSegmentEveryTruncation cuts the Fig. 4 segment at every byte
// offset: the records that come back are exactly those wholly before the
// cut, as the full read decoded them, and only a cut on a record boundary
// reads clean. Each cut is read in place from a *bytes.Buffer, as the store
// reads, and through a stream that fails there, as a severed peer body
// does; the stream's error must surface as the damage.
func TestReadSegmentEveryTruncation(t *testing.T) {
	seg := fig4Segment(t)
	full, err := wire.ReadSegment(bytes.NewBuffer(seg))
	if err != nil {
		t.Fatal(err)
	}
	// ends[i] is the offset just past record i.
	var ends []int
	for off := len(wire.Header()); off < len(seg); {
		plen, k := binary.Uvarint(seg[off:])
		off += k + int(plen) + 4
		ends = append(ends, off)
	}
	if len(ends) != len(full) {
		t.Fatalf("segment frames %d records, read returned %d", len(ends), len(full))
	}
	severed := errors.New("connection reset")
	whole := 0 // records wholly before the cut
	for cut := 0; cut <= len(seg); cut++ {
		for whole < len(ends) && ends[whole] <= cut {
			whole++
		}
		clean := cut == len(wire.Header()) || (whole > 0 && ends[whole-1] == cut)
		damaged := whole + 1 // the record the cut falls in, or the next
		if cut < len(wire.Header()) {
			damaged = 0
		}
		inPlace, err := wire.ReadSegment(bytes.NewBuffer(seg[:cut]))
		if (err == nil) != clean {
			t.Fatalf("cut at %d: err = %v, want clean read %v", cut, err, clean)
		}
		// The record walk behind verbatim segment transfer fails wherever
		// ReadSegment does, at the same record, and counts the same prefix.
		n, werr := wire.SegmentRecords(seg[:cut])
		var wre, fre *wire.ReadError
		if (werr == nil) != clean || n != whole ||
			(werr != nil && (!errors.As(werr, &wre) || !errors.As(err, &fre) || wre.Record != fre.Record)) {
			t.Fatalf("cut at %d: SegmentRecords = %d, %v; ReadSegment err = %v with %d whole records", cut, n, werr, err, whole)
		}
		stream, serr := wire.ReadSegment(io.MultiReader(bytes.NewReader(seg[:cut]), iotest.ErrReader(severed)))
		var re *wire.ReadError
		if !errors.Is(serr, severed) || !errors.As(serr, &re) || re.Record != damaged {
			t.Fatalf("cut at %d, stream severed: err = %v, want a record-%d ReadError wrapping %v", cut, serr, damaged, severed)
		}
		for _, recs := range [][]core.RunRecord{inPlace, stream} {
			if len(recs) != whole || (whole > 0 && !reflect.DeepEqual(recs, full[:whole])) {
				t.Fatalf("cut at %d: %d records, want the full read's first %d", cut, len(recs), whole)
			}
		}
	}
}

// TestReadSegmentAllocs gates the read path's allocation count on the
// Fig. 4 segment. Per read: the *bytes.Buffer, the records slice, one
// string per distinct benchmark (10) and one core list reused by every
// record: 13, measured on Go 1.24. Before the single-pass decode this was
// 922, and 14 while ReadSegment also rendered every line into a shared
// backing.
func TestReadSegmentAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector are not the plain build's")
	}
	seg := fig4Segment(t)
	const bound = 13
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := wire.ReadSegment(bytes.NewBuffer(seg)); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("ReadSegment: %.1f allocs per Fig. 4 segment", allocs)
	if allocs > bound {
		t.Errorf("ReadSegment allocates %.1f objects per Fig. 4 segment, want <= %d", allocs, bound)
	}
}

// TestAppendLinesAllocs gates the live render on the Fig. 4 records: into
// a buffer that already has room, as the streamer's pooled one does once
// warm, it allocates nothing; every rendered number is a memo hit.
// Measured on Go 1.24: 0. The frames-based encoder this replaces took 2
// per batch (the frames slice and the line backing).
func TestAppendLinesAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector are not the plain build's")
	}
	recs, err := fig4Records()
	if err != nil {
		t.Fatal(err)
	}
	buf, err := wire.AppendLines(nil, recs)
	if err != nil {
		t.Fatal(err)
	}
	const bound = 0
	allocs := testing.AllocsPerRun(20, func() {
		if buf, err = wire.AppendLines(buf[:0], recs); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("AppendLines: %.1f allocs per %d-record Fig. 4 block", allocs, len(recs))
	if allocs > bound {
		t.Errorf("AppendLines allocates %.1f objects per Fig. 4 block, want <= %d", allocs, bound)
	}
}

// TestMaxSegmentSize: the Fig. 4 segment fits the bound for its record
// count, and the bound saturates rather than overflowing on an absurd
// count.
func TestMaxSegmentSize(t *testing.T) {
	seg := fig4Segment(t)
	if bound := wire.MaxSegmentSize(100); int64(len(seg)) > bound {
		t.Errorf("Fig. 4 segment is %d bytes, over MaxSegmentSize(100) = %d", len(seg), bound)
	}
	if got := wire.MaxSegmentSize(0); got != int64(len(wire.Header())) {
		t.Errorf("MaxSegmentSize(0) = %d, want the header's %d bytes", got, len(wire.Header()))
	}
	if got := wire.MaxSegmentSize(math.MaxInt); got != math.MaxInt64 {
		t.Errorf("MaxSegmentSize(MaxInt) = %d, want saturation at MaxInt64", got)
	}
}

// TestAppendBinaryRecordAllocs gates the segment writer's encoder on the
// Fig. 4 records: appended into a buffer that already has room, as the
// store's writer reuses its scratch, the 100 records allocate nothing.
// Measured on Go 1.24: 0. The bound has no slack: one allocation per
// record would read 100.
func TestAppendBinaryRecordAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector are not the plain build's")
	}
	recs, err := fig4Records()
	if err != nil {
		t.Fatal(err)
	}
	buf := fig4Segment(t)
	hdr := len(wire.Header())
	const bound = 0
	allocs := testing.AllocsPerRun(20, func() {
		buf = buf[:hdr]
		for _, rec := range recs {
			if buf, err = wire.AppendBinaryRecord(buf, rec); err != nil {
				t.Fatal(err)
			}
		}
	})
	t.Logf("AppendBinaryRecord: %.1f allocs per %d-record Fig. 4 body", allocs, len(recs))
	if allocs > bound {
		t.Errorf("AppendBinaryRecord allocates %.1f objects per Fig. 4 body, want <= %d", allocs, bound)
	}
}
