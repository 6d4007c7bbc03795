package wire_test

// Tests for the segment read path on real campaign data: the Fig. 4 grid
// persisted as one binary segment must hydrate into exactly the frames the
// live encoder renders, through every truncation, and both paths must stay
// within a fixed allocation budget.

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

// checkLines fails unless every Line is capacity-capped, so that no
// subscriber appending to its Line can write into the next one.
func checkLines(t *testing.T, frames []core.Frame) {
	t.Helper()
	for i, f := range frames {
		if cap(f.Line) != len(f.Line) {
			t.Fatalf("frame %d: Line cap %d != len %d", i, cap(f.Line), len(f.Line))
		}
	}
}

// TestReadSegmentMatchesEncodeFrames: a replayed segment and the live
// render of the same records are the same frames, record and line.
func TestReadSegmentMatchesEncodeFrames(t *testing.T) {
	recs, err := fig4Records()
	if err != nil {
		t.Fatal(err)
	}
	live, err := wire.EncodeFrames(recs)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := wire.ReadSegment(bytes.NewBuffer(fig4Segment(t)))
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != len(live) {
		t.Fatalf("replayed %d frames, live rendered %d", len(replayed), len(live))
	}
	for i := range live {
		if !reflect.DeepEqual(replayed[i].Rec, live[i].Rec) {
			t.Fatalf("frame %d: replayed record %+v, live %+v", i, replayed[i].Rec, live[i].Rec)
		}
		if !bytes.Equal(replayed[i].Line, live[i].Line) {
			t.Fatalf("frame %d: replayed line %q, live %q", i, replayed[i].Line, live[i].Line)
		}
	}
	checkLines(t, replayed)
	checkLines(t, live)
}

// TestReadSegmentEveryTruncation cuts the Fig. 4 segment at every byte
// offset: the frames that come back are exactly the records wholly before
// the cut, with the full read's lines, and only a cut on a record boundary
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
		for _, frames := range [][]core.Frame{inPlace, stream} {
			if len(frames) != whole {
				t.Fatalf("cut at %d: %d frames, want %d", cut, len(frames), whole)
			}
			for i, f := range frames {
				if !bytes.Equal(f.Line, full[i].Line) {
					t.Fatalf("cut at %d: frame %d line differs from the full read", cut, i)
				}
			}
			checkLines(t, frames)
		}
	}
}

// TestReadSegmentAllocs gates the read path's allocation count on the
// Fig. 4 segment. Per read: the *bytes.Buffer, the frames slice, the
// shared line backing, one string per distinct benchmark (10) and one
// core list reused by every record. Every rendered number is a memo hit.
// Before the single-pass decode this was 922, and 22 while the number
// memo was direct-mapped and two pairs of SimTime values evicted each
// other.
func TestReadSegmentAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector randomly drops sync.Pool items, so scratch regrows")
	}
	seg := fig4Segment(t)
	const bound = 14
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

// TestEncodeFramesAllocs gates the live encoder on the Fig. 4 batch: the
// frames slice and the shared line backing, and nothing per record. It
// was 10 while the number memo was direct-mapped.
func TestEncodeFramesAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector randomly drops sync.Pool items, so scratch regrows")
	}
	recs, err := fig4Records()
	if err != nil {
		t.Fatal(err)
	}
	const bound = 2
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := wire.EncodeFrames(recs); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("EncodeFrames: %.1f allocs per %d-record Fig. 4 batch", allocs, len(recs))
	if allocs > bound {
		t.Errorf("EncodeFrames allocates %.1f objects per Fig. 4 batch, want <= %d", allocs, bound)
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

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool
