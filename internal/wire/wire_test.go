package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/core"
	"repro/internal/silicon"
	"repro/internal/xgene"
)

// sampleRecords is a corpus covering the encoder's branch space: every
// outcome, nil vs empty vs populated core lists, zero and negative
// numerics, floats on both sides of encoding/json's fixed/exponent
// boundary, and strings that exercise the escaping paths.
func sampleRecords() []core.RunRecord {
	base := core.NominalSetup(silicon.CoreID{PMD: 0, Core: 0}, silicon.CoreID{PMD: 3, Core: 1})
	recs := []core.RunRecord{
		{Benchmark: "dgemm", Setup: base, Repetition: 0, Outcome: xgene.OutcomeOK, DroopMV: 12.5, SimTime: 3 * time.Second},
		{Benchmark: "stream", Setup: base, Repetition: 9, Outcome: xgene.OutcomeCE, DroopMV: 0, DRAMCE: 17, SimTime: time.Millisecond},
		{Benchmark: "", Setup: core.Setup{}, Outcome: xgene.OutcomeCrash, Recovered: true},
		{Benchmark: `quo"te\back`, Setup: base, Outcome: xgene.OutcomeUE, DRAMUE: 2, SimTime: -time.Second},
		{Benchmark: "html<&>esc", Setup: base, Outcome: xgene.OutcomeSDC, DRAMSDC: 1},
		{Benchmark: "ctrl\n\r\t\x01 and \u2028 and \xff", Setup: base, Outcome: xgene.OutcomeHang, Recovered: true},
		{Benchmark: "unicode-héllo-世界", Setup: base, Outcome: xgene.OutcomeOK, DroopMV: -3.25},
	}
	// Nil vs empty Cores render differently (null vs []).
	empties := base
	empties.Cores = []silicon.CoreID{}
	recs = append(recs, core.RunRecord{Benchmark: "empty-cores", Setup: empties, Outcome: xgene.OutcomeOK})
	nils := base
	nils.Cores = nil
	recs = append(recs, core.RunRecord{Benchmark: "nil-cores", Setup: nils, Outcome: xgene.OutcomeOK})
	// Float formatting edges: json uses fixed inside [1e-6, 1e21), exponent
	// outside, with "e-07" trimmed to "e-7".
	for _, v := range []float64{0, 1e-7, 1e-6, 0.9999999999999999, 1e20, 1e21, 2.5e22, -1e-9, 5e-324, math.MaxFloat64, 980.0 / 1000} {
		r := base
		r.PMDVoltage = v
		r.SoCVoltage = -v
		r.PMDFreqHz[2] = v
		recs = append(recs, core.RunRecord{Benchmark: "float-edge", Setup: r, Outcome: xgene.OutcomeOK, DroopMV: v})
	}
	return recs
}

// TestAppendRecordMatchesEncodingJSON pins the tentpole invariant: the
// hand-rolled encoder is byte-identical to encoding/json for every record
// shape the framework can produce.
func TestAppendRecordMatchesEncodingJSON(t *testing.T) {
	for i, rec := range sampleRecords() {
		want, err := json.Marshal(rec)
		if err != nil {
			t.Fatalf("record %d: json.Marshal: %v", i, err)
		}
		got, err := AppendRecord(nil, rec)
		if err != nil {
			t.Fatalf("record %d: AppendRecord: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("record %d: encoder mismatch\n got %s\nwant %s", i, got, want)
		}
	}
}

// TestAppendStringMatchesEncodingJSON sweeps every single-byte string plus
// multi-byte edge cases through both encoders.
func TestAppendStringMatchesEncodingJSON(t *testing.T) {
	var cases []string
	for b := 0; b < 256; b++ {
		cases = append(cases, string([]byte{byte(b)}))
	}
	cases = append(cases,
		"", "plain", "\u2028", "\u2029", "mixed\u2028tail", "\xc3\x28",
		"\xed\xa0\x80", "a\x00b", strings.Repeat("x", 1000)+"\"",
	)
	for _, s := range cases {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("json.Marshal(%q): %v", s, err)
		}
		if got := appendString(nil, s); !bytes.Equal(got, want) {
			t.Errorf("appendString(%q) = %s, want %s", s, got, want)
		}
	}
}

// TestAppendFloatRejectsNonFinite mirrors encoding/json's refusal.
func TestAppendFloatRejectsNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		rec := core.RunRecord{Benchmark: "bad", DroopMV: v, Outcome: xgene.OutcomeOK}
		if _, err := AppendRecord(nil, rec); err == nil {
			t.Errorf("AppendRecord with DroopMV=%v: want error, got nil", v)
		}
		if _, err := AppendBinaryRecord(nil, rec); err == nil {
			t.Errorf("AppendBinaryRecord with DroopMV=%v: want error, got nil", v)
		}
		if got, err := AppendRecord(nil, rec); err != nil && len(got) != 0 {
			t.Errorf("AppendRecord error left %d bytes in dst", len(got))
		}
	}
}

// TestEncodeFrame checks the pooled single-record path.
func TestEncodeFrame(t *testing.T) {
	for i, rec := range sampleRecords() {
		f, err := EncodeFrame(rec)
		if err != nil {
			t.Fatalf("record %d: EncodeFrame: %v", i, err)
		}
		want, _ := json.Marshal(rec)
		want = append(want, '\n')
		if !bytes.Equal(f.Line, want) {
			t.Errorf("record %d: frame line mismatch\n got %q\nwant %q", i, f.Line, want)
		}
		if len(f.Line) != cap(f.Line) {
			t.Errorf("record %d: frame line has %d spare capacity; must be exact-size (shared immutability)", i, cap(f.Line)-len(f.Line))
		}
	}
}

// TestEncodeFrames checks the batch path: same bytes, shared backing, and
// full capacity slicing so one frame cannot append into the next.
func TestEncodeFrames(t *testing.T) {
	recs := sampleRecords()
	frames, err := EncodeFrames(recs)
	if err != nil {
		t.Fatalf("EncodeFrames: %v", err)
	}
	if len(frames) != len(recs) {
		t.Fatalf("EncodeFrames returned %d frames for %d records", len(frames), len(recs))
	}
	for i, f := range frames {
		want, _ := json.Marshal(recs[i])
		want = append(want, '\n')
		if !bytes.Equal(f.Line, want) {
			t.Errorf("frame %d line mismatch", i)
		}
		if cap(f.Line) != len(f.Line) {
			t.Errorf("frame %d: capacity %d > length %d; appending to one line could clobber the next", i, cap(f.Line), len(f.Line))
		}
	}
	if out, err := EncodeFrames(nil); err != nil || out != nil {
		t.Errorf("EncodeFrames(nil) = %v, %v; want nil, nil", out, err)
	}
}

// TestBinaryRoundTrip pins the binary segment format: records survive the
// encode/decode round trip exactly, and the re-rendered JSONL is identical
// to what the live stream emitted.
func TestBinaryRoundTrip(t *testing.T) {
	recs := sampleRecords()
	seg := Header()
	var err error
	for _, rec := range recs {
		if seg, err = AppendBinaryRecord(seg, rec); err != nil {
			t.Fatalf("AppendBinaryRecord: %v", err)
		}
	}
	frames, err := ReadSegment(bytes.NewReader(seg))
	if err != nil {
		t.Fatalf("ReadSegment: %v", err)
	}
	if len(frames) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(frames), len(recs))
	}
	// A reader without ReadByte goes through ReadSegment's own buffer and
	// must decode the same frames.
	buffered, err := ReadSegment(iotest.OneByteReader(bytes.NewReader(seg)))
	if err != nil || !reflect.DeepEqual(buffered, frames) {
		t.Fatalf("buffered ReadSegment: err=%v, frames equal=%v", err, reflect.DeepEqual(buffered, frames))
	}
	for i, f := range frames {
		want, _ := json.Marshal(recs[i])
		want = append(want, '\n')
		if !bytes.Equal(f.Line, want) {
			t.Errorf("record %d: replayed line differs from live stream\n got %q\nwant %q", i, f.Line, want)
		}
		// Cores nil-ness must survive (it changes the JSON rendering).
		if (f.Rec.Setup.Cores == nil) != (recs[i].Setup.Cores == nil) {
			t.Errorf("record %d: Cores nil-ness not preserved", i)
		}
	}
}

// TestReadSegmentJSONL: a JSONL segment from a store that predates the
// binary-only format is not a segment. It fails at record 0 with nothing
// salvaged, which is what routes it into the store's quarantine.
func TestReadSegmentJSONL(t *testing.T) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, rec := range sampleRecords()[:3] {
		if err := enc.Encode(rec); err != nil {
			t.Fatal(err)
		}
	}
	frames, err := ReadSegment(bytes.NewReader(buf.Bytes()))
	var re *ReadError
	if !errors.As(err, &re) || re.Record != 0 || len(frames) != 0 {
		t.Fatalf("JSONL input: frames=%d err=%v, want 0 frames and a record-0 ReadError", len(frames), err)
	}
}

// TestReadSegmentSalvage pins the prefix-salvage contract for the binary
// format across damage modes.
func TestReadSegmentSalvage(t *testing.T) {
	recs := sampleRecords()[:3]
	seg := Header()
	var err error
	var bounds []int // byte offset after each record
	for _, rec := range recs {
		if seg, err = AppendBinaryRecord(seg, rec); err != nil {
			t.Fatal(err)
		}
		bounds = append(bounds, len(seg))
	}
	damage := []struct {
		name   string
		mangle func([]byte) []byte
		keep   int // records expected to survive
		rec    int // damaged record reported in ReadError (0 = header)
	}{
		{"truncated mid payload", func(b []byte) []byte { return b[:bounds[1]+5] }, 2, 3},
		{"truncated mid crc", func(b []byte) []byte { return b[:bounds[2]-2] }, 2, 3},
		{"bit flip in payload", func(b []byte) []byte {
			b = append([]byte(nil), b...)
			b[bounds[0]+8] ^= 0x40
			return b
		}, 1, 2},
		{"oversized length prefix", func(b []byte) []byte {
			out := append([]byte(nil), b[:bounds[0]]...)
			return append(out, 0xff, 0xff, 0xff, 0xff, 0x0f) // ~4 GiB length
		}, 1, 2},
		{"bad version", func(b []byte) []byte {
			b = append([]byte(nil), b...)
			b[len(magic)] = 0x7f
			return b
		}, 0, 0},
		{"short header", func(b []byte) []byte { return b[:len(magic)] }, 0, 0},
		{"unknown outcome", func(b []byte) []byte {
			// Intact framing around an outcome the JSONL decoder refuses.
			out, _ := AppendBinaryRecord(append([]byte(nil), b[:bounds[0]]...), core.RunRecord{Benchmark: "x"})
			return out
		}, 1, 2},
	}
	// Each damage is read through a bytes.Reader, decoded in place, and
	// through a reader without ReadByte, which ReadSegment buffers.
	readers := []struct {
		name string
		wrap func([]byte) io.Reader
	}{
		{"bytes", func(b []byte) io.Reader { return bytes.NewReader(b) }},
		{"buffered", func(b []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(b)) }},
	}
	for _, d := range damage {
		t.Run(d.name, func(t *testing.T) {
			for _, r := range readers {
				frames, err := ReadSegment(r.wrap(d.mangle(append([]byte(nil), seg...))))
				var re *ReadError
				if !errors.As(err, &re) {
					t.Fatalf("%s: error = %v, want *ReadError", r.name, err)
				}
				if len(frames) != d.keep {
					t.Errorf("%s: salvaged %d records, want %d", r.name, len(frames), d.keep)
				}
				if re.Record != d.rec {
					t.Errorf("%s: ReadError.Record = %d, want %d", r.name, re.Record, d.rec)
				}
				for i, f := range frames {
					want, _ := json.Marshal(recs[i])
					if !bytes.Equal(f.Line, append(want, '\n')) {
						t.Errorf("%s: salvaged record %d corrupted", r.name, i)
					}
				}
			}
		})
	}
}

// TestReadSegmentEmpty: a header-only segment is clean and empty; an
// empty input lacks even the header, so it fails at record 0.
func TestReadSegmentEmpty(t *testing.T) {
	var re *ReadError
	if frames, err := ReadSegment(bytes.NewReader(nil)); !errors.As(err, &re) || re.Record != 0 || len(frames) != 0 {
		t.Errorf("empty input: frames=%d err=%v, want 0 frames and a record-0 ReadError", len(frames), err)
	}
	if frames, err := ReadSegment(bytes.NewReader(Header())); err != nil || len(frames) != 0 {
		t.Errorf("header-only segment: frames=%d err=%v, want 0, nil", len(frames), err)
	}
}
