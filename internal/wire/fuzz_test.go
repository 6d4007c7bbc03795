package wire_test

// FuzzWireReader throws arbitrary bytes at the segment readers. The
// invariants, regardless of input: never panic, never return an error
// other than *wire.ReadError, and locate the damage exactly one past the
// salvaged prefix of records (or at record 0 for a bad header, with
// nothing salvaged). Input without the magic, JSONL included, must fail at
// record 0. AppendSegmentLines, the read a daemon hydrates with, must
// append exactly the salvaged records' lines onto an existing arena and
// locate the same damage, and every line it appends must be a
// newline-terminated valid-JSON line with no embedded newline that parses
// back. SegmentRecords, the walk that keeps nothing, must count the
// salvaged records and fail exactly when and where the read does.
// Damage seeds (truncations, bit flips, lying length prefixes) live in the
// in-code corpus below and in committed files under
// testdata/fuzz/FuzzWireReader.
//
// CI runs this as a smoke pass (corpus only, via `go test`); run it as a
// real fuzzer with:
//
//	go test ./internal/wire/ -fuzz FuzzWireReader -fuzztime 30s

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/silicon"
	"repro/internal/wire"
	"repro/internal/xgene"
)

// fuzzSegment builds a valid 3-record binary segment to seed from.
func fuzzSegment(tb testing.TB) []byte {
	tb.Helper()
	recs := []core.RunRecord{
		{Benchmark: "mcf", Outcome: xgene.OutcomeOK, DroopMV: 12.5, SimTime: time.Second},
		{
			Benchmark: "lbm\"<&>\n",
			Setup: core.Setup{
				PMDVoltage: 0.94,
				SoCVoltage: 0.95,
				TREFP:      64 * time.Millisecond,
				Cores:      []silicon.CoreID{{PMD: 3, Core: 1}},
			},
			Repetition: 7,
			Outcome:    xgene.OutcomeSDC,
			DroopMV:    38.25,
			DRAMSDC:    2,
			Recovered:  true,
			SimTime:    70 * time.Second,
		},
		{Benchmark: "povray", Outcome: xgene.OutcomeHang, DroopMV: 1e-7, SimTime: -1},
	}
	seg := wire.Header()
	for _, rec := range recs {
		var err error
		if seg, err = wire.AppendBinaryRecord(seg, rec); err != nil {
			tb.Fatal(err)
		}
	}
	return seg
}

// nanSegment returns seg with record 2's DroopMV (38.25) replaced by a
// NaN under a CRC that matches: intact framing that only the JSONL render
// refuses.
func nanSegment(seg []byte) []byte {
	out := bytes.Clone(seg)
	at := bytes.Index(out, binary.LittleEndian.AppendUint64(nil, math.Float64bits(38.25)))
	binary.LittleEndian.PutUint64(out[at:], math.Float64bits(math.NaN()))
	for off := len(wire.Header()); ; {
		plen, k := binary.Uvarint(out[off:])
		start, end := off+k, off+k+int(plen)
		if at < end {
			binary.LittleEndian.PutUint32(out[end:], crc32.ChecksumIEEE(out[start:end]))
			return out
		}
		off = end + 4
	}
}

func FuzzWireReader(f *testing.F) {
	seg := fuzzSegment(f)
	f.Add(seg)              // clean segment
	f.Add(seg[:len(seg)-3]) // truncated mid-CRC
	f.Add(seg[:len(seg)/2]) // truncated mid-payload
	f.Add(wire.Header())    // header only
	f.Add(seg[:4])          // shorter than the magic
	f.Add([]byte{})         // empty
	// JSONL from an older store and plain junk: both must fail at record 0.
	f.Add([]byte(`{"Benchmark":"mcf","Setup":{"PMDVoltage":0,"SoCVoltage":0,"PMDFreqHz":[0,0,0,0],"TREFP":0,"Cores":null},"Repetition":0,"Outcome":"OK","DroopMV":0,"DRAMCE":0,"DRAMUE":0,"DRAMSDC":0,"Recovered":false,"SimTime":0}` + "\n"))
	f.Add([]byte("not json at all\n"))
	flipped := append([]byte(nil), seg...)
	flipped[len(wire.Header())+6] ^= 0x40 // bit flip inside record 1's payload
	f.Add(flipped)
	badVer := append([]byte(nil), seg...)
	badVer[8] = 0x7f
	f.Add(badVer)
	lying := append(wire.Header(), 0xff, 0xff, 0xff, 0xff, 0x0f) // 4 GiB length prefix
	f.Add(lying)
	f.Add(nanSegment(seg)) // record 2 framed intact, but not renderable

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := wire.ReadSegment(bytes.NewReader(data))
		if err != nil {
			var re *wire.ReadError
			if !errors.As(err, &re) {
				t.Fatalf("non-ReadError failure: %v", err)
			}
			// Every record before the damage is returned, so the damage
			// index is exactly one past the salvaged prefix; 0 means the
			// header itself was bad and nothing was salvaged.
			if (re.Record == 0 && len(recs) != 0) || (re.Record != 0 && re.Record != len(recs)+1) {
				t.Fatalf("damage at record %d with %d salvaged records", re.Record, len(recs))
			}
		}
		if !bytes.HasPrefix(data, wire.Header()[:8]) && (err == nil || len(recs) != 0) {
			t.Fatalf("input without the magic: records=%d err=%v, want a record-0 failure", len(recs), err)
		}
		// SegmentRecords, the walk a segment passed on verbatim is checked
		// with, counts ReadSegment's records and fails exactly when and
		// where it does.
		n, werr := wire.SegmentRecords(data)
		var wre, fre *wire.ReadError
		if (werr == nil) != (err == nil) || n != len(recs) ||
			(err != nil && (!errors.As(werr, &wre) || !errors.As(err, &fre) || wre.Record != fre.Record)) {
			t.Fatalf("SegmentRecords = %d, %v; ReadSegment = %d records, %v", n, werr, len(recs), err)
		}
		prefix, prefixEnds := []byte("{}\n"), []int{3}
		lines, ends, lerr := wire.AppendSegmentLines(bytes.Clone(prefix), []int{3}, bytes.NewReader(data))
		checkSameRead(t, prefix, prefixEnds, lines, ends, lerr, recs, err)
		for i := range recs {
			line := lines[ends[i]:ends[i+1]]
			if len(line) == 0 || line[len(line)-1] != '\n' {
				t.Fatalf("line %d not newline-terminated: %q", i, line)
			}
			if bytes.ContainsRune(line[:len(line)-1], '\n') {
				t.Fatalf("line %d embeds a newline: %q", i, line)
			}
			var rec core.RunRecord
			if perr := json.Unmarshal(line, &rec); perr != nil {
				t.Fatalf("line %d does not parse back: %v", i, perr)
			}
		}
	})
}
