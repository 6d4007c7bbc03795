package wire_test

// Encoder-only benchmarks, isolated from the campaign engine: the encode
// cost a committed shard pays once, regardless of subscriber count. On a
// shared 1-CPU runner the end-to-end stream benchmarks in the repo root
// swing ±10% run to run; these pin the encode term directly.

import (
	"bytes"
	"testing"

	"repro/internal/wire"
)

// BenchmarkAppendLines renders the full 100-record Fig. 4 grid into one
// reused line block — the exact work the campaign streamer adds per grid
// on top of the ordering buffer when a sink subscribes (it renders into a
// pooled buffer, one block per shard).
func BenchmarkAppendLines(b *testing.B) {
	recs, err := fig4Records()
	if err != nil {
		b.Fatal(err)
	}
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if buf, err = wire.AppendLines(buf[:0], recs); err != nil {
			b.Fatal(err)
		}
	}
	if n := bytes.Count(buf, []byte{'\n'}); n != len(recs) {
		b.Fatalf("rendered %d lines, want %d", n, len(recs))
	}
}

// BenchmarkAppendBinaryRecord renders the same grid into a binary segment
// body, for comparison with the JSONL encoder above.
func BenchmarkAppendBinaryRecord(b *testing.B) {
	recs, err := fig4Records()
	if err != nil {
		b.Fatal(err)
	}
	buf := wire.Header()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = buf[:len(wire.Header())]
		for _, rec := range recs {
			if buf, err = wire.AppendBinaryRecord(buf, rec); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkReadSegment reads the Fig. 4 grid's records back from its
// binary segment: decode and CRC checks, as a crash checkpoint is read.
// The segment is handed over as a *bytes.Buffer, the way the store passes
// a whole segment file.
func BenchmarkReadSegment(b *testing.B) {
	seg := fig4Segment(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(seg)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recs, err := wire.ReadSegment(bytes.NewBuffer(seg))
		if err != nil {
			b.Fatal(err)
		}
		if len(recs) != 100 {
			b.Fatalf("read %d records, want 100", len(recs))
		}
	}
}

// BenchmarkHydrateFig4 hydrates the same segment the way a daemon's
// campaign replays it: straight into an empty line arena, keeping no
// records.
func BenchmarkHydrateFig4(b *testing.B) {
	seg := fig4Segment(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(seg)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, ends, err := wire.AppendSegmentLines(nil, nil, bytes.NewBuffer(seg))
		if err != nil {
			b.Fatal(err)
		}
		if len(ends) != 100 {
			b.Fatalf("read %d lines, want 100", len(ends))
		}
	}
}
