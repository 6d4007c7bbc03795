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

// BenchmarkEncodeFrames renders the full 100-record Fig. 4 grid into
// shared frames — the exact work the campaign streamer adds per grid on
// top of the ordering buffer when a sink subscribes.
func BenchmarkEncodeFrames(b *testing.B) {
	recs, err := fig4Records()
	if err != nil {
		b.Fatal(err)
	}
	var total int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frames, err := wire.EncodeFrames(recs)
		if err != nil {
			b.Fatal(err)
		}
		total += int64(len(frames))
	}
	if total != int64(b.N)*int64(len(recs)) {
		b.Fatalf("encoded %d frames, want %d", total, int64(b.N)*int64(len(recs)))
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

// BenchmarkReadSegment hydrates the Fig. 4 grid from its binary segment:
// decode, CRC checks and the JSONL re-render a store replay pays per
// submission before the first byte streams. The segment is handed over as
// a *bytes.Buffer, the way the store passes a whole segment file.
func BenchmarkReadSegment(b *testing.B) {
	seg := fig4Segment(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(seg)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frames, err := wire.ReadSegment(bytes.NewBuffer(seg))
		if err != nil {
			b.Fatal(err)
		}
		if len(frames) != 100 {
			b.Fatalf("read %d frames, want 100", len(frames))
		}
	}
}
