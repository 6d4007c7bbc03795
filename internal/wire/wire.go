// Package wire is the daemon's wire-format layer: an allocation-lean,
// append-style encoder for core.RunRecord that renders byte-identical
// output to encoding/json, plus the compact binary segment format
// (binary.go), the store's only on-disk record format, with a reader that
// replays a segment as the canonical JSONL stream.
//
// The encoder exists because, with simulation at ~µs per run (perfbench's
// xgene.run_us), JSONL encoding dominates a streamed campaign and
// every subscriber used to pay it independently. Encoding each record
// exactly once — into a core.Frame whose Line every NDJSON/SSE subscriber
// shares — only works if the rendered bytes are exactly
// what encoding/json would have produced; the golden and equivalence tests
// in this package pin that, field by field, including encoding/json's
// float formatting and HTML-escaping quirks. Replayed and live frames
// share one render path: ReadSegment decodes a stored segment and renders
// its lines through the same helper as EncodeFrames (one exact-size
// backing per batch), so a replayed stream is byte-identical to the live
// one and costs about what the live render did. AppendSegmentLines renders
// the same lines straight into a caller's line arena, with no frames.
package wire

import (
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/silicon"
)

// AppendRecord appends rec's JSON object encoding to dst and returns the
// extended slice. The bytes are identical to encoding/json.Marshal(rec).
// The only possible error is a non-finite float field (NaN/±Inf), which
// encoding/json rejects too; dst is returned unextended in that case.
func AppendRecord(dst []byte, rec core.RunRecord) ([]byte, error) {
	mark := len(dst)
	var err error
	dst = append(dst, `{"Benchmark":`...)
	dst = appendString(dst, rec.Benchmark)
	dst = append(dst, `,"Setup":`...)
	if dst, err = appendSetup(dst, rec.Setup); err != nil {
		return dst[:mark], err
	}
	dst = append(dst, `,"Repetition":`...)
	dst = strconv.AppendInt(dst, int64(rec.Repetition), 10)
	// Outcome marshals through its own MarshalJSON as the paper's string
	// abbreviation ("OK", "CE", …).
	dst = append(dst, `,"Outcome":`...)
	dst = appendString(dst, rec.Outcome.String())
	dst = append(dst, `,"DroopMV":`...)
	if dst, err = appendFloat(dst, rec.DroopMV); err != nil {
		return dst[:mark], err
	}
	dst = append(dst, `,"DRAMCE":`...)
	dst = strconv.AppendInt(dst, int64(rec.DRAMCE), 10)
	dst = append(dst, `,"DRAMUE":`...)
	dst = strconv.AppendInt(dst, int64(rec.DRAMUE), 10)
	dst = append(dst, `,"DRAMSDC":`...)
	dst = strconv.AppendInt(dst, int64(rec.DRAMSDC), 10)
	dst = append(dst, `,"Recovered":`...)
	dst = strconv.AppendBool(dst, rec.Recovered)
	dst = append(dst, `,"SimTime":`...)
	dst = appendBigInt(dst, int64(rec.SimTime))
	dst = append(dst, '}')
	return dst, nil
}

// AppendRecordLine appends the record's full JSONL line — AppendRecord plus
// the terminating newline, the exact bytes an NDJSON stream subscriber
// receives.
func AppendRecordLine(dst []byte, rec core.RunRecord) ([]byte, error) {
	dst, err := AppendRecord(dst, rec)
	if err != nil {
		return dst, err
	}
	return append(dst, '\n'), nil
}

// appendSetup renders core.Setup.
func appendSetup(dst []byte, s core.Setup) ([]byte, error) {
	var err error
	dst = append(dst, `{"PMDVoltage":`...)
	if dst, err = appendFloat(dst, s.PMDVoltage); err != nil {
		return dst, err
	}
	dst = append(dst, `,"SoCVoltage":`...)
	if dst, err = appendFloat(dst, s.SoCVoltage); err != nil {
		return dst, err
	}
	dst = append(dst, `,"PMDFreqHz":[`...)
	for i, f := range s.PMDFreqHz {
		if i > 0 {
			dst = append(dst, ',')
		}
		if dst, err = appendFloat(dst, f); err != nil {
			return dst, err
		}
	}
	dst = append(dst, `],"TREFP":`...)
	dst = appendBigInt(dst, int64(s.TREFP))
	dst = append(dst, `,"Cores":`...)
	if s.Cores == nil {
		dst = append(dst, `null`...)
	} else {
		dst = append(dst, '[')
		for i, id := range s.Cores {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendCoreID(dst, id)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, '}')
	return dst, nil
}

// appendCoreID renders silicon.CoreID.
func appendCoreID(dst []byte, id silicon.CoreID) []byte {
	dst = append(dst, `{"PMD":`...)
	dst = strconv.AppendInt(dst, int64(id.PMD), 10)
	dst = append(dst, `,"Core":`...)
	dst = strconv.AppendInt(dst, int64(id.Core), 10)
	return append(dst, '}')
}

// floatMemo memoizes rendered floats. Characterization records repeat the
// same handful of values endlessly — the voltage ladder, the nominal
// clocks, zero counts — so most renders are a table hit and a copy. The
// table is direct-mapped and read-mostly: entries are immutable, replaced
// wholesale via atomic pointers, and racing writers just waste a store.
// Only short renders (simple values) are adopted; measurement noise like
// DroopMV renders 17 significant digits and would otherwise churn slots it
// can never profit from.
type floatMemoEntry struct {
	bits uint64
	text []byte
}

const floatMemoMaxLen = 12

var floatMemo [256]atomic.Pointer[floatMemoEntry]

// intMemo does the same for the record's wide integers (TREFP, SimTime):
// a grid re-renders the same handful of 8-11 digit durations in every
// record. Same read-mostly scheme, keyed by the raw value, but each slot
// holds two ways, most recently stored first: the Fig. 4 grid's SimTime
// values 75e9/95e9 and 45e9/65e9 share slots and would evict each other
// from a direct-mapped table on every record.
var intMemo [256][2]atomic.Pointer[floatMemoEntry]

// appendBigInt renders v like strconv.AppendInt through the memo. Only
// used for fields whose values repeat across records but render wide;
// small counters go straight to strconv's fast path.
func appendBigInt(dst []byte, v int64) []byte {
	bits := uint64(v)
	ways := &intMemo[(bits*0x9e3779b97f4a7c15)>>56]
	for i := range ways {
		if e := ways[i].Load(); e != nil && e.bits == bits {
			return append(dst, e.text...)
		}
	}
	start := len(dst)
	dst = strconv.AppendInt(dst, v, 10)
	text := make([]byte, len(dst)-start)
	copy(text, dst[start:])
	ways[1].Store(ways[0].Load())
	ways[0].Store(&floatMemoEntry{bits: bits, text: text})
	return dst
}

// appendFloat reproduces encoding/json's float64 encoder: shortest
// round-trip formatting, fixed notation inside [1e-6, 1e21), exponent
// notation outside it with single-digit negative exponents un-padded
// ("e-07" → "e-7"). Non-finite values error, as encoding/json's do.
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, fmt.Errorf("wire: unsupported value: %v", f)
	}
	bits := math.Float64bits(f)
	slot := &floatMemo[(bits*0x9e3779b97f4a7c15)>>56]
	if e := slot.Load(); e != nil && e.bits == bits {
		return append(dst, e.text...), nil
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	start := len(dst)
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	if len(dst)-start <= floatMemoMaxLen {
		text := make([]byte, len(dst)-start)
		copy(text, dst[start:])
		slot.Store(&floatMemoEntry{bits: bits, text: text})
	}
	return dst, nil
}

const hexDigits = "0123456789abcdef"

// appendString reproduces encoding/json's string encoder with its default
// HTML escaping: printable ASCII passes through except ", \, <, > and &;
// \b, \f, \n, \r and \t use their shorthand escapes; remaining control characters
// (and <, >, &) become \u00xx; invalid UTF-8 becomes U+FFFD; and the
// JavaScript line separators U+2028/U+2029 are escaped.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// scratchPool recycles encoder scratch buffers across frames, shards and
// campaigns; each buffer grows to the process's longest line and stays
// there.
var scratchPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 512); return &b },
}

// EncodeFrame renders one record into a core.Frame whose Line is an
// exact-size immutable allocation (the shared slice every subscriber will
// hold); encoding scratch comes from a pool.
func EncodeFrame(rec core.RunRecord) (core.Frame, error) {
	frame := [1]core.Frame{{Rec: rec}}
	if _, err := renderLines(frame[:]); err != nil {
		return core.Frame{}, err
	}
	return frame[0], nil
}

// EncodeFrames renders a batch of records — a shard's worth — into frames
// backed by one shared allocation: every Line is a sub-slice of a single
// exact-size buffer, so a 100-record shard costs two allocations, not 100.
func EncodeFrames(recs []core.RunRecord) ([]core.Frame, error) {
	if len(recs) == 0 {
		return nil, nil
	}
	frames := make([]core.Frame, len(recs))
	for i, rec := range recs {
		frames[i].Rec = rec
	}
	if _, err := renderLines(frames); err != nil {
		return nil, err
	}
	return frames, nil
}

// renderLines renders each frame's Rec into its Line, the record's JSONL
// line. This is the one render path for live shards (EncodeFrames) and
// replayed segments (ReadSegment). The lines are rendered into pooled
// scratch and then copied into one exact-size backing that every Line
// sub-slices, capacity-capped so no Line can be appended into its
// neighbour. On error it returns the index of the record that failed; the
// frames before it are complete.
func renderLines(frames []core.Frame) (int, error) {
	bp := scratchPool.Get().(*[]byte)
	b := (*bp)[:0]
	var err error
	n := 0
	for ; n < len(frames); n++ {
		start := len(b)
		if b, err = AppendRecordLine(b, frames[n].Rec); err != nil {
			break
		}
		// Until the backing exists, Line only carries the line's length.
		frames[n].Line = b[start:]
	}
	backing := make([]byte, len(b))
	copy(backing, b)
	*bp = b[:0]
	scratchPool.Put(bp)
	off := 0
	for i := range frames[:n] {
		end := off + len(frames[i].Line)
		frames[i].Line = backing[off:end:end]
		off = end
	}
	return n, err
}
