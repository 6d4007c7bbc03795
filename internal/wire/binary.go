package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/silicon"
	"repro/internal/xgene"
)

// The compact binary segment format. A segment is:
//
//	magic   8 bytes  "WIRESEGM"
//	version 1 byte   0x01
//	records ...      each: uvarint payload length, payload, uint32 LE CRC-32
//
// The payload is a fixed-order field encoding of one core.RunRecord
// (varints for integers, raw IEEE-754 bits for floats, so the JSONL
// re-rendering is bit-exact). The CRC covers the payload only; the length
// prefix is implicitly checked by the CRC failing when it lies. A segment
// ends at a clean record boundary; anything else — truncation inside a
// record, a bit flip, an over-long length — surfaces as a *ReadError with
// the intact prefix, mirroring core.ParseLog's salvage contract.
//
// This is the only on-disk record format: the store writes committed
// segments and crash checkpoints in it. The live stream, the spool and batch
// logs stay JSONL, rendered from the decoded records.
//
// Compatibility rule: the version byte is bumped for any incompatible
// payload change; readers reject versions they do not know, and input that
// does not open with the magic (a JSONL segment from an older store, say)
// fails at record 0.

// magic identifies a binary segment; version is the current format.
const (
	magic   = "WIRESEGM"
	version = 0x01
)

// maxPayload bounds a record payload during decode, so a corrupt length
// prefix cannot drive allocation. Real payloads are ~100 bytes; the bound
// leaves three orders of magnitude of headroom.
const maxPayload = 1 << 20

// Header returns the binary segment header a writer must emit before the
// first record.
func Header() []byte {
	return append([]byte(magic), version)
}

// AppendBinaryRecord appends one record in binary framing (length prefix,
// payload, CRC) to dst. Errors only on non-finite floats, matching the
// JSONL encoder, so a record that can be streamed can always be persisted.
func AppendBinaryRecord(dst []byte, rec core.RunRecord) ([]byte, error) {
	for _, f := range floatFields(rec) {
		if math.IsInf(f, 0) || math.IsNaN(f) {
			return dst, fmt.Errorf("wire: unsupported value: %v", f)
		}
	}
	// The payload length is not known until it is built, so encode into
	// pooled scratch first and splice behind the varint prefix.
	bp := scratchPool.Get().(*[]byte)
	payload := appendPayload((*bp)[:0], rec)
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	dst = append(dst, payload...)
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	*bp = payload[:0]
	scratchPool.Put(bp)
	return dst, nil
}

// floatFields lists every float in the record for the finiteness check.
func floatFields(rec core.RunRecord) [3 + silicon.NumPMDs]float64 {
	out := [3 + silicon.NumPMDs]float64{rec.Setup.PMDVoltage, rec.Setup.SoCVoltage, rec.DroopMV}
	copy(out[3:], rec.Setup.PMDFreqHz[:])
	return out
}

// appendPayload encodes the record body in fixed field order.
func appendPayload(dst []byte, rec core.RunRecord) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(rec.Benchmark)))
	dst = append(dst, rec.Benchmark...)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(rec.Setup.PMDVoltage))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(rec.Setup.SoCVoltage))
	dst = binary.AppendUvarint(dst, uint64(len(rec.Setup.PMDFreqHz)))
	for _, f := range rec.Setup.PMDFreqHz {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
	}
	dst = binary.AppendVarint(dst, int64(rec.Setup.TREFP))
	// Cores: 0 is the nil sentinel (JSONL renders nil as null, a non-nil
	// empty slice as []); n+1 encodes n cores.
	if rec.Setup.Cores == nil {
		dst = binary.AppendUvarint(dst, 0)
	} else {
		dst = binary.AppendUvarint(dst, uint64(len(rec.Setup.Cores))+1)
		for _, id := range rec.Setup.Cores {
			dst = binary.AppendVarint(dst, int64(id.PMD))
			dst = binary.AppendVarint(dst, int64(id.Core))
		}
	}
	dst = binary.AppendVarint(dst, int64(rec.Repetition))
	dst = binary.AppendVarint(dst, int64(rec.Outcome))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(rec.DroopMV))
	dst = binary.AppendVarint(dst, int64(rec.DRAMCE))
	dst = binary.AppendVarint(dst, int64(rec.DRAMUE))
	dst = binary.AppendVarint(dst, int64(rec.DRAMSDC))
	if rec.Recovered {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	return binary.AppendVarint(dst, int64(rec.SimTime))
}

// payloadReader decodes payload fields with bounds checking; any overrun
// or malformed varint sets err and zero-values the remaining reads.
type payloadReader struct {
	b   []byte
	off int
	err error
}

func (p *payloadReader) uvarint() uint64 {
	if p.err != nil {
		return 0
	}
	v, n := binary.Uvarint(p.b[p.off:])
	if n <= 0 {
		p.err = errors.New("malformed uvarint")
		return 0
	}
	p.off += n
	return v
}

func (p *payloadReader) varint() int64 {
	if p.err != nil {
		return 0
	}
	v, n := binary.Varint(p.b[p.off:])
	if n <= 0 {
		p.err = errors.New("malformed varint")
		return 0
	}
	p.off += n
	return v
}

func (p *payloadReader) take(n int) []byte {
	if p.err != nil {
		return nil
	}
	if n < 0 || p.off+n > len(p.b) {
		p.err = errors.New("payload truncated")
		return nil
	}
	out := p.b[p.off : p.off+n]
	p.off += n
	return out
}

func (p *payloadReader) float() float64 {
	b := p.take(8)
	if p.err != nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// decodePayload rebuilds a RunRecord from a binary payload. Strict: every
// byte must be consumed, field counts must match the compiled-in geometry.
func decodePayload(b []byte) (core.RunRecord, error) {
	var rec core.RunRecord
	p := &payloadReader{b: b}
	nameLen := p.uvarint()
	if p.err == nil && nameLen > uint64(len(b)) {
		p.err = errors.New("benchmark name overruns payload")
	}
	rec.Benchmark = string(p.take(int(nameLen)))
	rec.Setup.PMDVoltage = p.float()
	rec.Setup.SoCVoltage = p.float()
	if n := p.uvarint(); p.err == nil && n != uint64(len(rec.Setup.PMDFreqHz)) {
		p.err = fmt.Errorf("PMD clock count %d, want %d", n, len(rec.Setup.PMDFreqHz))
	}
	for i := range rec.Setup.PMDFreqHz {
		rec.Setup.PMDFreqHz[i] = p.float()
	}
	rec.Setup.TREFP = time.Duration(p.varint())
	coresPlus1 := p.uvarint()
	if coresPlus1 > 0 {
		n := coresPlus1 - 1
		if p.err == nil && n > uint64(len(b)) {
			p.err = errors.New("core list overruns payload")
		}
		if p.err == nil {
			rec.Setup.Cores = make([]silicon.CoreID, n)
			for i := range rec.Setup.Cores {
				rec.Setup.Cores[i].PMD = int(p.varint())
				rec.Setup.Cores[i].Core = int(p.varint())
			}
		}
	}
	rec.Repetition = int(p.varint())
	rec.Outcome = xgene.Outcome(p.varint())
	// Refuse what the JSONL decoder refuses, so every replayed line parses.
	if _, err := xgene.ParseOutcome(rec.Outcome.String()); p.err == nil && err != nil {
		p.err = err
	}
	rec.DroopMV = p.float()
	rec.DRAMCE = int(p.varint())
	rec.DRAMUE = int(p.varint())
	rec.DRAMSDC = int(p.varint())
	if flag := p.take(1); p.err == nil {
		rec.Recovered = flag[0] != 0
	}
	rec.SimTime = time.Duration(p.varint())
	if p.err != nil {
		return core.RunRecord{}, p.err
	}
	if p.off != len(b) {
		return core.RunRecord{}, fmt.Errorf("%d trailing payload bytes", len(b)-p.off)
	}
	return rec, nil
}

// ReadError is ReadSegment's failure report, mirroring core.LogError's
// prefix-salvage contract: Record is the 1-based index of the first
// damaged record (0 for a bad header), the frames decoded before it are
// returned alongside the error, and nothing beyond the damage is ever
// returned.
type ReadError struct {
	// Record is the 1-based index of the damage; 0 is the header.
	Record int
	// Err is the underlying decode, CRC or read error.
	Err error
}

func (e *ReadError) Error() string {
	return fmt.Sprintf("wire: segment record %d: %v", e.Record, e.Err)
}

func (e *ReadError) Unwrap() error { return e.Err }

// byteReader is what ReadSegment decodes from: the length prefixes are
// uvarints read a byte at a time.
type byteReader interface {
	io.Reader
	io.ByteReader
}

// ReadSegment reads a stored binary segment back into frames: each frame
// carries the decoded record and its canonical JSONL line, so replaying a
// segment to a subscriber is byte-identical to the live stream that
// produced it.
//
// Salvage contract (same as core.ParseLog): on damage, the frames decoded
// before the damage are returned together with a *ReadError locating it —
// never a nil slice alongside frames, never frames from beyond the damage.
//
// A reader that already reads single bytes (a *bytes.Reader over a whole
// file, a *bufio.Reader) is decoded as is; any other is buffered.
func ReadSegment(r io.Reader) ([]core.Frame, error) {
	br, ok := r.(byteReader)
	if !ok {
		br = bufio.NewReaderSize(r, 64*1024)
	}
	hdr := make([]byte, len(magic)+1)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, &ReadError{Record: 0, Err: fmt.Errorf("short header: %w", err)}
	}
	if !bytes.Equal(hdr[:len(magic)], []byte(magic)) {
		return nil, &ReadError{Record: 0, Err: errors.New("not a binary segment")}
	}
	if hdr[len(magic)] != version {
		return nil, &ReadError{Record: 0, Err: fmt.Errorf("unsupported segment version %d", hdr[len(magic)])}
	}
	var frames []core.Frame
	var payload []byte
	for n := 1; ; n++ {
		plen, err := binary.ReadUvarint(br)
		if err == io.EOF {
			return frames, nil // clean end at a record boundary
		}
		if err != nil {
			return frames, &ReadError{Record: n, Err: fmt.Errorf("length prefix: %w", err)}
		}
		if plen > maxPayload {
			return frames, &ReadError{Record: n, Err: fmt.Errorf("payload length %d exceeds limit", plen)}
		}
		if uint64(cap(payload)) < plen {
			payload = make([]byte, plen)
		}
		payload = payload[:plen]
		if _, err := io.ReadFull(br, payload); err != nil {
			return frames, &ReadError{Record: n, Err: fmt.Errorf("payload: %w", err)}
		}
		var crcBuf [4]byte
		if _, err := io.ReadFull(br, crcBuf[:]); err != nil {
			return frames, &ReadError{Record: n, Err: fmt.Errorf("crc: %w", err)}
		}
		if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(crcBuf[:]); got != want {
			return frames, &ReadError{Record: n, Err: fmt.Errorf("crc mismatch: computed %08x, stored %08x", got, want)}
		}
		rec, err := decodePayload(payload)
		if err != nil {
			return frames, &ReadError{Record: n, Err: err}
		}
		line, err := AppendRecordLine(nil, rec)
		if err != nil {
			return frames, &ReadError{Record: n, Err: err}
		}
		frames = append(frames, core.Frame{Rec: rec, Line: line})
	}
}
