package wire

import (
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
// record, a bit flip, an over-long length — surfaces as a *ReadError
// returned with the intact prefix (ReadSegment's salvage contract).
//
// This is the only on-disk record format: the store writes committed
// segments and crash checkpoints in it. The live stream and batch logs stay
// JSONL, rendered from the decoded records.
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

// MaxRecords is the most records one segment may hold. Admission refuses
// a campaign that plans more, and a peer that advertises more is refused
// before its body is read.
const MaxRecords = 1 << 18

// MaxSegmentSize is the most bytes a well-formed segment of n records can
// take: the header, then n records of at most maxPayload bytes, each behind
// its length prefix and ahead of its CRC. A reader of a stream that
// advertises its record count bounds the stream by it, so a misbehaving
// sender cannot make its reader hold more.
func MaxSegmentSize(n int) int64 {
	const head = int64(len(magic) + 1)
	const perRecord = binary.MaxVarintLen64 + maxPayload + 4
	if n <= 0 {
		return head
	}
	if int64(n) > (math.MaxInt64-head)/perRecord {
		return math.MaxInt64
	}
	return head + int64(n)*perRecord
}

// Header returns the binary segment header a writer must emit before the
// first record.
func Header() []byte {
	return append([]byte(magic), version)
}

// AppendBinaryRecord appends one record in binary framing (length prefix,
// payload, CRC) to dst. Errors only on non-finite floats, matching the
// JSONL encoder, so a record that can be streamed can always be persisted.
func AppendBinaryRecord(dst []byte, rec core.RunRecord) ([]byte, error) {
	if err := checkFinite(rec); err != nil {
		return dst, err
	}
	// The payload length is not known until it is built, so encode into
	// pooled scratch first and splice behind the varint prefix.
	bp := GetScratch()
	*bp = appendPayload(*bp, rec)
	dst = binary.AppendUvarint(dst, uint64(len(*bp)))
	dst = append(dst, *bp...)
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(*bp))
	PutScratch(bp)
	return dst, nil
}

// checkFinite refuses a record the JSONL encoder cannot render: one with a
// non-finite float.
func checkFinite(rec core.RunRecord) error {
	floats := [3 + silicon.NumPMDs]float64{rec.Setup.PMDVoltage, rec.Setup.SoCVoltage, rec.DroopMV}
	copy(floats[3:], rec.Setup.PMDFreqHz[:])
	for _, f := range floats {
		if math.IsInf(f, 0) || math.IsNaN(f) {
			return fmt.Errorf("wire: unsupported value: %v", f)
		}
	}
	return nil
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

// recordDecoder decodes payloads in segment order. A grid segment repeats
// its benchmark name and core placement record after record, so a field
// whose payload bytes equal the previous record's reuses that record's
// string or slice instead of allocating its own.
type recordDecoder struct {
	name     string
	cores    []silicon.CoreID
	coresRaw []byte // the previous record's encoded core list, count included
}

// decode rebuilds a RunRecord from a binary payload into rec. Strict: every
// byte must be consumed, field counts must match the compiled-in geometry.
// It reads b in place and keeps no reference to it past the next call.
func (d *recordDecoder) decode(b []byte, rec *core.RunRecord) error {
	p := &payloadReader{b: b}
	nameLen := p.uvarint()
	if p.err == nil && nameLen > uint64(len(b)) {
		p.err = errors.New("benchmark name overruns payload")
	}
	if name := p.take(int(nameLen)); string(name) != d.name {
		d.name = string(name)
	}
	rec.Benchmark = d.name
	rec.Setup.PMDVoltage = p.float()
	rec.Setup.SoCVoltage = p.float()
	if n := p.uvarint(); p.err == nil && n != uint64(len(rec.Setup.PMDFreqHz)) {
		p.err = fmt.Errorf("PMD clock count %d, want %d", n, len(rec.Setup.PMDFreqHz))
	}
	for i := range rec.Setup.PMDFreqHz {
		rec.Setup.PMDFreqHz[i] = p.float()
	}
	rec.Setup.TREFP = time.Duration(p.varint())
	// Cores: 0 is the nil sentinel, n+1 encodes n cores.
	coresStart := p.off
	if coresPlus1 := p.uvarint(); coresPlus1 > 0 {
		n := coresPlus1 - 1
		if p.err == nil && n > uint64(len(b)) {
			p.err = errors.New("core list overruns payload")
		}
		for i := uint64(0); i < 2*n && p.err == nil; i++ {
			p.varint()
		}
		if raw := b[coresStart:p.off]; p.err == nil && !bytes.Equal(raw, d.coresRaw) {
			q := &payloadReader{b: raw}
			q.uvarint()
			d.cores = make([]silicon.CoreID, n)
			for i := range d.cores {
				d.cores[i].PMD = int(q.varint())
				d.cores[i].Core = int(q.varint())
			}
			d.coresRaw = raw
		}
		rec.Setup.Cores = d.cores
	} else {
		rec.Setup.Cores = nil
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
		return p.err
	}
	if p.off != len(b) {
		return fmt.Errorf("%d trailing payload bytes", len(b)-p.off)
	}
	return nil
}

// ReadError is a segment reader's failure report: Record is the 1-based
// index of the first damaged record (0 for a bad header), the records
// decoded before it are returned alongside the error, and nothing beyond
// the damage is ever returned.
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

// ReadSegment reads a stored binary segment back into its records, in
// order, into one slice allocated at its final size. It renders no lines:
// AppendLines of the records gives exactly the lines AppendSegmentLines
// replays. A record with a non-finite float, which the JSONL encoder
// refuses, is damage like a bad CRC, so every record returned can be
// streamed.
//
// Salvage contract: on damage, the records decoded before the damage are
// returned together with a *ReadError locating it, and no record from
// beyond the damage is ever returned. Crash recovery relies on this to
// keep every record a truncated segment still holds intact.
//
// The input is decoded from one byte slice. A *bytes.Buffer's unread bytes
// are decoded in place (the store hands whole segment files over this
// way); any other reader is read to its end first, and a read error is
// reported as damage where the bytes run out. A caller reading an
// untrusted stream bounds it first (MaxSegmentSize).
func ReadSegment(r io.Reader) ([]core.RunRecord, error) {
	body, damage, readErr := segmentBody(r)
	if damage != nil {
		return nil, damage
	}
	recs := make([]core.RunRecord, 0, countRecords(body))
	damage = walkRecords(body, readErr, func(rec core.RunRecord) { recs = append(recs, rec) })
	if damage != nil {
		return recs, damage
	}
	return recs, nil
}

// AppendSegmentLines reads a binary segment like ReadSegment, but keeps no
// records: it appends each record's canonical JSONL line to lines, back to
// back, and the offset in lines where that line ends to ends. lines grows
// at most once, to exactly its final length, and ends at most once, to the
// segment's intact record count; the lines render into pooled scratch
// first. Salvage contract as ReadSegment: on damage, the lines of the
// records before it are appended and a *ReadError locates it.
func AppendSegmentLines(lines []byte, ends []int, r io.Reader) ([]byte, []int, error) {
	body, damage, readErr := segmentBody(r)
	if damage != nil {
		return lines, ends, damage
	}
	ends = growExact(ends, countRecords(body))
	bp := GetScratch()
	base := len(lines)
	damage = walkRecords(body, readErr, func(rec core.RunRecord) {
		// walkRecords refused non-finite floats, AppendRecordLine's only error.
		*bp, _ = AppendRecordLine(*bp, rec)
		ends = append(ends, base+len(*bp))
	})
	lines = append(growExact(lines, len(*bp)), *bp...)
	PutScratch(bp)
	if damage != nil {
		return lines, ends, damage
	}
	return lines, ends, nil
}

// SegmentRecords checks a segment held in memory as ReadSegment reads it
// (header, framing, CRCs, payload decode, renderable floats) and counts
// its records without keeping them. It fails exactly where ReadSegment
// would, returning the intact prefix's count with the *ReadError.
func SegmentRecords(seg []byte) (int, error) {
	body, damage, _ := segmentBody(bytes.NewBuffer(seg))
	n := 0
	if damage == nil {
		damage = walkRecords(body, nil, func(core.RunRecord) { n++ })
	}
	if damage != nil {
		return max(damage.Record-1, 0), damage
	}
	return n, nil
}

// growExact returns s with room for n more elements, reallocated to exactly
// len(s)+n when it lacks the room.
func growExact[T any](s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	return append(make([]T, 0, len(s)+n), s...)
}

// segmentBody reads r to one slice (a *bytes.Buffer's unread bytes in
// place) and checks the header. It returns the records after the header
// and the error that ended the read early, or a record-0 *ReadError.
func segmentBody(r io.Reader) ([]byte, *ReadError, error) {
	var data []byte
	var readErr error
	if b, ok := r.(*bytes.Buffer); ok {
		data = b.Next(b.Len())
	} else {
		data, readErr = io.ReadAll(r)
	}
	if len(data) < len(magic)+1 {
		return nil, &ReadError{Record: 0, Err: fmt.Errorf("short header: %w", truncated(readErr))}, nil
	}
	if string(data[:len(magic)]) != magic {
		return nil, &ReadError{Record: 0, Err: errors.New("not a binary segment")}, nil
	}
	if data[len(magic)] != version {
		return nil, &ReadError{Record: 0, Err: fmt.Errorf("unsupported segment version %d", data[len(magic)])}, nil
	}
	return data[len(magic)+1:], nil, readErr
}

// truncated is the error for input that ends inside a header or record:
// the read error that ended it, else io.ErrUnexpectedEOF.
func truncated(readErr error) error {
	if readErr != nil {
		return readErr
	}
	return io.ErrUnexpectedEOF
}

// walkRecords checks the framing and CRC of each record in body, the
// records after the header, decodes it, refuses it if the JSONL encoder
// would (checkFinite), and hands it to emit, in order. It stops at the
// first damaged record and reports it; readErr, the error that ended the
// input early, is the damage at whatever record the bytes run out in.
func walkRecords(body []byte, readErr error, emit func(core.RunRecord)) *ReadError {
	var d recordDecoder
	var rec core.RunRecord
	for off, n := 0, 1; ; n++ {
		if off == len(body) {
			if readErr != nil {
				return &ReadError{Record: n, Err: fmt.Errorf("length prefix: %w", readErr)}
			}
			return nil // clean end at a record boundary
		}
		plen, k := binary.Uvarint(body[off:])
		if k == 0 {
			return &ReadError{Record: n, Err: fmt.Errorf("length prefix: %w", truncated(readErr))}
		}
		if k < 0 {
			return &ReadError{Record: n, Err: errors.New("length prefix: varint overflows a 64-bit integer")}
		}
		if plen > maxPayload {
			return &ReadError{Record: n, Err: fmt.Errorf("payload length %d exceeds limit", plen)}
		}
		off += k
		if uint64(len(body)-off) < plen {
			return &ReadError{Record: n, Err: fmt.Errorf("payload: %w", truncated(readErr))}
		}
		payload := body[off : off+int(plen)]
		off += int(plen)
		if len(body)-off < 4 {
			return &ReadError{Record: n, Err: fmt.Errorf("crc: %w", truncated(readErr))}
		}
		if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(body[off:]); got != want {
			return &ReadError{Record: n, Err: fmt.Errorf("crc mismatch: computed %08x, stored %08x", got, want)}
		}
		off += 4
		if err := d.decode(payload, &rec); err != nil {
			return &ReadError{Record: n, Err: err}
		}
		if err := checkFinite(rec); err != nil {
			return &ReadError{Record: n, Err: err}
		}
		emit(rec)
	}
}

// countRecords counts the records in body whose framing is intact (a
// length prefix within the limit, then that many payload bytes and a CRC),
// stopping where the framing breaks, so that a reader sizes its output
// once.
func countRecords(body []byte) int {
	n := 0
	for off := 0; off < len(body); n++ {
		plen, k := binary.Uvarint(body[off:])
		if k <= 0 || plen > maxPayload || uint64(len(body)-off-k) < plen+4 {
			break
		}
		off += k + int(plen) + 4
	}
	return n
}
