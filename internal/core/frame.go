package core

// A Frame is a run record together with its pre-rendered JSON Lines
// encoding: the exact bytes a JSONL subscriber receives, newline included.
// Frames exist so the daemon's fan-out encodes each record exactly once —
// at commit into the engine's ordering buffer — and every NDJSON/SSE
// subscriber, spool file and durable-store segment writer shares the same
// immutable byte slice instead of re-encoding the record independently.
//
// Line is shared: receivers must treat it as read-only and must not retain
// a mutated copy. It always renders the same bytes encoding/json would
// produce for Rec (plus the trailing newline); internal/wire pins that
// equivalence, which is what keeps the encode-once stream byte-identical
// to the legacy per-subscriber path.
type Frame struct {
	// Rec is the decoded record, for consumers that aggregate rather than
	// forward bytes.
	Rec RunRecord
	// Line is the record's JSONL encoding, "…\n", immutable and shared.
	Line []byte
}

// FrameSink is the encoded-frame fast path alongside Sink: sinks that can
// consume pre-rendered bytes implement it, and fan-out points deliver
// shared frames instead of bare records. Frames arrive in batches — the
// campaign engine hands over each completed shard's records as one batch —
// so a sink pays its per-delivery costs (a lock, a wake-up, a flush) once
// per batch rather than once per record. A sink may implement both; use
// EmitFrames to dispatch on capability.
type FrameSink interface {
	// Frames consumes a batch of finished runs, in order, with their shared
	// pre-rendered lines. The slice is the caller's: a sink may keep the
	// frames but must not retain or modify the slice itself.
	Frames(batch []Frame) error
}

// EmitFrames delivers a batch to a sink through its fastest supported
// path: the shared pre-rendered lines when the sink implements FrameSink,
// the decoded records one by one otherwise. This is the single dispatch
// point that lets frame-producing fan-outs keep feeding legacy Sink
// implementations.
func EmitFrames(s Sink, batch []Frame) error {
	if fs, ok := s.(FrameSink); ok {
		return fs.Frames(batch)
	}
	for _, f := range batch {
		if err := s.Record(f.Rec); err != nil {
			return err
		}
	}
	return nil
}
