package core

// A Frame is a run record together with its pre-rendered JSON Lines
// encoding: the exact bytes a JSONL subscriber receives, newline included.
// Frames exist so the daemon encodes each record exactly once — at commit
// into the engine's ordering buffer — and every NDJSON/SSE subscriber and
// the durable-store segment writer share the same immutable byte slice
// instead of re-encoding the record independently.
//
// Line is shared: receivers must treat it as read-only and must not retain
// a mutated copy. It always renders the same bytes encoding/json would
// produce for Rec (plus the trailing newline); internal/wire pins that
// equivalence, which is what keeps the encode-once stream byte-identical
// to encoding each record with encoding/json.
type Frame struct {
	// Rec is the decoded record, for consumers that aggregate rather than
	// forward bytes.
	Rec RunRecord
	// Line is the record's JSONL encoding, "…\n", immutable and shared.
	Line []byte
}

// Sink receives a campaign's finished runs as they are produced (the
// serial/network/cloud log channels of Fig. 2). Frames arrive in batches —
// the campaign engine hands over each completed shard's records as one
// batch — so a sink pays its per-delivery costs (a lock, a wake-up, a
// flush) once per batch rather than once per record.
type Sink interface {
	// Frames consumes a batch of finished runs, in order, with their shared
	// pre-rendered lines. The slice is the caller's: a sink may keep the
	// frames but must not retain or modify the slice itself.
	Frames(batch []Frame) error
}
