package core

// A Frame is a run record together with its JSON Lines encoding: the exact
// bytes a JSONL subscriber receives, newline included. The live path hands
// sinks records and line blocks (Sink.Shard), not frames; a Frame is the
// per-record view of the same bytes that benchmarks of the encoder and of
// segment reads take.
type Frame struct {
	// Rec is the decoded record.
	Rec RunRecord
	// Line is the record's JSONL encoding, "…\n".
	Line []byte
}

// Sink receives a campaign's finished runs as they are produced (the
// serial/network/cloud log channels of Fig. 2). Runs arrive one engine
// shard at a time, so a sink pays its per-delivery costs (a lock, a
// wake-up, a flush) once per shard rather than once per record.
type Sink interface {
	// Shard consumes one shard's finished runs, in order. lines holds their
	// JSONL lines back to back, one newline-terminated line per record, so
	// a sink that forwards bytes renders nothing. Both slices are the
	// caller's and valid only for the call: a sink that keeps either must
	// copy it.
	Shard(recs []RunRecord, lines []byte) error
}
