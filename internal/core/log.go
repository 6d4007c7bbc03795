package core

import (
	"fmt"
	"io"
)

// The execution phase of the paper's framework streams every run's raw log
// over serial/network to local and cloud storage; the parsing phase later
// reads those logs back and classifies them. This file implements the
// execution half: RunRecords serialize to JSON Lines through a JSONLSink
// fed by the campaign engine; each line decodes back into a RunRecord with
// encoding/json.

// JSONLSink streams runs as JSON Lines to a writer (a batch log, or the
// network channel of Fig. 2). It writes each shard's rendered lines as-is,
// in one Write, paying no encoding cost of its own.
type JSONLSink struct {
	w io.Writer
}

// NewJSONLSink wraps a writer.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{w: w}
}

// Shard implements Sink.
func (s *JSONLSink) Shard(_ []RunRecord, lines []byte) error {
	if _, err := s.w.Write(lines); err != nil {
		return fmt.Errorf("core: write run records: %w", err)
	}
	return nil
}

var _ Sink = (*JSONLSink)(nil)
