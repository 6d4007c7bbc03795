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
// network channel of Fig. 2). It writes each frame's shared pre-rendered
// line as-is, paying no encoding cost of its own.
type JSONLSink struct {
	w io.Writer
}

// NewJSONLSink wraps a writer.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{w: w}
}

// Frames implements Sink.
func (s *JSONLSink) Frames(batch []Frame) error {
	for _, f := range batch {
		if _, err := s.w.Write(f.Line); err != nil {
			return fmt.Errorf("core: write run record: %w", err)
		}
	}
	return nil
}

var _ Sink = (*JSONLSink)(nil)
