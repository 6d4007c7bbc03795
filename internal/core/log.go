package core

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// The execution phase of the paper's framework streams every run's raw log
// over serial/network to local and cloud storage; the parsing phase later
// reads those logs back and classifies them. This file implements that
// round trip: RunRecords serialize to JSON Lines through a JSONLSink fed
// by the campaign engine, and ParseLog re-materializes them for Summarize.

// JSONLSink streams runs as JSON Lines to a writer (the spool file or
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

// LogError is ParseLog's failure report: the 1-based line number of the
// first line that failed to parse, with the underlying cause. Records on
// the lines before it were parsed successfully and are returned alongside
// the error, so callers recovering a truncated or corrupted spool (a
// crashed writer rarely damages more than the final line) can salvage the
// intact prefix instead of discarding the whole log.
type LogError struct {
	// Line is the 1-based number of the line that failed to parse.
	Line int
	// Err is the underlying JSON or read error.
	Err error
}

func (e *LogError) Error() string {
	return fmt.Sprintf("core: parse log line %d: %v", e.Line, e.Err)
}

func (e *LogError) Unwrap() error { return e.Err }

// ParseLog reads a JSON Lines spool back into run records — the input of
// the parsing phase. Blank lines are skipped.
//
// Prefix-salvage contract: on a malformed line the records parsed before
// it are returned together with a *LogError carrying the line number —
// never a nil slice and never records from beyond the damage. Durable-
// store recovery leans on this to detect exactly where a crash truncated
// a spool; plain callers can keep treating any non-nil error as fatal.
func ParseLog(r io.Reader) ([]RunRecord, error) {
	var out []RunRecord
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec RunRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return out, &LogError{Line: lineNo, Err: err}
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		// A read failure (or an over-long line) damages the stream at the
		// line after the last one scanned cleanly; salvage applies the
		// same way.
		return out, &LogError{Line: lineNo + 1, Err: err}
	}
	return out, nil
}
