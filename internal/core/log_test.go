package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/silicon"
	"repro/internal/workloads"
	"repro/internal/xgene"
)

func TestJSONLSinkRoundTrip(t *testing.T) {
	fw, _ := newFramework(t, silicon.TTT, 1)

	var live []RunRecord
	fw.AppendTo(&live)
	p, _ := workloads.ByName("milc")
	setup := NominalSetup(silicon.AllCores()...)
	for rep := 0; rep < 3; rep++ {
		if _, err := fw.ExecuteRun(p, setup, rep, uint64(rep)); err != nil {
			t.Fatal(err)
		}
	}
	// Also a failing run to exercise non-OK outcomes in the log.
	deep := setup
	deep.PMDVoltage = 0.800
	if _, err := fw.ExecuteRun(p, deep, 0, 99); err != nil {
		t.Fatal(err)
	}

	// The spool is what encoding/json writes per record: the bytes every
	// JSONL sink carries (internal/wire pins its frames against it).
	var spool bytes.Buffer
	enc := json.NewEncoder(&spool)
	for _, rec := range live {
		if err := enc.Encode(rec); err != nil {
			t.Fatal(err)
		}
	}
	var parsed []RunRecord
	for _, line := range bytes.Split(bytes.TrimSuffix(spool.Bytes(), []byte("\n")), []byte("\n")) {
		var rec RunRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		parsed = append(parsed, rec)
	}
	if len(parsed) != len(live) {
		t.Fatalf("parsed %d records, live %d", len(parsed), len(live))
	}
	for i := range parsed {
		if parsed[i].Benchmark != live[i].Benchmark ||
			parsed[i].Outcome != live[i].Outcome ||
			parsed[i].Setup.PMDVoltage != live[i].Setup.PMDVoltage ||
			parsed[i].Repetition != live[i].Repetition ||
			parsed[i].Recovered != live[i].Recovered {
			t.Errorf("record %d mismatch:\nparsed %+v\nlive   %+v", i, parsed[i], live[i])
		}
	}
	// The parsing phase must work on re-materialized records.
	sums := Summarize(parsed)
	if len(sums) != 2 {
		t.Errorf("summaries from parsed log = %d, want 2 voltage cells", len(sums))
	}
}

func TestOutcomeJSONAllValues(t *testing.T) {
	for _, o := range []xgene.Outcome{
		xgene.OutcomeOK, xgene.OutcomeCE, xgene.OutcomeUE,
		xgene.OutcomeSDC, xgene.OutcomeCrash, xgene.OutcomeHang,
	} {
		b, err := o.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		var back xgene.Outcome
		if err := back.UnmarshalJSON(b); err != nil {
			t.Fatal(err)
		}
		if back != o {
			t.Errorf("round trip %v -> %s -> %v", o, b, back)
		}
	}
	var o xgene.Outcome
	if err := o.UnmarshalJSON([]byte(`42`)); err == nil {
		t.Error("non-string outcome accepted")
	}
	if _, err := xgene.ParseOutcome("nope"); err == nil {
		t.Error("unknown abbreviation accepted")
	}
}

// TestJSONLSinkFrames: a batch is written as its lines, in order.
func TestJSONLSinkFrames(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	if err := s.Frames([]Frame{{Line: []byte("a\n")}, {Line: []byte("b\n")}}); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "a\nb\n" {
		t.Errorf("wrote %q, want the batch's lines", buf.String())
	}
}
