package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
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
	parsed, err := ParseLog(&spool)
	if err != nil {
		t.Fatal(err)
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

func TestParseLogSkipsBlankAndRejectsGarbage(t *testing.T) {
	good := `{"Benchmark":"x","Outcome":"OK"}`
	recs, err := ParseLog(strings.NewReader(good + "\n\n" + good + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Errorf("parsed %d, want 2", len(recs))
	}
	if recs[0].Outcome != xgene.OutcomeOK {
		t.Errorf("outcome = %v", recs[0].Outcome)
	}
	if _, err := ParseLog(strings.NewReader("not-json\n")); err == nil {
		t.Error("garbage line accepted")
	}
	if _, err := ParseLog(strings.NewReader(`{"Outcome":"weird"}` + "\n")); err == nil {
		t.Error("unknown outcome accepted")
	}
}

// TestParseLogSalvagesPrefix pins the prefix-salvage contract durable-store
// recovery depends on: a spool whose final line a crash truncated yields
// every intact record plus a *LogError naming the damaged line.
func TestParseLogSalvagesPrefix(t *testing.T) {
	good := `{"Benchmark":"x","Outcome":"OK"}`
	truncated := good + "\n" + good + "\n" + `{"Benchmark":"y","Outc`
	recs, err := ParseLog(strings.NewReader(truncated))
	if err == nil {
		t.Fatal("truncated trailing line accepted")
	}
	var le *LogError
	if !errors.As(err, &le) {
		t.Fatalf("error %T is not a *LogError", err)
	}
	if le.Line != 3 {
		t.Errorf("damage reported at line %d, want 3", le.Line)
	}
	if le.Unwrap() == nil {
		t.Error("LogError hides its cause")
	}
	if len(recs) != 2 {
		t.Fatalf("salvaged %d records, want the 2 intact ones", len(recs))
	}
	for i, rec := range recs {
		if rec.Benchmark != "x" {
			t.Errorf("salvaged record %d = %+v, want the pre-damage prefix", i, rec)
		}
	}

	// Mid-file corruption salvages only up to the damage — records beyond
	// it are never trusted.
	corrupt := good + "\nnot-json\n" + good + "\n"
	recs, err = ParseLog(strings.NewReader(corrupt))
	if !errors.As(err, &le) || le.Line != 2 {
		t.Fatalf("mid-file damage reported as %v, want LogError at line 2", err)
	}
	if len(recs) != 1 {
		t.Errorf("salvaged %d records across mid-file damage, want 1", len(recs))
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
