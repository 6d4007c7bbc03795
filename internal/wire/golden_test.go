package wire_test

// Cross-format golden test: the full Fig. 4 characterization grid encoded
// through every wire path — the legacy encoding/json writer, the pooled
// AppendRecordLine encoder, and a binary segment decoded back to JSONL —
// must all produce the exact bytes committed under testdata/fig4.jsonl.
// The golden file pins both the encoder (any byte-level drift from
// encoding/json fails here on real campaign data, not just synthetic
// corpus records) and the simulation itself (a behaviour change in the
// characterization path shows up as a record diff).
//
// Regenerate after an intentional simulation or format change with:
//
//	go test ./internal/wire/ -run TestGoldenFig4 -update-golden

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/wire"
	"repro/internal/workloads"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/fig4.jsonl from the current simulation")

const goldenPath = "testdata/fig4.jsonl"

// fig4Records runs the Fig. 4 grid (ten SPEC profiles x five voltages x
// two repetitions = 100 records) once per test binary.
var fig4Records = sync.OnceValues(func() ([]core.RunRecord, error) {
	var names []string
	for _, p := range workloads.SPEC2006() {
		names = append(names, p.Name)
	}
	spec := serve.Spec{
		Name:        "fig4",
		Seed:        1,
		Benches:     names,
		VoltagesMV:  []float64{980, 960, 940, 920, 900},
		Repetitions: 2,
	}
	grid, err := spec.Grid()
	if err != nil {
		return nil, err
	}
	rep, err := campaign.RunGrid(campaign.Config{Seed: 1}, grid)
	if err != nil {
		return nil, err
	}
	return rep.Records, nil
})

// legacyJSONL renders records the pre-wire way: encoding/json line by line.
func legacyJSONL(t *testing.T, recs []core.RunRecord) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, rec := range recs {
		if err := enc.Encode(rec); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func goldenBytes(t *testing.T, got []byte) []byte {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (run with -update-golden to create): %v", err)
	}
	return want
}

func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// TestGoldenFig4JSONL pins the pooled encoder against both the committed
// golden bytes and the legacy encoding/json writer on the full grid.
func TestGoldenFig4JSONL(t *testing.T) {
	recs, err := fig4Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 100 {
		t.Fatalf("Fig. 4 grid produced %d records, want 100", len(recs))
	}
	got, err := wire.AppendLines(nil, recs)
	if err != nil {
		t.Fatal(err)
	}
	if legacy := legacyJSONL(t, recs); !bytes.Equal(got, legacy) {
		t.Errorf("pooled encoder diverges from encoding/json at byte %d", firstDiff(got, legacy))
	}
	want := goldenBytes(t, got)
	if !bytes.Equal(got, want) {
		t.Errorf("Fig. 4 JSONL differs from golden at byte %d (simulation or encoder drift; -update-golden if intentional)", firstDiff(got, want))
	}
}

// TestGoldenFig4Binary persists the grid as a binary segment and checks
// the decoded records are the grid's, and that the lines replayed from
// the segment are byte-identical to the golden JSONL.
func TestGoldenFig4Binary(t *testing.T) {
	recs, err := fig4Records()
	if err != nil {
		t.Fatal(err)
	}
	seg := wire.Header()
	for _, rec := range recs {
		if seg, err = wire.AppendBinaryRecord(seg, rec); err != nil {
			t.Fatal(err)
		}
	}
	decoded, err := wire.ReadSegment(bytes.NewReader(seg))
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(decoded), len(recs))
	}
	for i, rec := range decoded {
		if !reflect.DeepEqual(rec, recs[i]) {
			t.Fatalf("record %d round-tripped to %+v, want %+v", i, rec, recs[i])
		}
	}
	got, _, err := wire.AppendSegmentLines(nil, nil, bytes.NewReader(seg))
	if err != nil {
		t.Fatal(err)
	}
	want := goldenBytes(t, got)
	if !bytes.Equal(got, want) {
		t.Errorf("binary segment re-renders differently from golden at byte %d", firstDiff(got, want))
	}
	if want := goldenBytes(t, got); len(seg) >= len(want) {
		t.Errorf("binary segment (%d bytes) not smaller than JSONL (%d bytes)", len(seg), len(want))
	}
}

// fig4Segment is the Fig. 4 grid persisted as one binary segment, the
// bytes a store commits for that campaign.
func fig4Segment(tb testing.TB) []byte {
	tb.Helper()
	recs, err := fig4Records()
	if err != nil {
		tb.Fatal(err)
	}
	seg := wire.Header()
	for _, rec := range recs {
		if seg, err = wire.AppendBinaryRecord(seg, rec); err != nil {
			tb.Fatal(err)
		}
	}
	return seg
}
