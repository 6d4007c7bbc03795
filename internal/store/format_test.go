package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/wire"
)

// TestBinaryFormatRoundTrip commits through the segment writer and checks
// the on-disk segment is a real binary segment whose replay is
// byte-identical to the live JSONL stream.
func TestBinaryFormatRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	commit(t, s, "aaaa", "mcf", 4)

	raw, err := os.ReadFile(filepath.Join(dir, segName("aaaa")))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(raw, wire.Header()) {
		t.Fatal("binary segment does not start with the wire header")
	}

	frames, err := s.LoadFrames("aaaa")
	if err != nil {
		t.Fatal(err)
	}
	var replay bytes.Buffer
	for _, f := range frames {
		replay.Write(f.Line)
	}
	var live bytes.Buffer
	enc := json.NewEncoder(&live)
	for _, rec := range testRecords("mcf", 4) {
		if err := enc.Encode(rec); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(replay.Bytes(), live.Bytes()) {
		t.Error("binary segment replay differs from the live JSONL stream")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMixedFormatRecovery is the upgrade path from a store written when
// JSONL segments were still an option: a manifest-claimed seg-<fp>.jsonl
// and a stray unclaimed seg-* file must not stop the store from opening.
// Both are quarantined, binary siblings keep loading, and the JSONL
// entry's fingerprint simply commits afresh as a binary segment.
func TestMixedFormatRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	commit(t, s, "aaaa", "mcf", 3)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A JSONL segment the manifest claims, as an older daemon committed it.
	var legacy bytes.Buffer
	enc := json.NewEncoder(&legacy)
	for _, rec := range testRecords("lbm", 2) {
		if err := enc.Encode(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "seg-bbbb.jsonl"), legacy.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	put, _ := json.Marshal(manifestOp{
		Op: "put", Fingerprint: "bbbb", Segment: "seg-bbbb.jsonl",
		Records: 2, Bytes: int64(legacy.Len()), Meta: json.RawMessage(`{"label":"lbm"}`),
	})
	mf, err := os.OpenFile(filepath.Join(dir, manifestName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mf.Write(append(put, '\n')); err != nil {
		t.Fatal(err)
	}
	mf.Close()
	// A stray segment nobody claims.
	if err := os.WriteFile(filepath.Join(dir, "seg-cccc.jsonl"), legacy.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.Segments != 1 || st.Quarantined != 2 {
		t.Fatalf("stats after upgrade = %+v, want 1 segment, 2 quarantined", st)
	}
	if _, ok := s2.Get("bbbb"); ok {
		t.Error("JSONL segment still indexed")
	}
	q, err := os.ReadDir(filepath.Join(dir, quarantineDir))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, de := range q {
		names = append(names, de.Name())
	}
	sort.Strings(names)
	if want := []string{"seg-bbbb.jsonl", "seg-cccc.jsonl"}; !reflect.DeepEqual(names, want) {
		t.Errorf("quarantine holds %v, want %v", names, want)
	}
	if got, err := loadRecords(s2, "aaaa"); err != nil || !reflect.DeepEqual(got, testRecords("mcf", 3)) {
		t.Errorf("binary sibling lost in upgrade: %d records, err %v", len(got), err)
	}
	commit(t, s2, "bbbb", "lbm", 2)
	if got, err := loadRecords(s2, "bbbb"); err != nil || !reflect.DeepEqual(got, testRecords("lbm", 2)) {
		t.Errorf("re-committed entry: %d records, err %v", len(got), err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	// The upgraded store reopens clean.
	s3, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if st := s3.Stats(); st.Segments != 2 || st.Quarantined != 0 {
		t.Errorf("stats after second reopen = %+v, want 2 segments, 0 quarantined", st)
	}
}

// TestTruncatedBinarySegmentQuarantined: a segment cut mid-record is
// quarantined at reopen.
func TestTruncatedBinarySegmentQuarantined(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	commit(t, s, "aaaa", "mcf", 4)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, segName("aaaa"))
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-5); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get("aaaa"); ok {
		t.Error("truncated binary segment still indexed")
	}
	if st := s2.Stats(); st.Quarantined != 1 {
		t.Errorf("quarantined = %d, want 1", st.Quarantined)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
}
