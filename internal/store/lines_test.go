package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestLoadLines: a segment's lines load as the lines LoadFrames renders,
// appended after an arena's existing bytes and each counted as a use; a
// damaged segment fails as LoadFrames does (quarantined, entry dropped)
// and leaves the arena as it was; an unknown fingerprint only errors.
func TestLoadLines(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	commit(t, s, "aaaa", "mcf", 3)
	commit(t, s, "bbbb", "lbm", 2)
	frames, err := s.LoadFrames("aaaa")
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	want.WriteString("{}\n")
	for _, f := range frames {
		want.Write(f.Line)
	}
	loads := s.m.segmentLoads.Value()
	lines, ends, err := s.LoadLines("aaaa", []byte("{}\n"), []int{3})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(lines, want.Bytes()) || len(ends) != 4 || ends[3] != len(lines) {
		t.Fatalf("lines %q ends %v, want %q", lines, ends, want.Bytes())
	}
	if got := s.m.segmentLoads.Value(); got != loads+1 {
		t.Errorf("segment loads %d -> %d, want one more", loads, got)
	}
	if lru := s.Entries(); lru[len(lru)-1].Fingerprint != "aaaa" {
		t.Errorf("loaded fingerprint is not the most recently used")
	}

	flipPayloadByte(t, filepath.Join(dir, segName("bbbb")))
	arena := []byte("{}\n")
	lines, ends, err = s.LoadLines("bbbb", arena, []int{3})
	if err == nil {
		t.Fatal("damaged segment loaded")
	}
	if !bytes.Equal(lines, arena) || len(ends) != 1 {
		t.Errorf("failed load returned lines %q ends %v, want the arena as passed", lines, ends)
	}
	if _, ok := s.Get("bbbb"); ok {
		t.Error("damaged entry still indexed")
	}
	if _, err := os.Stat(filepath.Join(dir, quarantineDir, segName("bbbb"))); err != nil {
		t.Errorf("damaged segment not in quarantine: %v", err)
	}
	if _, _, err := s.LoadLines("cccc", nil, nil); err == nil {
		t.Error("unknown fingerprint loaded")
	}
}
