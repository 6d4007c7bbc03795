package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// fpsOf projects intents onto their fingerprints, in order.
func fpsOf(intents []Intent) []string {
	out := make([]string, 0, len(intents))
	for _, in := range intents {
		out = append(out, in.Fingerprint)
	}
	return out
}

// TestIntentLifecycle: begins are pending until ended, survive a reopen in
// submission order with their meta, and an ended intent stays ended.
func TestIntentLifecycle(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.BeginIntent("../escape", nil); err == nil {
		t.Error("BeginIntent accepted a fingerprint that is not path-safe")
	}
	for _, fp := range []string{"cccc", "aaaa", "bbbb"} {
		if err := s.BeginIntent(fp, json.RawMessage(`{"who":"`+fp+`"}`)); err != nil {
			t.Fatal(err)
		}
	}
	// Re-beginning keeps the original position and takes the new meta.
	if err := s.BeginIntent("cccc", json.RawMessage(`{"who":"again"}`)); err != nil {
		t.Fatal(err)
	}
	s.EndIntent("aaaa")
	s.EndIntent("never-begun") // an end with no begin is harmless
	if got, want := fpsOf(s.Intents()), []string{"cccc", "bbbb"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("pending = %v, want %v", got, want)
	}
	s.Close()

	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got := s2.Intents()
	if want := []string{"cccc", "bbbb"}; !reflect.DeepEqual(fpsOf(got), want) {
		t.Fatalf("reopened pending = %v, want %v", fpsOf(got), want)
	}
	if string(got[0].Meta) != `{"who":"again"}` {
		t.Errorf("re-begun intent meta = %s", got[0].Meta)
	}
	// One journal: nothing but the manifest holds intents.
	if _, err := os.Stat(filepath.Join(dir, legacyIntentName)); !os.IsNotExist(err) {
		t.Errorf("a separate intent journal exists: %v", err)
	}
}

// TestIntentSurvivesTouchRewrite: an in-process journal rewrite must carry
// pending begins along with the puts. With one intent pending, touch churn
// forces a rewrite; the store closes without an end, and the next Open
// still returns the intent.
func TestIntentSurvivesTouchRewrite(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	commit(t, s, "aaaa", "mcf", 2)
	meta := json.RawMessage(`{"spec":"pending"}`)
	if err := s.BeginIntent("pend", meta); err != nil {
		t.Fatal(err)
	}
	rewrote := false
	for i := 0; i < 1000 && !rewrote; i++ {
		s.mu.Lock()
		before := s.ops
		s.mu.Unlock()
		s.Touch("aaaa")
		s.mu.Lock()
		rewrote = s.ops < before
		s.mu.Unlock()
	}
	if !rewrote {
		t.Fatal("touch churn never rewrote the journal")
	}
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"op":"begin"`) {
		t.Fatalf("rewritten journal dropped the pending begin:\n%s", data)
	}
	s.Close() // no EndIntent: the crash case

	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got := s2.Intents()
	if len(got) != 1 || got[0].Fingerprint != "pend" || string(got[0].Meta) != string(meta) {
		t.Fatalf("intents after rewrite + reopen = %+v, want the pending begin", got)
	}
	if _, ok := s2.Get("aaaa"); !ok {
		t.Error("rewrite lost the committed entry")
	}
}

// TestEndChurnCompactsManifest: begin/end pairs are unbounded journal
// traffic, so ends compact the journal in-process like touches do.
func TestEndChurnCompactsManifest(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 500; i++ {
		if err := s.BeginIntent("churn", nil); err != nil {
			t.Fatal(err)
		}
		s.EndIntent("churn")
	}
	s.mu.Lock()
	ops := s.ops
	s.mu.Unlock()
	if ops > 64 {
		t.Errorf("journal holds %d ops after begin/end churn; live compaction missing", ops)
	}
	if n := len(s.Intents()); n != 0 {
		t.Errorf("%d intents pending after every begin ended", n)
	}
}

// TestLegacyIntentJournalQuarantined: a store written by a daemon that kept
// intents in a separate INTENT.jsonl boots with that file (and its rewrite
// debris) moved to quarantine/, the same upgrade rule older segment formats
// get. Its begins are not adopted: the manifest is the only journal.
func TestLegacyIntentJournalQuarantined(t *testing.T) {
	dir := t.TempDir()
	legacy := `{"op":"begin","fp":"aaaa","spec":{"seed":7},"tenant":"t"}` + "\n"
	for _, name := range []string{legacyIntentName, legacyIntentName + tmpSuffix} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(legacy), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, name := range []string{legacyIntentName, legacyIntentName + tmpSuffix} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("%s still in the store directory: %v", name, err)
		}
		if _, err := os.Stat(filepath.Join(dir, quarantineDir, name)); err != nil {
			t.Errorf("%s not quarantined: %v", name, err)
		}
	}
	if n := len(s.Intents()); n != 0 {
		t.Errorf("legacy journal contributed %d intents", n)
	}
	if st := s.Stats(); st.QuarantineFiles != 2 {
		t.Errorf("quarantine holds %d files, want 2", st.QuarantineFiles)
	}
}
