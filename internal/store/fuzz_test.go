package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/wire"
)

// FuzzManifestReplay throws arbitrary MANIFEST.jsonl bytes at Open, next
// to one valid three-record segment (seg-aaaa.bin). The invariants,
// regardless of input: Open never panics and never fails (recovery
// distrusts the journal, so a bad one costs entries, not the store);
// every entry that survives Open either loads with exactly its manifest
// record count or fails its load, which quarantines the segment and drops
// the entry (boot checks only sizes; records are verified when read);
// every intent Open returns has a path-safe fingerprint and was not ended
// by the journal's intact prefix; and a reopen returns the same intents.
//
// CI runs this as a smoke pass (corpus only, via `go test`); run it as a
// real fuzzer with:
//
//	go test ./internal/store/ -fuzz FuzzManifestReplay -fuzztime 30s
func FuzzManifestReplay(f *testing.F) {
	seg := fuzzSegment(f)
	put := func(fp, segment string, records int, bytes int64) string {
		line, _ := json.Marshal(manifestOp{
			Op: "put", Fingerprint: fp, Segment: segment,
			Records: records, Bytes: bytes, Meta: json.RawMessage(`{"label":"mcf"}`),
		})
		return string(line) + "\n"
	}
	good := put("aaaa", "seg-aaaa.bin", 3, int64(len(seg)))
	f.Add([]byte(good))                                               // the true journal
	f.Add([]byte(good + `{"op":"touch","fp":"aaaa"}` + "\n"))         // with a touch
	f.Add([]byte(good + `{"op":"del","fp":"aaaa"}` + "\n"))           // deleted
	f.Add([]byte(good[:len(good)-9]))                                 // torn tail
	f.Add([]byte(put("aaaa", "seg-aaaa.bin", 2, int64(len(seg)))))    // record count lies
	f.Add([]byte(put("aaaa", "seg-aaaa.bin", 3, 7)))                  // byte count lies
	f.Add([]byte(put("bbbb", "seg-aaaa.bin", 3, int64(len(seg)))))    // someone else's segment
	f.Add([]byte(put("aaaa", "seg-aaaa.jsonl", 3, int64(len(seg)))))  // an older format's name
	f.Add([]byte(put("../x", "../seg-aaaa.bin", 3, int64(len(seg))))) // path traversal
	f.Add([]byte(`{"op":"put","fp":"aaaa"}` + "\n"))                  // no segment
	f.Add([]byte(put("aaaa", "quarantine", 0, 0)))                    // a directory
	f.Add([]byte("not json\n" + good))                                // junk first
	f.Add([]byte{})                                                   // empty

	// Intents share the journal: begin is fsync'd work, end retires it.
	begin := `{"op":"begin","fp":"cafe","meta":{"spec":{"seed":7}}}` + "\n"
	end := `{"op":"end","fp":"cafe"}` + "\n"
	f.Add([]byte(good + begin))                                         // a pending begin
	f.Add([]byte(good + begin + end))                                   // begin then end
	f.Add([]byte(begin + good))                                         // begin then put
	f.Add([]byte(good + begin[:len(begin)-12]))                         // a torn begin
	f.Add([]byte(good + `{"op":"begin","fp":"../x","meta":{}}` + "\n")) // unsafe begin
	f.Add([]byte(good + end))                                           // an end with no begin
	f.Add([]byte(good + begin + good[:len(good)-9]))                    // salvage rewrite keeps the begin

	f.Fuzz(func(t *testing.T, manifest []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "seg-aaaa.bin"), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, manifestName), manifest, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer s.Close()
		pending := pendingIntents(manifest)
		intents := s.Intents()
		for _, in := range intents {
			if err := validFingerprint(in.Fingerprint); err != nil {
				t.Fatalf("intent with unsafe fingerprint survived: %v", err)
			}
			if !pending[in.Fingerprint] {
				t.Fatalf("intent %q returned although the journal ended it", in.Fingerprint)
			}
		}
		for _, e := range s.Entries() {
			quarantined := s.Stats().Quarantined
			frames, err := s.LoadFrames(e.Fingerprint)
			if err == nil {
				if len(frames) != e.Records {
					t.Fatalf("surviving entry %s loads %d records, manifest says %d", e.Fingerprint, len(frames), e.Records)
				}
				continue
			}
			if _, ok := s.Get(e.Fingerprint); ok {
				t.Fatalf("entry %s still indexed after its load failed: %v", e.Fingerprint, err)
			}
			if got := s.Stats().Quarantined; got != quarantined+1 {
				t.Fatalf("failed load of %s quarantined %d segments, want 1: %v", e.Fingerprint, got-quarantined, err)
			}
			if _, serr := os.Stat(filepath.Join(dir, e.Segment)); !os.IsNotExist(serr) {
				t.Fatalf("segment %s left in place after its load failed: %v", e.Segment, err)
			}
		}
		// Whatever Open made of the journal is stable: a second boot
		// (after Open's own salvage rewrite) returns the same intents.
		s.Close()
		s2, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer s2.Close()
		if got := s2.Intents(); !reflect.DeepEqual(fpsOf(got), fpsOf(intents)) {
			t.Fatalf("reopen returned intents %v, first boot %v", fpsOf(got), fpsOf(intents))
		}
	})
}

// pendingIntents is the oracle for the intent invariant: the fingerprints
// whose last begin in the journal's intact prefix (lines up to the first
// one that does not decode) has no later end.
func pendingIntents(manifest []byte) map[string]bool {
	pending := make(map[string]bool)
	for _, line := range strings.Split(string(manifest), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var op manifestOp
		if json.Unmarshal([]byte(line), &op) != nil {
			break
		}
		switch op.Op {
		case "begin":
			pending[op.Fingerprint] = true
		case "end":
			delete(pending, op.Fingerprint)
		}
	}
	return pending
}

// fuzzSegment builds a valid 3-record binary segment.
func fuzzSegment(tb testing.TB) []byte {
	tb.Helper()
	seg := wire.Header()
	for _, rec := range testRecords("mcf", 3) {
		var err error
		if seg, err = wire.AppendBinaryRecord(seg, rec); err != nil {
			tb.Fatal(err)
		}
	}
	return seg
}
