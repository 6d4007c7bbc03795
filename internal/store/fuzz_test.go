package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/wire"
)

// FuzzManifestReplay throws arbitrary MANIFEST.jsonl bytes at Open, next
// to one valid three-record segment (seg-aaaa.bin). The invariants,
// regardless of input: Open never panics and never fails (recovery
// distrusts the journal, so a bad one costs entries, not the store), and
// every entry that survives loads with exactly its manifest record count.
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
		for _, e := range s.Entries() {
			frames, err := s.LoadFrames(e.Fingerprint)
			if err != nil {
				t.Fatalf("surviving entry %s does not load: %v", e.Fingerprint, err)
			}
			if len(frames) != e.Records {
				t.Fatalf("surviving entry %s loads %d records, manifest says %d", e.Fingerprint, len(frames), e.Records)
			}
		}
	})
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
