package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/wire"
	"repro/internal/xgene"
)

// testRecords builds n distinguishable run records.
func testRecords(label string, n int) []core.RunRecord {
	out := make([]core.RunRecord, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, core.RunRecord{
			Benchmark:  label,
			Repetition: i,
			Outcome:    xgene.OutcomeOK,
			DroopMV:    float64(i) * 1.5,
			SimTime:    time.Duration(i) * time.Second,
		})
	}
	return out
}

// commit writes one segment through the full Begin/Record/Commit path.
func commit(t *testing.T, s *Store, fp, label string, n int) {
	t.Helper()
	w, err := s.Begin(fp)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range testRecords(label, n) {
		if err := w.Append([]core.RunRecord{rec}); err != nil {
			t.Fatal(err)
		}
	}
	meta, _ := json.Marshal(map[string]string{"label": label})
	if err := w.Commit(meta); err != nil {
		t.Fatal(err)
	}
}

// loadRecords is LoadFrames with each frame's record projected.
func loadRecords(s *Store, fp string) ([]core.RunRecord, error) {
	frames, err := s.LoadFrames(fp)
	recs := make([]core.RunRecord, len(frames))
	for i, f := range frames {
		recs[i] = f.Rec
	}
	return recs, err
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	commit(t, s, "aaaa", "mcf", 4)
	recs, err := loadRecords(s, "aaaa")
	if err != nil {
		t.Fatal(err)
	}
	want := testRecords("mcf", 4)
	if len(recs) != len(want) {
		t.Fatalf("loaded %d records, want %d", len(recs), len(want))
	}
	for i := range recs {
		if recs[i].Benchmark != want[i].Benchmark || recs[i].Repetition != want[i].Repetition ||
			recs[i].DroopMV != want[i].DroopMV || recs[i].SimTime != want[i].SimTime {
			t.Errorf("record %d = %+v, want %+v", i, recs[i], want[i])
		}
	}
	e, ok := s.Get("aaaa")
	if !ok || e.Records != 4 || !strings.Contains(string(e.Meta), "mcf") {
		t.Errorf("entry = %+v ok=%v", e, ok)
	}
	if st := s.Stats(); st.Segments != 1 || st.Bytes != e.Bytes || st.Quarantined != 0 {
		t.Errorf("stats = %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// The segment file's bytes are exactly the binary framing of the
	// records a live subscriber would have seen.
	wantBytes := wire.Header()
	for _, rec := range want {
		if wantBytes, err = wire.AppendBinaryRecord(wantBytes, rec); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(filepath.Join(dir, segName("aaaa")))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantBytes) {
		t.Error("segment bytes differ from the binary framing of the records")
	}
}

func TestReopenReplaysIndex(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	commit(t, s, "aaaa", "mcf", 3)
	commit(t, s, "bbbb", "namd", 2)
	s.Close()

	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	entries := s2.Entries()
	if len(entries) != 2 {
		t.Fatalf("reopened store holds %d entries, want 2", len(entries))
	}
	// LRU order: aaaa committed first, so it drains first.
	if entries[0].Fingerprint != "aaaa" || entries[1].Fingerprint != "bbbb" {
		t.Errorf("LRU order = %s, %s", entries[0].Fingerprint, entries[1].Fingerprint)
	}
	recs, err := loadRecords(s2, "bbbb")
	if err != nil || len(recs) != 2 {
		t.Fatalf("load after reopen: %d records, err %v", len(recs), err)
	}
}

// TestTruncatedSegmentQuarantined is the crash-recovery acceptance test:
// a segment torn mid-record is quarantined on Open, intact siblings stay.
func TestTruncatedSegmentQuarantined(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	commit(t, s, "good", "mcf", 3)
	commit(t, s, "torn", "namd", 3)
	s.Close()

	seg := filepath.Join(dir, segName("torn"))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, ok := s2.Get("torn"); ok {
		t.Error("truncated segment still indexed")
	}
	if _, ok := s2.Get("good"); !ok {
		t.Error("intact sibling lost in recovery")
	}
	if st := s2.Stats(); st.Quarantined != 1 || st.Segments != 1 {
		t.Errorf("stats after recovery = %+v", st)
	}
	if _, err := os.Stat(seg); !os.IsNotExist(err) {
		t.Error("truncated segment left in place")
	}
	q, err := os.ReadDir(filepath.Join(dir, quarantineDir))
	if err != nil || len(q) != 1 {
		t.Errorf("quarantine holds %d files (%v), want the torn segment", len(q), err)
	}
}

// TestCrashDebrisQuarantined covers the two other crash windows: a .tmp
// segment from a campaign that never committed, and a fully written
// segment whose manifest line never landed.
func TestCrashDebrisQuarantined(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	w, err := s.Begin("half")
	if err != nil {
		t.Fatal(err)
	}
	w.Append([]core.RunRecord{core.RunRecord{Benchmark: "x"}})
	// Simulate the crash: no Commit, no Abort; also drop an orphan that
	// looks committed but is absent from the manifest.
	orphan := filepath.Join(dir, segName("orphan"))
	seg, err := wire.AppendBinaryRecord(wire.Header(), testRecords("mcf", 1)[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(orphan, seg, 0o644); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if st := s2.Stats(); st.Quarantined != 2 || st.Segments != 0 {
		t.Errorf("stats = %+v, want 2 quarantined, 0 segments", st)
	}
	if _, err := os.Stat(filepath.Join(dir, segName("half")+tmpSuffix)); !os.IsNotExist(err) {
		t.Error(".tmp debris left in place")
	}
}

// TestManifestSalvage pins prefix salvage of a crash-torn manifest: the
// intact prefix stands, the torn tail drops, and the journal is rewritten.
func TestManifestSalvage(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	commit(t, s, "aaaa", "mcf", 2)
	commit(t, s, "bbbb", "namd", 2)
	s.Close()

	// Tear the final manifest line mid-JSON.
	mpath := filepath.Join(dir, manifestName)
	data, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(mpath, data[:len(data)-9], 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, ok := s2.Get("aaaa"); !ok {
		t.Error("intact manifest prefix lost")
	}
	// bbbb's put line was torn, so its (perfectly fine) segment is an
	// orphan: quarantined, never trusted.
	if _, ok := s2.Get("bbbb"); ok {
		t.Error("torn manifest line still indexed")
	}
	if st := s2.Stats(); st.Segments != 1 || st.Quarantined != 1 {
		t.Errorf("stats = %+v", st)
	}
	// The rewritten manifest round-trips cleanly.
	s2.Close()
	s3, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if len(s3.Entries()) != 1 {
		t.Errorf("entries after salvage+reopen = %d, want 1", len(s3.Entries()))
	}
}

// TestCompactionHonorsLRU pins the count bound and its eviction order:
// touching an old entry saves it; the untouched one goes first.
func TestCompactionHonorsLRU(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, MaxSegments: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	commit(t, s, "aaaa", "mcf", 2)
	commit(t, s, "bbbb", "namd", 2)
	s.Touch("aaaa") // bbbb is now LRU
	commit(t, s, "cccc", "milc", 2)
	if _, ok := s.Get("bbbb"); ok {
		t.Error("LRU entry survived compaction")
	}
	for _, fp := range []string{"aaaa", "cccc"} {
		if _, ok := s.Get(fp); !ok {
			t.Errorf("%s evicted out of LRU order", fp)
		}
	}
	if st := s.Stats(); st.Segments != 2 || st.Compactions != 1 {
		t.Errorf("stats = %+v", st)
	}
	if _, err := os.Stat(filepath.Join(dir, segName("bbbb"))); !os.IsNotExist(err) {
		t.Error("compacted segment file left on disk")
	}
}

// TestCompactionByteBound pins MaxBytes, including the newest-survives
// exception.
func TestCompactionByteBound(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, MaxBytes: 1}) // everything oversized
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	commit(t, s, "aaaa", "mcf", 2)
	commit(t, s, "bbbb", "namd", 2)
	if _, ok := s.Get("aaaa"); ok {
		t.Error("byte bound did not evict the older segment")
	}
	if _, ok := s.Get("bbbb"); !ok {
		t.Error("newest segment evicted by its own commit")
	}
}

// TestReopenWithTighterBoundsCompacts: shrinking the limits compacts at
// Open time.
func TestReopenWithTighterBoundsCompacts(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		commit(t, s, fmt.Sprintf("fp%04d", i), "mcf", 2)
	}
	s.Close()
	s2, err := Open(Options{Dir: dir, MaxSegments: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if st := s2.Stats(); st.Segments != 2 {
		t.Errorf("segments after tighter reopen = %d, want 2", st.Segments)
	}
	// The survivors are the most recently committed.
	for _, fp := range []string{"fp0002", "fp0003"} {
		if _, ok := s2.Get(fp); !ok {
			t.Errorf("%s missing after compaction", fp)
		}
	}
}

func TestAbortLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	w, err := s.Begin("gone")
	if err != nil {
		t.Fatal(err)
	}
	w.Append([]core.RunRecord{core.RunRecord{Benchmark: "x"}})
	if err := w.Abort(); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("gone"); ok {
		t.Error("aborted segment indexed")
	}
	files, _ := os.ReadDir(dir)
	for _, f := range files {
		if strings.HasPrefix(f.Name(), segPrefix) {
			t.Errorf("abort left %s behind", f.Name())
		}
	}
	if err := w.Abort(); err != nil {
		t.Error("double abort not idempotent:", err)
	}
}

func TestBadInputs(t *testing.T) {
	if _, err := Open(Options{}); err == nil {
		t.Error("empty dir accepted")
	}
	s, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	for _, fp := range []string{"", "a/b", "..", "x y"} {
		if _, err := s.Begin(fp); err == nil {
			t.Errorf("unsafe fingerprint %q accepted", fp)
		}
	}
	if _, err := s.LoadFrames("missing"); err == nil {
		t.Error("load of unknown fingerprint succeeded")
	}
	s.Close()
	if err := s.Close(); err != nil {
		t.Error("double close:", err)
	}
	if _, err := s.Begin("aaaa"); err == nil {
		t.Error("begin on closed store accepted")
	}
}

// TestLoadQuarantinesFreshDamage: damage appearing after boot is caught by
// Load, quarantined, and the entry dropped so the caller can re-run.
func TestLoadQuarantinesFreshDamage(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	commit(t, s, "aaaa", "mcf", 3)
	seg := filepath.Join(dir, segName("aaaa"))
	data, _ := os.ReadFile(seg)
	if err := os.WriteFile(seg, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadFrames("aaaa"); err == nil {
		t.Fatal("damaged segment loaded")
	}
	if _, ok := s.Get("aaaa"); ok {
		t.Error("damaged entry still indexed")
	}
	if st := s.Stats(); st.Quarantined != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestFlippedByteQuarantinedOnLoad: damage that keeps the segment's size
// (one flipped payload byte) fails the record CRC when the segment is
// read, whether it appeared while the store was open or before a reopen.
// Boot checks only the size, so Open keeps the entry; LoadFrames fails,
// quarantines the file and drops the entry, and an intact sibling still
// loads.
func TestFlippedByteQuarantinedOnLoad(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	commit(t, s, "aaaa", "mcf", 3)
	commit(t, s, "bbbb", "lbm", 2)
	commit(t, s, "cccc", "milc", 4)
	// loadFails checks the first quarantine of a store instance.
	loadFails := func(s *Store, fp string) {
		t.Helper()
		if _, err := s.LoadFrames(fp); err == nil {
			t.Fatalf("damaged segment %s loaded", fp)
		}
		if _, ok := s.Get(fp); ok {
			t.Errorf("damaged entry %s still indexed", fp)
		}
		if st := s.Stats(); st.Quarantined != 1 {
			t.Errorf("stats = %+v, want 1 quarantined", st)
		}
		if _, err := os.Stat(filepath.Join(dir, quarantineDir, segName(fp))); err != nil {
			t.Errorf("damaged segment %s not in quarantine: %v", fp, err)
		}
	}

	flipPayloadByte(t, filepath.Join(dir, segName("aaaa")))
	loadFails(s, "aaaa")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	flipPayloadByte(t, filepath.Join(dir, segName("cccc")))
	s, err = Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, ok := s.Get("cccc"); !ok {
		t.Fatal("Open dropped a segment whose size is intact")
	}
	loadFails(s, "cccc")
	if frames, err := s.LoadFrames("bbbb"); err != nil || len(frames) != 2 {
		t.Errorf("intact sibling: %d frames, err %v", len(frames), err)
	}
	if st := s.Stats(); st.Segments != 1 {
		t.Errorf("stats = %+v, want 1 segment", st)
	}
}

// flipPayloadByte inverts the final payload byte of a segment's last
// record (the byte before its 4-byte CRC), keeping the file size.
func flipPayloadByte(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-5] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestLoadSegmentVerbatim: LoadSegment hands back the committed file byte
// for byte with the entry it was checked against, and moves the entry to
// the recency front like any load; a segment that fails its CRCs is
// refused, quarantined and dropped, as LoadFrames would.
func TestLoadSegmentVerbatim(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	commit(t, s, "aaaa", "mcf", 3)
	commit(t, s, "bbbb", "lbm", 2)
	seg, e, err := s.LoadSegment("aaaa")
	if err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(filepath.Join(dir, segName("aaaa")))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seg, file) || e.Records != 3 || e.Fingerprint != "aaaa" {
		t.Fatalf("LoadSegment = %d bytes, entry %+v; want the %d-byte file and 3 records", len(seg), e, len(file))
	}
	if entries := s.Entries(); entries[len(entries)-1].Fingerprint != "aaaa" {
		t.Error("a segment load did not count as a use")
	}

	flipPayloadByte(t, filepath.Join(dir, segName("bbbb")))
	if _, _, err := s.LoadSegment("bbbb"); err == nil {
		t.Fatal("damaged segment loaded")
	}
	if _, ok := s.Get("bbbb"); ok {
		t.Error("damaged entry still indexed")
	}
	if _, err := os.Stat(filepath.Join(dir, quarantineDir, segName("bbbb"))); err != nil {
		t.Errorf("damaged segment not in quarantine: %v", err)
	}
}

// TestTouchChurnCompactsManifest: touch churn compacts the journal while
// the store is still open — a long-lived daemon's hot fingerprint must not
// grow the manifest without bound — and neither entries nor LRU order are
// lost.
func TestTouchChurnCompactsManifest(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	commit(t, s, "aaaa", "mcf", 2)
	commit(t, s, "bbbb", "namd", 2)
	for i := 0; i < 10000; i++ {
		s.Touch("aaaa")
	}
	// The in-process rewrite keeps the journal proportional to the entry
	// count, not the touch count: 10k touch lines would be ~400 KB.
	s.mu.Lock()
	ops := s.ops
	s.mu.Unlock()
	if ops > 2*2+64 {
		t.Errorf("journal holds %d ops after touch churn; live compaction missing", ops)
	}
	s.Close()
	if fi, err := os.Stat(filepath.Join(dir, manifestName)); err != nil {
		t.Fatal(err)
	} else if fi.Size() > 64*1024 {
		t.Errorf("manifest is %d bytes after touch churn", fi.Size())
	}

	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	entries := s2.Entries()
	if len(entries) != 2 || entries[0].Fingerprint != "bbbb" || entries[1].Fingerprint != "aaaa" {
		t.Errorf("compacted manifest lost entries or LRU order: %+v", entries)
	}
}

func TestAdoptReplaysByteIdentically(t *testing.T) {
	// Segments and checkpoints are binary-framed; the subtest names
	// the on-disk format the body exercises.
	t.Run("binary", adoptReplaysByteIdentically)
}

func adoptReplaysByteIdentically(t *testing.T) {
	// A segment adopted from a peer (its file bytes + verbatim meta) must
	// behave exactly like a locally committed one: indexed, stored byte for
	// byte, durable across reopen, and replaying the peer's canonical
	// bytes.
	recs := testRecords("adopted", 5)
	want, err := wire.AppendLines(nil, recs)
	if err != nil {
		t.Fatal(err)
	}
	seg := wire.Header()
	for _, rec := range recs {
		if seg, err = wire.AppendBinaryRecord(seg, rec); err != nil {
			t.Fatal(err)
		}
	}
	meta := json.RawMessage(`{"label":"adopted","workers":3}`)

	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Adopt("feedface00000001", meta, seg, len(recs)); err != nil {
		t.Fatal(err)
	}
	e, ok := s.Get("feedface00000001")
	if !ok || e.Records != 5 || e.Bytes != int64(len(seg)) || string(e.Meta) != string(meta) {
		t.Fatalf("entry = %+v, ok = %v", e, ok)
	}
	if file, err := os.ReadFile(filepath.Join(dir, e.Segment)); err != nil || !bytes.Equal(file, seg) {
		t.Fatalf("stored segment differs from the adopted bytes (err %v)", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, err := s2.LoadFrames("feedface00000001")
	if err != nil {
		t.Fatal(err)
	}
	var replay bytes.Buffer
	for _, f := range got {
		replay.Write(f.Line)
	}
	if !bytes.Equal(replay.Bytes(), want) {
		t.Fatal("adopted segment did not replay byte-identically")
	}
}

// TestRunningTotalsMatchEntries: the running segment and byte totals
// behind Stats and the gauges stay equal to a fresh sum over Entries
// through commits, a recommit of a live fingerprint, compaction, a
// quarantining load, boot verification and a reopen.
func TestRunningTotalsMatchEntries(t *testing.T) {
	dir := t.TempDir()
	check := func(s *Store, when string) {
		t.Helper()
		var bytes int64
		entries := s.Entries()
		for _, e := range entries {
			bytes += e.Bytes
		}
		if st := s.Stats(); st.Segments != len(entries) || st.Bytes != bytes {
			t.Errorf("%s: stats segments=%d bytes=%d, entries sum to %d, %d",
				when, st.Segments, st.Bytes, len(entries), bytes)
		}
	}
	damage := func(fp string) {
		t.Helper()
		seg := filepath.Join(dir, segName(fp))
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(seg, data[:len(data)-5], 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s, err := Open(Options{Dir: dir, MaxSegments: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, fp := range []string{"aaaa", "bbbb", "cccc"} {
		commit(t, s, fp, "mcf", i+1)
	}
	check(s, "after commits")
	commit(t, s, "bbbb", "lbm", 7)
	check(s, "after recommit")
	commit(t, s, "dddd", "milc", 2)
	commit(t, s, "eeee", "milc", 5)
	if st := s.Stats(); st.Compactions != 1 {
		t.Fatalf("compactions = %d, want 1", st.Compactions)
	}
	check(s, "after compaction")
	damage("cccc")
	if _, err := s.LoadFrames("cccc"); err == nil {
		t.Fatal("damaged segment loaded")
	}
	check(s, "after quarantining load")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	damage("dddd")
	s, err = Open(Options{Dir: dir, MaxSegments: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if st := s.Stats(); st.Segments != 2 || st.Quarantined != 1 {
		t.Fatalf("reopen kept %d segments, quarantined %d; want 2, 1", st.Segments, st.Quarantined)
	}
	check(s, "after reopen")
}
