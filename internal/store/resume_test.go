package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/wire"
)

// crashWriter writes n valid records into an uncommitted segment and
// abandons it flushed — the on-disk state a process crash leaves behind.
func crashWriter(t *testing.T, s *Store, fp, label string, n int) {
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
	// No Commit, no Abort: the .tmp stays behind, flushed record by
	// record.
}

// TestTmpSalvagedIntoCheckpoint: boot recovery turns a crashed campaign's
// .tmp into a resumable checkpoint instead of quarantining it.
func TestTmpSalvagedIntoCheckpoint(t *testing.T) {
	// Segments and checkpoints are binary-framed; the subtest names
	// the on-disk format the body exercises.
	t.Run("binary", tmpSalvagedIntoCheckpoint)
}

func tmpSalvagedIntoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	crashWriter(t, s, "deadbeef", "mcf", 3)
	s.Close()

	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st := s2.Stats()
	if st.Quarantined != 0 || st.Checkpoints != 1 {
		t.Fatalf("stats = %+v, want 0 quarantined, 1 checkpoint", st)
	}
	ck := s2.Checkpoint("deadbeef")
	if want := testRecords("mcf", 3); !reflect.DeepEqual(ck, want) {
		t.Fatalf("checkpoint holds %d records %+v, want the 3 written %+v", len(ck), ck, want)
	}
	// The checkpoint is in the segment framing; the .tmp itself is gone.
	if raw, err := os.ReadFile(s2.checkpointPath("deadbeef")); err != nil || !bytes.HasPrefix(raw, wire.Header()) {
		t.Errorf("checkpoint is not a binary segment (err=%v)", err)
	}
	if _, err := os.Stat(filepath.Join(dir, segName("deadbeef")+tmpSuffix)); !os.IsNotExist(err) {
		t.Error(".tmp survived salvage")
	}
}

// TestTornTmpSalvagesPrefix: only the intact record prefix of a torn .tmp
// survives into the checkpoint.
func TestTornTmpSalvagesPrefix(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	crashWriter(t, s, "deadbeef", "mcf", 3)
	s.Close()
	// Tear the last record mid-line.
	path := filepath.Join(dir, segName("deadbeef")+tmpSuffix)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if ck := s2.Checkpoint("deadbeef"); len(ck) != 2 {
		t.Fatalf("checkpoint holds %d records, want the 2 intact ones", len(ck))
	}
}

// TestResumeCommitsIdenticalSegment: checkpoint + Resume + remaining
// records commits a segment byte-identical to an uninterrupted run.
func TestResumeCommitsIdenticalSegment(t *testing.T) {
	// Segments and checkpoints are binary-framed; the subtest names
	// the on-disk format the body exercises.
	t.Run("binary", resumeCommitsIdenticalSegment)
}

func resumeCommitsIdenticalSegment(t *testing.T) {
	recs := testRecords("mcf", 6)
	meta, _ := json.Marshal(map[string]string{"label": "mcf"})

	// Reference: uninterrupted commit.
	refDir := t.TempDir()
	ref, err := Open(Options{Dir: refDir})
	if err != nil {
		t.Fatal(err)
	}
	w, err := ref.Begin("cafe")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Append([]core.RunRecord{r}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Commit(meta); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(refDir, segName("cafe")))
	if err != nil {
		t.Fatal(err)
	}
	ref.Close()

	// Crashed run: 4 of 6 records land, then resume.
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	crashWriter(t, s, "cafe", "mcf", 4)
	s.Close()
	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	ck := s2.Checkpoint("cafe")
	if len(ck) != 4 {
		t.Fatalf("checkpoint holds %d records, want 4", len(ck))
	}
	w2, err := s2.Resume("cafe", ck)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs[4:] {
		if err := w2.Append([]core.RunRecord{r}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w2.Commit(meta); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, segName("cafe")))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed segment differs from uninterrupted run:\n got %d bytes\nwant %d bytes", len(got), len(want))
	}
	// Commit cleared the checkpoint.
	if ck := s2.Checkpoint("cafe"); ck != nil {
		t.Errorf("checkpoint survived commit: %d records", len(ck))
	}
	if st := s2.Stats(); st.Checkpoints != 0 {
		t.Errorf("stats = %+v, want 0 checkpoints", st)
	}
}

// TestStaleCheckpointDropped: a checkpoint whose fingerprint committed
// after all is removed at boot.
func TestStaleCheckpointDropped(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	crashWriter(t, s, "aaaa", "mcf", 2)
	s.Close()
	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(s2.Checkpoint("aaaa")) != 2 {
		t.Fatal("no checkpoint after crash")
	}
	commit(t, s2, "aaaa", "mcf", 4)
	s2.Close()

	s3, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if ck := s3.Checkpoint("aaaa"); ck != nil {
		t.Fatalf("stale checkpoint survived: %d records", len(ck))
	}
	if _, err := os.Stat(filepath.Join(dir, ckptPrefix+"aaaa")); !os.IsNotExist(err) {
		t.Error("stale checkpoint file still on disk")
	}
}

// TestCommittedFingerprintTmpStillQuarantined: a .tmp for an already
// committed fingerprint has nothing to resume — quarantined as before.
func TestCommittedFingerprintTmpStillQuarantined(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	commit(t, s, "aaaa", "mcf", 2)
	crashWriter(t, s, "aaaa", "mcf", 1)
	s.Close()

	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if st := s2.Stats(); st.Quarantined != 1 || st.Checkpoints != 0 || st.Segments != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestQuarantineBounds: the quarantine directory is pruned oldest-first
// to the configured count bound, and stats/gauge account it.
func TestQuarantineBounds(t *testing.T) {
	dir := t.TempDir()
	qdir := filepath.Join(dir, quarantineDir)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		t.Fatal(err)
	}
	// Seed five fake quarantined files with distinct mtimes.
	for i := 0; i < 5; i++ {
		name := filepath.Join(qdir, "seg-old"+strings.Repeat("x", i)+".jsonl")
		if err := os.WriteFile(name, bytes.Repeat([]byte("a"), 10+i), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := Open(Options{Dir: dir, QuarantineMaxFiles: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st := s.Stats()
	if st.QuarantineFiles != 2 {
		t.Fatalf("stats = %+v, want 2 quarantine files", st)
	}
	des, err := os.ReadDir(qdir)
	if err != nil || len(des) != 2 {
		t.Fatalf("quarantine holds %d files (%v)", len(des), err)
	}
}

// TestQuarantineByteBound: the byte bound prunes too, including files
// quarantined after boot.
func TestQuarantineByteBound(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, QuarantineMaxBytes: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Drop two orphan segments that will be quarantined on reopen.
	for _, name := range []string{segName("orphan1"), segName("orphan2")} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{}\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	s2, err := Open(Options{Dir: dir, QuarantineMaxBytes: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st := s2.Stats()
	if st.Quarantined != 2 {
		t.Fatalf("stats = %+v, want 2 quarantined", st)
	}
	if st.QuarantineBytes > 4 {
		t.Fatalf("stats = %+v, want <= 4 quarantine bytes", st)
	}
}

// TestFaultInjectedWriteError: an armed store.write fault surfaces as a
// real ENOSPC from Record, and the aborted segment leaves no debris.
func TestFaultInjectedWriteError(t *testing.T) {
	p, err := fault.Parse("store.write:error@2=ENOSPC")
	if err != nil {
		t.Fatal(err)
	}
	fault.Arm(p)
	defer fault.Disarm()

	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	w, err := s.Begin("aaaa")
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords("mcf", 2)
	if err := w.Append([]core.RunRecord{recs[0]}); err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]core.RunRecord{recs[1]}); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("got %v, want ENOSPC", err)
	}
	if err := w.Abort(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, segName("aaaa")+tmpSuffix)); !os.IsNotExist(err) {
		t.Error(".tmp debris after abort")
	}
}

// TestFaultInjectedCommitFaults: fsync and rename faults fail Commit
// cleanly without corrupting the store.
func TestFaultInjectedCommitFaults(t *testing.T) {
	for _, plan := range []string{"store.fsync:error@1=EIO", "store.rename:error@1=EIO"} {
		t.Run(plan, func(t *testing.T) {
			p, err := fault.Parse(plan)
			if err != nil {
				t.Fatal(err)
			}
			fault.Arm(p)
			defer fault.Disarm()

			dir := t.TempDir()
			s, err := Open(Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			w, err := s.Begin("aaaa")
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Append([]core.RunRecord{testRecords("mcf", 1)[0]}); err != nil {
				t.Fatal(err)
			}
			if err := w.Commit(nil); !errors.Is(err, syscall.EIO) {
				t.Fatalf("Commit = %v, want EIO", err)
			}
			if _, ok := s.Get("aaaa"); ok {
				t.Error("failed commit is indexed")
			}
			s.Close()
			fault.Disarm()

			// The next boot salvages whatever the failed commit left.
			s2, err := Open(Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			if _, ok := s2.Get("aaaa"); ok {
				t.Error("failed commit resurrected")
			}
		})
	}
}

// TestFaultInjectedDirSyncError: a failed directory fsync after the rename
// fails Commit before the put is journaled, so the installed segment is
// unclaimed and the next Open quarantines it.
func TestFaultInjectedDirSyncError(t *testing.T) {
	p, err := fault.Parse("store.dirsync:error@1=EIO")
	if err != nil {
		t.Fatal(err)
	}
	fault.Arm(p)
	defer fault.Disarm()

	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	w, err := s.Begin("aaaa")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]core.RunRecord{testRecords("mcf", 1)[0]}); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(nil); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Commit = %v, want EIO", err)
	}
	if _, ok := s.Get("aaaa"); ok {
		t.Error("failed commit is indexed")
	}
	s.Close()
	fault.Disarm()
	journal, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	if strings.Contains(string(journal), `"op":"put"`) {
		t.Errorf("failed commit journaled a put:\n%s", journal)
	}

	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, ok := s2.Get("aaaa"); ok {
		t.Error("failed commit resurrected")
	}
	if st := s2.Stats(); st.Quarantined != 1 {
		t.Errorf("stats = %+v, want the unclaimed segment quarantined", st)
	}
	if _, err := os.Stat(filepath.Join(dir, quarantineDir, segName("aaaa"))); err != nil {
		t.Errorf("unclaimed segment not in quarantine: %v", err)
	}
}

// TestCheckpointSetFollowsDisk: the checkpoints recovery finds at Open
// are the ones Checkpoint returns; a commit removes both the file and the
// set entry, and Stats().Checkpoints follows each step. A checkpoint file
// that appears after Open is not consulted: the set answers alone.
func TestCheckpointSetFollowsDisk(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	crashWriter(t, s, "deadbeef", "mcf", 3)
	crashWriter(t, s, "cafe", "gcc", 2)
	s.Close()

	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if st := s2.Stats(); st.Checkpoints != 2 {
		t.Fatalf("stats = %+v, want 2 checkpoints", st)
	}
	if ck := s2.Checkpoint("deadbeef"); len(ck) != 3 {
		t.Fatalf("salvaged checkpoint holds %d records, want 3", len(ck))
	}

	raw, err := os.ReadFile(s2.checkpointPath("deadbeef"))
	if err != nil {
		t.Fatal(err)
	}
	late := s2.checkpointPath("f00d")
	if err := os.WriteFile(late, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if ck := s2.Checkpoint("f00d"); ck != nil {
		t.Errorf("checkpoint written after Open returned %d records, want none", len(ck))
	}
	s2.ClearCheckpoint("f00d")
	if _, err := os.Stat(late); err != nil {
		t.Errorf("ClearCheckpoint touched a fingerprint outside the set: %v", err)
	}

	w, err := s2.Begin("deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]core.RunRecord{testRecords("mcf", 1)[0]}); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(s2.checkpointPath("deadbeef")); !os.IsNotExist(err) {
		t.Errorf("commit left the checkpoint file (stat err %v)", err)
	}
	if s2.hasCheckpoint("deadbeef") {
		t.Error("commit left the fingerprint in the checkpoint set")
	}
	if st := s2.Stats(); st.Checkpoints != 1 {
		t.Errorf("stats after commit = %+v, want 1 checkpoint", st)
	}

	s2.ClearCheckpoint("cafe")
	if _, err := os.Stat(s2.checkpointPath("cafe")); !os.IsNotExist(err) {
		t.Errorf("ClearCheckpoint left the file (stat err %v)", err)
	}
	if st := s2.Stats(); st.Checkpoints != 0 {
		t.Errorf("stats after clear = %+v, want 0 checkpoints", st)
	}
}
