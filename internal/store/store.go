// Package store is the durable characterization store behind campaignd: an
// append-only, fingerprint-keyed segment log of core.RunRecords in the
// CRC-framed binary wire format (internal/wire).
// The paper's premise is that characterization is expensive — hours of Vmin
// descent per (benchmark, board) — so a finished campaign's records must
// survive daemon restarts and cache eviction instead of being re-measured.
//
// Layout (everything lives under Options.Dir):
//
//	MANIFEST.jsonl        append-only journal of put/touch/del/begin/end
//	                      operations; replaying it yields the fingerprint ->
//	                      segment index with a summary per entry, the LRU
//	                      order, and the submission intents still pending
//	seg-<fp>.bin          one committed segment per characterization: the
//	                      campaign's records in the binary wire format;
//	                      loads re-render the canonical JSONL, so a replay
//	                      is byte-identical to the live NDJSON stream that
//	                      produced it
//	seg-<fp>.bin.tmp      a campaign still being written (crash debris if
//	                      one survives a restart)
//	ckpt-<fp>             a checkpoint: the intact record prefix salvaged
//	                      from a crashed campaign's .tmp segment, in the
//	                      same binary framing, so the campaign can resume
//	                      from its completed records instead of re-running
//	quarantine/           segments recovery refused to trust, kept for
//	                      forensics instead of deleted (bounded by
//	                      Options.QuarantineMaxFiles/Bytes)
//
// Crash safety. A segment is written to a .tmp file while the campaign
// runs, then fsync'd, renamed into place, and only after the directory
// itself is fsync'd does a "put" line (fsync'd too) enter the manifest —
// so a manifest entry always names a fully durable segment. Recovery
// (Open) distrusts everything anyway: the manifest is parsed with prefix
// salvage (a line truncated by a crash drops, the intact prefix stands)
// and a put naming anything but seg-<fp>.bin is dropped, leftover .tmp
// files have their intact record prefix salvaged into a checkpoint (the
// wire reader's prefix-salvage contract), seg-* files the manifest doesn't
// claim are quarantined, and so is every claimed segment whose size
// differs from its manifest line. Boot reads no segment: a load checks
// record count and CRCs when the bytes are used. Either way a damaged
// segment's entry is dropped, so the campaign simply re-runs while intact
// ones replay. The same rules upgrade a store written before binary
// became the only format: its seg-<fp>.jsonl files lose their claims, are
// quarantined, and re-run on demand; likewise a separate INTENT.jsonl left
// by a daemon that journaled intents outside the manifest is quarantined.
// The writer flushes its buffer after every Frames batch (one campaign
// shard), so the bytes a crash can lose are bounded to the batch being
// written.
//
// Intents. The manifest is also the caller's write-ahead journal of
// accepted work: BeginIntent journals a fingerprint with opaque meta
// (fsync'd) before the work starts, EndIntent marks it terminal (flushed,
// not fsync'd), and Intents lists the begins a crash left without an end,
// in submission order, so the next process can requeue them.
//
// Compaction. The store is size/count-bounded (Options.MaxSegments,
// MaxBytes): committing past a bound evicts least-recently-used segments
// first, taken in O(1) from the front of one recency list. Commits, loads
// and Touch move an entry to its back; the serving registry touches on
// every cache hit, so both layers share one order. The manifest journal
// itself is compacted (rewritten to pure puts and pending begins) on Open,
// and in-process on Touch and EndIntent, once touch/del/end churn has
// bloated it.
//
// Fault injection. The hot durability transitions are instrumented as
// fault sites (store.write, store.fsync, store.rename, store.dirsync) so
// chaos plans can fail or crash exact calls; see internal/fault.
package store

import (
	"bufio"
	"bytes"
	"container/list"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/wire"
)

const (
	manifestName = "MANIFEST.jsonl"
	// legacyIntentName is the separate intent journal older daemons kept
	// beside the manifest (and its rewrite file); boot quarantines both.
	legacyIntentName = "INTENT.jsonl"
	quarantineDir    = "quarantine"
	segPrefix        = "seg-"
	segSuffix        = ".bin"
	tmpSuffix        = ".tmp"
	ckptPrefix       = "ckpt-"
)

func init() {
	fault.Register("store.write")
	fault.Register("store.fsync")
	fault.Register("store.rename")
	fault.Register("store.dirsync")
}

// Options parameterizes a Store.
type Options struct {
	// Dir is the store directory; created (with its quarantine
	// subdirectory) if missing.
	Dir string
	// MaxSegments bounds how many committed segments are retained; zero
	// means unbounded. Commits past the bound evict LRU segments.
	MaxSegments int
	// MaxBytes bounds the total committed segment bytes; zero means
	// unbounded. The newest segment is never evicted by its own commit,
	// so one oversized campaign can transiently exceed the bound.
	MaxBytes int64
	// QuarantineMaxFiles bounds how many files quarantine/ retains; zero
	// means unbounded. Oldest files are evicted first.
	QuarantineMaxFiles int
	// QuarantineMaxBytes bounds quarantine/'s total size; zero means
	// unbounded. Oldest files are evicted first.
	QuarantineMaxBytes int64
}

// Entry is one committed characterization: where its records live and the
// summary its manifest line carries.
type Entry struct {
	// Fingerprint is the characterization cache key (the serving layer's
	// spec fingerprint).
	Fingerprint string
	// Segment is the segment file name within the store directory.
	Segment string
	// Records is the record count the segment was committed with; every
	// load re-checks it.
	Records int
	// Bytes is the segment's committed size.
	Bytes int64
	// Meta is the caller's opaque summary (the daemon persists the spec
	// and campaign bookkeeping here, so a restarted registry can rebuild
	// its view without opening the segment).
	Meta json.RawMessage
	// elem is the entry's place on the store's recency list.
	elem *list.Element
}

// Intent is an accepted unit of work journaled by BeginIntent and not yet
// ended: the caller's opaque meta under a path-safe fingerprint.
type Intent struct {
	Fingerprint string
	Meta        json.RawMessage
}

// Stats summarizes the store for monitoring; campaignd serves it under
// "store" in GET /stats.
type Stats struct {
	// Segments and Bytes cover committed, trusted segments.
	Segments int   `json:"segments"`
	Bytes    int64 `json:"bytes"`
	// Quarantined counts segments this Store moved aside: damaged or
	// orphaned files found by recovery plus segments that failed a later
	// load.
	Quarantined int `json:"quarantined"`
	// Compactions counts segments evicted by the size/count bounds.
	Compactions int `json:"compactions"`
	// Checkpoints counts live ckpt-<fp> files: crashed campaigns whose
	// completed records await a resume.
	Checkpoints int `json:"checkpoints,omitempty"`
	// QuarantineFiles and QuarantineBytes size the quarantine/ directory
	// as currently on disk (after any bound-driven eviction).
	QuarantineFiles int   `json:"quarantine_files,omitempty"`
	QuarantineBytes int64 `json:"quarantine_bytes,omitempty"`
}

// manifestOp is one journal line.
type manifestOp struct {
	// Op is "put" (segment committed), "touch" (LRU bump), "del"
	// (segment evicted/quarantined), "begin" (intent journaled) or "end"
	// (intent terminal).
	Op          string          `json:"op"`
	Fingerprint string          `json:"fp"`
	Segment     string          `json:"segment,omitempty"`
	Records     int             `json:"records,omitempty"`
	Bytes       int64           `json:"bytes,omitempty"`
	Meta        json.RawMessage `json:"meta,omitempty"`
}

// Store is the durable characterization store. All methods are safe for
// concurrent use.
type Store struct {
	opts Options

	// m holds the store's counters; segments and bytes run in step with
	// entries, and quarantine bytes with the quarantine/ directory.
	m *metrics

	// dir is the store directory, held open from Open to Close for the
	// directory fsyncs that make renames durable.
	dir *os.File

	mu       sync.Mutex
	manifest *os.File
	bw       *bufio.Writer
	entries  map[string]*Entry
	lru      *list.List // of *Entry, least recently used at the front
	intents  []Intent   // pending begins, submission order
	ops      int        // journal lines since the last rewrite
	// checkpoints is the set of fingerprints with a ckpt-<fp> file. Only
	// recovery at Open writes checkpoints, so a fingerprint outside the
	// set has none and Checkpoint/ClearCheckpoint need not ask the disk.
	checkpoints map[string]struct{}
	quarFiles   int
	closed      bool
}

// Open opens (creating if necessary) the store at opts.Dir and runs crash
// recovery: the manifest is replayed with prefix salvage, and orphaned or
// wrongly sized segments are quarantined (records are verified when
// loaded). The bounds in opts are enforced immediately, so reopening with
// tighter limits compacts on the spot.
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, errors.New("store: no directory")
	}
	if err := os.MkdirAll(filepath.Join(opts.Dir, quarantineDir), 0o755); err != nil {
		return nil, fmt.Errorf("store: create %s: %w", opts.Dir, err)
	}
	dir, err := os.Open(opts.Dir)
	if err != nil {
		return nil, fmt.Errorf("store: open %s: %w", opts.Dir, err)
	}
	s := &Store{
		opts: opts, m: newMetrics(), dir: dir,
		entries: make(map[string]*Entry), lru: list.New(), checkpoints: make(map[string]struct{}),
	}
	if err := s.recover(); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// recover is Open's crash recovery, up to an open, compacted journal.
func (s *Store) recover() error {
	dirty, err := s.replayManifest()
	if err != nil {
		return err
	}
	if err := s.sweepDir(&dirty); err != nil {
		return err
	}
	if err := s.verifySegments(&dirty); err != nil {
		return err
	}
	if err := s.pruneQuarantine(); err != nil {
		return err
	}

	// Rewrite the journal when recovery changed the picture or churn has
	// bloated it past twice the live entries plus pending intents;
	// otherwise append.
	if dirty || s.journalBloatedLocked() {
		if err := s.rewriteManifest(); err != nil {
			return err
		}
	}
	if s.manifest == nil {
		f, err := os.OpenFile(s.manifestPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("store: open manifest: %w", err)
		}
		s.manifest = f
		s.bw = bufio.NewWriter(f)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compactLocked()
}

func (s *Store) manifestPath() string { return filepath.Join(s.opts.Dir, manifestName) }

// segName is the segment file name for a fingerprint.
func segName(fp string) string { return segPrefix + fp + segSuffix }

// readSegmentFile reads a segment or checkpoint back into frames. The file
// is read whole (a segment is a few KB) and handed over as a
// *bytes.Buffer, which wire.ReadSegment decodes in place, without a copy.
func readSegmentFile(path string) ([]core.Frame, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return wire.ReadSegment(bytes.NewBuffer(b))
}

// validFingerprint keeps fingerprints path-safe: they become file names.
func validFingerprint(fp string) error {
	if fp == "" {
		return errors.New("store: empty fingerprint")
	}
	for _, r := range fp {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
		default:
			return fmt.Errorf("store: fingerprint %q is not path-safe", fp)
		}
	}
	return nil
}

// replayManifest rebuilds the index from the journal, salvaging the intact
// prefix of a crash-damaged file. dirty reports whether the on-disk journal
// no longer matches the index (salvage happened).
func (s *Store) replayManifest() (dirty bool, err error) {
	data, err := os.ReadFile(s.manifestPath())
	if errors.Is(err, os.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("store: read manifest: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var op manifestOp
		if uerr := json.Unmarshal([]byte(line), &op); uerr != nil {
			// A crash mid-append truncates the final line; anything
			// unparseable mid-file means the journal beyond it cannot be
			// trusted either. Keep the intact prefix, drop the rest.
			return true, nil
		}
		s.ops++
		switch op.Op {
		case "put":
			if validFingerprint(op.Fingerprint) != nil || op.Segment != segName(op.Fingerprint) {
				// Not a segment this store writes (an older format's, or a
				// corrupt line): drop the claim and leave any file to the
				// orphan sweep, so no path is taken from the journal.
				dirty = true
				continue
			}
			s.putEntryLocked(&Entry{
				Fingerprint: op.Fingerprint,
				Segment:     op.Segment,
				Records:     op.Records,
				Bytes:       op.Bytes,
				Meta:        op.Meta,
			})
		case "touch":
			if e := s.entries[op.Fingerprint]; e != nil {
				s.lru.MoveToBack(e.elem)
			}
		case "del":
			s.dropEntryLocked(op.Fingerprint)
		case "begin":
			if validFingerprint(op.Fingerprint) != nil {
				dirty = true
				continue
			}
			s.beginLocked(Intent{Fingerprint: op.Fingerprint, Meta: op.Meta})
		case "end":
			s.endLocked(op.Fingerprint)
		}
	}
	// A journal not ending in a newline had its tail torn off even if the
	// bytes so far parsed.
	return dirty || len(data) > 0 && data[len(data)-1] != '\n', nil
}

// sweepDir handles crash debris. A .tmp segment from a campaign that
// never committed has its intact record prefix salvaged into a
// ckpt-<fp> checkpoint (so the campaign can resume from its completed
// records) unless the fingerprint is already committed; an unreadable
// .tmp, any other seg-* file the manifest does not claim (a crash between
// rename and manifest append, or a segment from an older format), and
// checkpoints obsoleted by a commit are quarantined or removed.
func (s *Store) sweepDir(dirty *bool) error {
	claimed := make(map[string]bool, len(s.entries))
	for _, e := range s.entries {
		claimed[e.Segment] = true
	}
	names, err := os.ReadDir(s.opts.Dir)
	if err != nil {
		return fmt.Errorf("store: scan %s: %w", s.opts.Dir, err)
	}
	for _, de := range names {
		name := de.Name()
		if de.IsDir() || name == manifestName {
			continue
		}
		switch {
		case strings.HasPrefix(name, legacyIntentName):
			if err := s.quarantine(name); err != nil {
				return err
			}
		case strings.HasPrefix(name, segPrefix) && strings.HasSuffix(name, tmpSuffix):
			if err := s.salvageTmp(name); err != nil {
				return err
			}
		case strings.HasPrefix(name, ckptPrefix):
			fp := strings.TrimPrefix(name, ckptPrefix)
			if _, committed := s.entries[fp]; committed {
				// The campaign finished after all; the checkpoint is
				// obsolete.
				if err := os.Remove(filepath.Join(s.opts.Dir, name)); err != nil {
					return fmt.Errorf("store: drop stale checkpoint %s: %w", name, err)
				}
			} else {
				s.checkpoints[fp] = struct{}{}
			}
		case strings.HasPrefix(name, segPrefix) && !claimed[name]:
			if err := s.quarantine(name); err != nil {
				return err
			}
			*dirty = true
		}
	}
	return nil
}

// tmpFingerprint recovers the fingerprint from a .tmp segment name, or ""
// if the name does not parse.
func tmpFingerprint(name string) string {
	fp, ok := strings.CutSuffix(strings.TrimPrefix(name, segPrefix), segSuffix+tmpSuffix)
	if !ok || validFingerprint(fp) != nil {
		return ""
	}
	return fp
}

// salvageTmp turns an uncommitted .tmp segment into a resume checkpoint:
// the intact record prefix (wire.ReadSegment's salvage contract tolerates
// a torn tail) is written to ckpt-<fp>, fsync'd, and the .tmp removed. A
// .tmp with no salvageable records, an unparseable name, or a fingerprint
// that already has a committed segment is quarantined as before.
func (s *Store) salvageTmp(name string) error {
	fp := tmpFingerprint(name)
	_, committed := s.entries[fp]
	var frames []core.Frame
	if fp != "" && !committed {
		var err error
		frames, err = readSegmentFile(filepath.Join(s.opts.Dir, name))
		var re *wire.ReadError
		if err != nil && !errors.As(err, &re) {
			frames = nil // unreadable outright; quarantine below
		}
	}
	if len(frames) == 0 {
		return s.quarantine(name)
	}
	if prev, err := s.readCheckpoint(fp); err == nil && len(prev) >= len(frames) {
		// A previous crash already salvaged at least this much (the .tmp
		// of a resumed run replays the full prefix, so newer is normally
		// longer); keep the longer checkpoint.
		if err := os.Remove(filepath.Join(s.opts.Dir, name)); err != nil {
			return fmt.Errorf("store: drop salvaged %s: %w", name, err)
		}
		return nil
	}
	if err := s.writeCheckpoint(fp, frames); err != nil {
		return err
	}
	if err := os.Remove(filepath.Join(s.opts.Dir, name)); err != nil {
		return fmt.Errorf("store: drop salvaged %s: %w", name, err)
	}
	s.m.checkpoints.Inc()
	return nil
}

// checkpointPath is the checkpoint file for a fingerprint.
func (s *Store) checkpointPath(fp string) string {
	return filepath.Join(s.opts.Dir, ckptPrefix+fp)
}

// writeCheckpoint persists frames as a binary checkpoint, fsync'd, and
// adds fp to the checkpoint set.
func (s *Store) writeCheckpoint(fp string, frames []core.Frame) error {
	f, err := os.OpenFile(s.checkpointPath(fp), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: write checkpoint %s: %w", fp, err)
	}
	buf := wire.Header()
	for _, fr := range frames {
		if buf, err = wire.AppendBinaryRecord(buf, fr.Rec); err != nil {
			f.Close()
			return fmt.Errorf("store: encode checkpoint %s: %w", fp, err)
		}
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return fmt.Errorf("store: write checkpoint %s: %w", fp, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: sync checkpoint %s: %w", fp, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: close checkpoint %s: %w", fp, err)
	}
	s.checkpoints[fp] = struct{}{}
	return nil
}

// readCheckpoint loads a checkpoint's frames; os.ErrNotExist when none.
// A checkpoint torn by yet another crash yields its intact prefix.
func (s *Store) readCheckpoint(fp string) ([]core.Frame, error) {
	frames, err := readSegmentFile(s.checkpointPath(fp))
	var re *wire.ReadError
	if err != nil && errors.As(err, &re) && len(frames) > 0 {
		return frames, nil
	}
	return frames, err
}

// Checkpoint returns the completed records salvaged from a crashed
// campaign for this fingerprint, as frames carrying their canonical
// JSONL lines, or nil when no checkpoint exists. Callers that resume
// should replay (a prefix of) these frames through Resume and clear the
// checkpoint once the resumed segment commits (Commit does this
// automatically). A fingerprint recovery found no checkpoint for costs no
// filesystem call.
func (s *Store) Checkpoint(fp string) []core.Frame {
	if !s.hasCheckpoint(fp) {
		return nil
	}
	frames, err := s.readCheckpoint(fp)
	if err != nil {
		return nil
	}
	return frames
}

// ClearCheckpoint drops a fingerprint's checkpoint, if any.
func (s *Store) ClearCheckpoint(fp string) {
	if !s.hasCheckpoint(fp) {
		return
	}
	if err := os.Remove(s.checkpointPath(fp)); err == nil || errors.Is(err, os.ErrNotExist) {
		s.mu.Lock()
		delete(s.checkpoints, fp)
		s.mu.Unlock()
	}
}

// hasCheckpoint reports whether fp is in the checkpoint set. Only valid
// fingerprints ever enter it.
func (s *Store) hasCheckpoint(fp string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.checkpoints[fp]
	return ok
}

// Resume begins a fresh segment writer for fp and replays the given
// frames (normally a prefix of Checkpoint(fp)) into it, handing back a
// writer positioned to append the campaign's remaining records. The
// rewrite-from-zero keeps every durability invariant of a normal Begin:
// the .tmp is truncated, so a second crash just salvages again.
func (s *Store) Resume(fp string, frames []core.Frame) (*Writer, error) {
	w, err := s.Begin(fp)
	if err != nil {
		return nil, err
	}
	if err := w.Frames(frames); err != nil {
		w.Abort()
		return nil, err
	}
	return w, nil
}

// pruneQuarantine sizes the quarantine/ directory from disk, evidence
// left by earlier processes included, and evicts the oldest files until
// the configured bounds hold. Forensics lose to disk safety: a
// crash-looping daemon must not fill the disk with copies of the same torn
// segment.
func (s *Store) pruneQuarantine() error {
	dir := filepath.Join(s.opts.Dir, quarantineDir)
	des, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("store: scan quarantine: %w", err)
	}
	type qfile struct {
		name string
		size int64
		mod  time.Time
	}
	var files []qfile
	var total int64
	for _, de := range des {
		info, err := de.Info()
		if err != nil {
			continue
		}
		files = append(files, qfile{de.Name(), info.Size(), info.ModTime()})
		total += info.Size()
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mod.Before(files[j].mod) })
	for len(files) > 0 {
		over := (s.opts.QuarantineMaxFiles > 0 && len(files) > s.opts.QuarantineMaxFiles) ||
			(s.opts.QuarantineMaxBytes > 0 && total > s.opts.QuarantineMaxBytes)
		if !over {
			break
		}
		victim := files[0]
		if err := os.Remove(filepath.Join(dir, victim.name)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("store: prune quarantine %s: %w", victim.name, err)
		}
		files = files[1:]
		total -= victim.size
	}
	s.quarFiles = len(files)
	s.m.quarantineBytes.Set(total)
	return nil
}

// verifySegments stats every claimed segment and drops (quarantining) any
// whose size no longer matches its manifest line: a torn tail or a lost
// file. It reads no segment; a load checks records and CRCs when the
// bytes are used, so boot cost does not grow with the records stored.
func (s *Store) verifySegments(dirty *bool) error {
	for fp, e := range s.entries {
		fi, err := os.Stat(filepath.Join(s.opts.Dir, e.Segment))
		if err == nil && fi.Size() == e.Bytes {
			continue
		}
		if err == nil {
			if err := s.quarantine(e.Segment); err != nil {
				return err
			}
		}
		s.dropEntryLocked(fp)
		*dirty = true
	}
	return nil
}

// quarantine moves a file under quarantine/, uniquifying the target name
// so repeated recoveries never clobber earlier evidence, then resizes the
// directory and prunes it back under its configured bounds (oldest
// evicted first).
func (s *Store) quarantine(name string) error {
	src := filepath.Join(s.opts.Dir, name)
	dst := filepath.Join(s.opts.Dir, quarantineDir, name)
	for i := 1; ; i++ {
		if _, err := os.Stat(dst); errors.Is(err, os.ErrNotExist) {
			break
		}
		dst = filepath.Join(s.opts.Dir, quarantineDir, fmt.Sprintf("%s.%d", name, i))
	}
	if err := os.Rename(src, dst); err != nil {
		return fmt.Errorf("store: quarantine %s: %w", name, err)
	}
	s.m.quarantined.Inc()
	return s.pruneQuarantine()
}

// rewriteManifest atomically replaces the journal with one put line per
// live entry, in LRU order, followed by one begin line per pending intent,
// in submission order. The replacement is built completely before
// the old handle is released, so a failure partway leaves the old journal
// open and untouched; every put/del it replaces was fsync'd at append
// time, and buffered residue can only be advisory touches.
func (s *Store) rewriteManifest() error {
	tmp := s.manifestPath() + tmpSuffix
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: rewrite manifest: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for el := s.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*Entry)
		if err := enc.Encode(manifestOp{
			Op: "put", Fingerprint: e.Fingerprint, Segment: e.Segment,
			Records: e.Records, Bytes: e.Bytes, Meta: e.Meta,
		}); err != nil {
			f.Close()
			return fmt.Errorf("store: rewrite manifest: %w", err)
		}
	}
	for _, in := range s.intents {
		if err := enc.Encode(manifestOp{Op: "begin", Fingerprint: in.Fingerprint, Meta: in.Meta}); err != nil {
			f.Close()
			return fmt.Errorf("store: rewrite manifest: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("store: rewrite manifest: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: sync manifest: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: close manifest: %w", err)
	}
	if s.manifest != nil {
		s.manifest.Close()
		s.manifest = nil
	}
	if err := os.Rename(tmp, s.manifestPath()); err != nil {
		return fmt.Errorf("store: install manifest: %w", err)
	}
	if err := s.syncDir(); err != nil {
		return err
	}
	s.ops = len(s.entries) + len(s.intents)
	g, err := os.OpenFile(s.manifestPath(), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: reopen manifest: %w", err)
	}
	s.manifest = g
	s.bw = bufio.NewWriter(g)
	return nil
}

// journalBloatedLocked reports whether touch/del/end churn has outgrown
// the live entries plus pending intents enough to warrant a rewrite.
// Callers hold s.mu.
func (s *Store) journalBloatedLocked() bool {
	return s.ops > 2*(len(s.entries)+len(s.intents))+64
}

// appendOpLocked journals one operation. fsync only when asked: puts and
// dels must be durable before they take effect, touches are advisory (a
// crash loses at most recency, never records).
func (s *Store) appendOpLocked(op manifestOp, sync bool) error {
	if s.closed {
		return errors.New("store: closed")
	}
	if s.manifest == nil {
		// A failed journal rewrite could not reopen the manifest; fail
		// loudly rather than journaling into the void.
		return errors.New("store: manifest unavailable")
	}
	data, err := json.Marshal(op)
	if err != nil {
		return fmt.Errorf("store: encode manifest op: %w", err)
	}
	if _, err := s.bw.Write(append(data, '\n')); err != nil {
		return fmt.Errorf("store: append manifest: %w", err)
	}
	s.ops++
	if !sync {
		return nil
	}
	if err := s.bw.Flush(); err != nil {
		return fmt.Errorf("store: flush manifest: %w", err)
	}
	if err := s.manifest.Sync(); err != nil {
		return fmt.Errorf("store: sync manifest: %w", err)
	}
	return nil
}

// Writer streams one campaign's records into an uncommitted segment. It
// implements core.Sink, so the engine's frame batches reach it directly: it
// frames the already-decoded records without JSON work.
// Exactly one of Commit or Abort must be called.
type Writer struct {
	st      *Store
	fp      string
	f       *os.File
	bw      *bufio.Writer
	scratch []byte
	records int
	bytes   int64
	done    bool
}

// Begin opens a segment writer for a fingerprint. The segment becomes
// visible (and durable) only at Commit; a crash before that leaves .tmp
// debris that the next Open salvages into a checkpoint or quarantines.
func (s *Store) Begin(fp string) (*Writer, error) {
	if err := validFingerprint(fp); err != nil {
		return nil, err
	}
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return nil, errors.New("store: closed")
	}
	path := filepath.Join(s.opts.Dir, segName(fp)+tmpSuffix)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: begin segment %s: %w", fp, err)
	}
	// The header goes straight into the buffer, outside the store.write
	// fault site, so a fault plan's store.write:...@N counts records.
	hdr := wire.Header()
	w := &Writer{st: s, fp: fp, f: f, bw: bufio.NewWriter(f), bytes: int64(len(hdr))}
	w.bw.Write(hdr) // a bufio write into an empty buffer cannot fail
	return w, nil
}

// write appends raw bytes to the segment, tracking the committed size.
func (w *Writer) write(p []byte) error {
	if err := fault.Inject("store.write"); err != nil {
		return fmt.Errorf("store: write segment: %w", err)
	}
	n, err := w.bw.Write(p)
	w.bytes += int64(n)
	if err != nil {
		return fmt.Errorf("store: write segment: %w", err)
	}
	return nil
}

// Frames implements core.Sink: the segment stores the decoded records,
// not the pre-rendered lines, which replay re-renders. The batch is
// appended record by record (each through the store.write fault site) and
// flushed once, so one campaign shard costs one write syscall; a crash
// mid-batch loses only that batch — the write syscall puts the bytes in
// the page cache, which survives process death (fsync still only happens
// at Commit; power loss can cost the whole uncommitted segment either way,
// which recovery already tolerates). On error, Records tells how many of
// the batch's records made it in: a retry resumes with the first one that
// did not.
func (w *Writer) Frames(batch []core.Frame) error {
	if w.done {
		return errors.New("store: segment writer already finished")
	}
	for _, f := range batch {
		var err error
		if w.scratch, err = wire.AppendBinaryRecord(w.scratch[:0], f.Rec); err != nil {
			return fmt.Errorf("store: encode record: %w", err)
		}
		if err := w.write(w.scratch); err != nil {
			return err
		}
		w.records++
	}
	if err := w.bw.Flush(); err != nil {
		return fmt.Errorf("store: flush segment: %w", err)
	}
	return nil
}

// Records returns how many records the writer has appended so far.
func (w *Writer) Records() int { return w.records }

var _ core.Sink = (*Writer)(nil)

// Commit makes the segment durable and indexes it under the fingerprint:
// flush + fsync the segment, rename it into place, fsync the directory,
// then journal the put (fsync'd) with the caller's opaque meta. A commit
// may trigger compaction of older segments.
func (w *Writer) Commit(meta json.RawMessage) error {
	if w.done {
		return errors.New("store: segment writer already finished")
	}
	w.done = true
	commitStart := time.Now()
	if err := w.bw.Flush(); err != nil {
		w.f.Close()
		return fmt.Errorf("store: flush segment: %w", err)
	}
	if err := fault.Inject("store.fsync"); err != nil {
		w.f.Close()
		return fmt.Errorf("store: sync segment: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return fmt.Errorf("store: sync segment: %w", err)
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("store: close segment: %w", err)
	}
	s, name := w.st, segName(w.fp)
	final := filepath.Join(s.opts.Dir, name)
	if err := fault.Inject("store.rename"); err != nil {
		return fmt.Errorf("store: install segment: %w", err)
	}
	if err := os.Rename(final+tmpSuffix, final); err != nil {
		return fmt.Errorf("store: install segment: %w", err)
	}
	if err := s.syncDir(); err != nil {
		return err
	}
	// The commit supersedes any crash checkpoint for this fingerprint.
	s.ClearCheckpoint(w.fp)

	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.appendOpLocked(manifestOp{
		Op: "put", Fingerprint: w.fp, Segment: name,
		Records: w.records, Bytes: w.bytes, Meta: meta,
	}, true); err != nil {
		return err
	}
	s.putEntryLocked(&Entry{
		Fingerprint: w.fp, Segment: name,
		Records: w.records, Bytes: w.bytes, Meta: meta,
	})
	err := s.compactLocked()
	if err == nil {
		s.m.commits.Inc()
		s.m.commitSeconds.Observe(time.Since(commitStart))
	}
	return err
}

// Adopt commits a segment replicated from a fleet peer as if this store had
// written it: body is the peer's segment file (LoadSegment), stored byte
// for byte through the store.write fault site and a local commit's
// flush/fsync/rename/put path. Checking body against records
// (wire.SegmentRecords) and meta against fp is the caller's job.
func (s *Store) Adopt(fp string, meta json.RawMessage, body []byte, records int) error {
	hdr := wire.Header()
	if !bytes.HasPrefix(body, hdr) {
		return fmt.Errorf("store: adopt %s: not a binary segment", fp)
	}
	w, err := s.Begin(fp)
	if err != nil {
		return err
	}
	if err := w.write(body[len(hdr):]); err != nil {
		w.Abort()
		return err
	}
	w.records = records
	return w.Commit(meta)
}

// Abort discards the uncommitted segment.
func (w *Writer) Abort() error {
	if w.done {
		return nil
	}
	w.done = true
	w.f.Close()
	path := filepath.Join(w.st.opts.Dir, segName(w.fp)+tmpSuffix)
	if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("store: abort segment: %w", err)
	}
	return nil
}

// Get returns the entry for a fingerprint, if committed.
func (s *Store) Get(fp string) (Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entries[fp]
	if e == nil {
		return Entry{}, false
	}
	return *e, true
}

// Entries snapshots every committed entry, least-recently-used first —
// the order a warm-loading registry should admit them in, so its own LRU
// clock ends up agreeing with the store's.
func (s *Store) Entries() []Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Entry, 0, s.lru.Len())
	for el := s.lru.Front(); el != nil; el = el.Next() {
		out = append(out, *el.Value.(*Entry))
	}
	return out
}

// LoadFrames reads a fingerprint's segment back as frames, each record with
// its canonical JSONL line. Verification, quarantine and recency are
// load's.
func (s *Store) LoadFrames(fp string) ([]core.Frame, error) {
	var frames []core.Frame
	_, err := s.load(fp, func(b []byte) (n int, err error) {
		frames, err = wire.ReadSegment(bytes.NewBuffer(b))
		return len(frames), err
	})
	if err != nil {
		return nil, err
	}
	return frames, nil
}

// LoadLines appends the segment's canonical JSONL lines to lines and their
// end offsets to ends (wire.AppendSegmentLines), which is all a replaying
// subscriber reads: byte-identical to the original live stream. On error
// lines and ends come back as passed in. Verification, quarantine and
// recency are load's.
func (s *Store) LoadLines(fp string, lines []byte, ends []int) ([]byte, []int, error) {
	l, e := lines, ends
	_, err := s.load(fp, func(b []byte) (int, error) {
		var err error
		l, e, err = wire.AppendSegmentLines(lines, ends, bytes.NewBuffer(b))
		return len(e) - len(ends), err
	})
	if err != nil {
		return lines, ends, err
	}
	return l, e, nil
}

// LoadSegment returns fp's segment file verbatim, checked record by record
// without rendering a line, and its entry: what a fleet peer adopts.
// Verification, quarantine and recency are load's.
func (s *Store) LoadSegment(fp string) ([]byte, Entry, error) {
	var seg []byte
	e, err := s.load(fp, func(b []byte) (int, error) {
		seg = b
		return wire.SegmentRecords(b)
	})
	if err != nil {
		return nil, Entry{}, err
	}
	return seg, e, nil
}

// load reads fp's segment file and hands it to read, which reports how many
// records it read, and returns the entry the file was checked against. A
// segment that fails verification against its manifest line (damaged after
// boot) is quarantined and its entry dropped, so the caller can fall back
// to re-running the campaign. A failure to even open the segment is
// treated as transient (fd exhaustion, permissions): the entry survives,
// because forgetting a durable characterization over a retryable error
// would force exactly the re-run the store exists to prevent. Loading
// counts as a use for the LRU order.
func (s *Store) load(fp string, read func([]byte) (int, error)) (Entry, error) {
	e, ok := s.Get(fp)
	if !ok {
		return Entry{}, fmt.Errorf("store: unknown fingerprint %s", fp)
	}
	b, err := os.ReadFile(filepath.Join(s.opts.Dir, e.Segment))
	n := 0
	if err == nil {
		n, err = read(b)
	}
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		var re *wire.ReadError
		if !errors.As(err, &re) {
			// Could not open or read the file at all: transient.
			return Entry{}, fmt.Errorf("store: load %s: %w", fp, err)
		}
	}
	if err == nil && n != e.Records {
		err = fmt.Errorf("store: segment %s holds %d records, manifest says %d", e.Segment, n, e.Records)
	}
	if err != nil {
		s.mu.Lock()
		defer s.mu.Unlock()
		if _, statErr := os.Stat(filepath.Join(s.opts.Dir, e.Segment)); statErr == nil {
			if qerr := s.quarantine(e.Segment); qerr != nil {
				return Entry{}, qerr
			}
		}
		s.dropEntryLocked(fp)
		if derr := s.appendOpLocked(manifestOp{Op: "del", Fingerprint: fp}, true); derr != nil {
			return Entry{}, derr
		}
		return Entry{}, fmt.Errorf("store: load %s: %w", fp, err)
	}
	s.m.segmentLoads.Inc()
	s.Touch(fp)
	return e, nil
}

// Touch moves a fingerprint to the most recently used end of the store's
// recency order. The journal line is buffered, not fsync'd: losing recency
// in a crash is harmless. Touches are unbounded journal traffic (one per
// cache hit on a hot stored fingerprint, for the daemon's whole lifetime),
// so this is also where the journal is compacted in-process once churn
// outgrows the live set — waiting for the next Open would let it grow
// without limit.
func (s *Store) Touch(fp string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entries[fp]
	if e == nil || s.closed {
		return
	}
	s.lru.MoveToBack(e.elem)
	_ = s.appendOpLocked(manifestOp{Op: "touch", Fingerprint: fp}, false)
	s.compactJournalLocked()
}

// compactJournalLocked rewrites the journal once churn has bloated it.
// Best effort: a failed rewrite leaves the old journal appendable, and the
// lines it would have dropped are all redundant. Callers hold s.mu.
func (s *Store) compactJournalLocked() {
	if s.journalBloatedLocked() {
		_ = s.rewriteManifest()
	}
}

// BeginIntent durably journals accepted work under fp before it starts:
// the begin line is fsync'd, so the work survives a crash as an intent the
// next Open lists. Beginning an already pending fingerprint replaces its
// meta and keeps its place in submission order.
func (s *Store) BeginIntent(fp string, meta json.RawMessage) error {
	if err := validFingerprint(fp); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.appendOpLocked(manifestOp{Op: "begin", Fingerprint: fp, Meta: meta}, true); err != nil {
		return err
	}
	s.beginLocked(Intent{Fingerprint: fp, Meta: meta})
	return nil
}

// EndIntent marks fp's intent terminal. The end line is flushed to the
// file, so a process kill keeps it, but not fsync'd: losing one to power
// loss only requeues work whose outcome (a committed segment, or a failure
// the caller re-runs on demand) terminates it again at once. Ends are the
// unbounded intent traffic, so this is also where the journal compacts.
func (s *Store) EndIntent(fp string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.endLocked(fp)
	if s.appendOpLocked(manifestOp{Op: "end", Fingerprint: fp}, false) == nil {
		_ = s.bw.Flush()
	}
	s.compactJournalLocked()
}

// Intents lists the pending intents — begun and not yet ended — in
// submission order. Right after Open these are the work a previous
// process accepted but never finished.
func (s *Store) Intents() []Intent {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Intent(nil), s.intents...)
}

// beginLocked records a pending intent. Callers hold s.mu (or own the
// Store during Open).
func (s *Store) beginLocked(in Intent) {
	for i := range s.intents {
		if s.intents[i].Fingerprint == in.Fingerprint {
			s.intents[i] = in
			return
		}
	}
	s.intents = append(s.intents, in)
}

// endLocked drops a pending intent, if any. Callers hold s.mu (or own the
// Store during Open).
func (s *Store) endLocked(fp string) {
	for i := range s.intents {
		if s.intents[i].Fingerprint == fp {
			s.intents = append(s.intents[:i], s.intents[i+1:]...)
			return
		}
	}
}

// putEntryLocked indexes e as the most recently used entry, replacing any
// entry under its fingerprint, and keeps the segment and byte gauges in
// step. Callers hold s.mu.
func (s *Store) putEntryLocked(e *Entry) {
	s.dropEntryLocked(e.Fingerprint)
	s.entries[e.Fingerprint] = e
	e.elem = s.lru.PushBack(e)
	s.m.segments.Inc()
	s.m.bytes.Add(e.Bytes)
}

// dropEntryLocked unindexes fp, if present, and keeps the segment and
// byte gauges in step. Callers hold s.mu.
func (s *Store) dropEntryLocked(fp string) {
	if e := s.entries[fp]; e != nil {
		s.lru.Remove(e.elem)
		s.m.segments.Dec()
		s.m.bytes.Add(-e.Bytes)
		delete(s.entries, fp)
	}
}

// compactLocked evicts segments from the front of the recency list until
// the configured bounds hold. The most recent entry survives its own
// commit even when it alone exceeds MaxBytes. Callers hold s.mu.
func (s *Store) compactLocked() error {
	if s.opts.MaxSegments <= 0 && s.opts.MaxBytes <= 0 {
		return nil
	}
	for len(s.entries) > 1 {
		over := (s.opts.MaxSegments > 0 && len(s.entries) > s.opts.MaxSegments) ||
			(s.opts.MaxBytes > 0 && s.m.bytes.Value() > s.opts.MaxBytes)
		if !over {
			return nil
		}
		victim := s.lru.Front().Value.(*Entry)
		if err := os.Remove(filepath.Join(s.opts.Dir, victim.Segment)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("store: compact %s: %w", victim.Segment, err)
		}
		s.dropEntryLocked(victim.Fingerprint)
		s.m.compactions.Inc()
		if err := s.appendOpLocked(manifestOp{Op: "del", Fingerprint: victim.Fingerprint}, true); err != nil {
			return err
		}
	}
	return nil
}

// Stats snapshots the store's counters, read from the same instruments
// its Metrics registry renders.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Segments: int(s.m.segments.Value()), Bytes: s.m.bytes.Value(),
		Quarantined: int(s.m.quarantined.Value()), Compactions: int(s.m.compactions.Value()),
		Checkpoints: len(s.checkpoints), QuarantineFiles: s.quarFiles, QuarantineBytes: s.m.quarantineBytes.Value(),
	}
}

// Close flushes and fsyncs the manifest and releases it and the store
// directory. Segment writers still in flight are unaffected (their Commit
// will fail cleanly).
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	s.dir.Close()
	if s.manifest == nil {
		return nil
	}
	var err error
	if ferr := s.bw.Flush(); ferr != nil {
		err = ferr
	}
	if serr := s.manifest.Sync(); serr != nil && err == nil {
		err = serr
	}
	if cerr := s.manifest.Close(); cerr != nil && err == nil {
		err = cerr
	}
	s.manifest = nil
	if err != nil {
		return fmt.Errorf("store: close: %w", err)
	}
	return nil
}

// syncDir fsyncs the store directory so a just-renamed file's name is
// durable.
func (s *Store) syncDir() error {
	err := fault.Inject("store.dirsync")
	if err == nil {
		err = s.dir.Sync()
	}
	// Some filesystems do not support fsync on directories; the rename is
	// still atomic there, so only a real failure fails the caller.
	if err != nil && !errors.Is(err, errors.ErrUnsupported) && !errors.Is(err, syscall.EINVAL) {
		return fmt.Errorf("store: sync dir: %w", err)
	}
	return nil
}
