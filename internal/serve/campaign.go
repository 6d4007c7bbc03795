package serve

import (
	"container/list"
	"context"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/obs"
)

// Status is a campaign's lifecycle state in the registry.
type Status string

const (
	StatusQueued  Status = "queued"
	StatusRunning Status = "running"
	StatusDone    Status = "done"
	StatusFailed  Status = "failed"
)

// Campaign is one registry entry: a submitted spec, its lifecycle state,
// and the line arena every stream subscriber replays from, append-only and
// retained after completion — that retention IS the characterization
// cache. The arena holds the pre-rendered JSONL lines back to back, so N
// subscribers write the same bytes and encode them zero times, and no
// pointers, so the garbage collector never traces it.
type Campaign struct {
	id          string
	spec        Spec
	fingerprint string

	mu     sync.Mutex
	cond   *sync.Cond
	status Status
	errMsg string
	// lines is the arena, every streamed line; record i's line ends at ends[i].
	lines   []byte
	ends    []int
	stats   campaign.Stats
	workers int

	// fromStore marks a campaign whose records live in the durable store:
	// it was adopted from the manifest (daemon restart, or an evicted
	// fingerprint resubmitted) with metadata only. hydrated flips once the
	// segment has been read back into the arena; until then the arena is
	// empty and storedRecords carries the on-disk count for the views.
	fromStore     bool
	hydrated      bool
	storedRecords int

	// traceID follows the campaign through every layer: echoed in the
	// submit response and X-Trace-ID headers (cache hits included),
	// attached to stream metadata and structured log lines. It is set
	// once at admission and immutable after, so readers need no lock.
	traceID string
	// tenant is the authenticated submitter's tenant ID ("" for anonymous
	// or library submissions). Like traceID it is set once at admission
	// and immutable after; it surfaces in View.Tenant and lifecycle logs.
	tenant string
	// queuedAt feeds the queue-wait histogram; written at admission,
	// read once when execution starts.
	queuedAt time.Time

	// orderElem and lruElem are the entry's places on the Server's
	// registration and recency lists; they are read and written only
	// under the Server's mutex, never this Campaign's.
	orderElem, lruElem *list.Element
}

func newCampaign(id string, spec Spec, fingerprint string) *Campaign {
	c := &Campaign{
		id:          id,
		spec:        spec,
		fingerprint: fingerprint,
		status:      StatusQueued,
	}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// newStoredCampaign materializes a registry entry from a durable-store
// manifest line: already done, stats restored, arena empty until
// hydration reads the segment back.
func newStoredCampaign(id string, spec Spec, fingerprint string,
	stats campaign.Stats, workers, records int) *Campaign {
	c := newCampaign(id, spec, fingerprint)
	c.status = StatusDone
	c.stats = stats
	c.workers = workers
	c.fromStore = true
	c.storedRecords = records
	// The original submission's trace died with the process that ran it;
	// adopted campaigns get a fresh ID so replays are still traceable.
	c.traceID = obs.NewTraceID()
	return c
}

// needsHydration reports whether the arena must be read back from
// the store before this campaign can replay a stream.
func (c *Campaign) needsHydration() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fromStore && !c.hydrated && c.status == StatusDone
}

// hydrateWith installs the arena loaded from the store or, when lost is
// the error of a segment gone for good (quarantined or compacted away),
// fails the campaign, so a resubmission schedules a clean re-run.
// Transient load errors must NOT come here — the campaign stays
// done/unhydrated and hydration retries. Safe to race: the first call wins.
func (c *Campaign) hydrateWith(lines []byte, ends []int, lost error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.fromStore || c.hydrated || c.status != StatusDone {
		return
	}
	if lost != nil {
		c.status, c.errMsg = StatusFailed, lost.Error()
	} else {
		c.lines, c.ends, c.hydrated = lines, ends, true
	}
	c.cond.Broadcast()
}

// Frames implements core.Sink, the campaign engine's streaming hook:
// batches arrive in deterministic grid order, so appending their lines
// keeps byte-identity with the batch report. A batch (one engine shard) is
// copied into the arena under one lock and wakes the subscribers once.
func (c *Campaign) Frames(batch []core.Frame) error {
	c.mu.Lock()
	c.lines, c.ends = appendLines(c.lines, c.ends, batch)
	c.cond.Broadcast()
	c.mu.Unlock()
	return nil
}

var _ core.Sink = (*Campaign)(nil)

// appendLines appends batch's lines to an arena and their end offsets to
// ends. An empty arena is sized for cap(ends) records (at least the batch)
// at the batch's mean line length, plus a sixteenth.
func appendLines(lines []byte, ends []int, batch []core.Frame) ([]byte, []int) {
	size := 0
	for _, f := range batch {
		size += len(f.Line)
	}
	if len(ends) == 0 && len(batch) > 0 && size > cap(lines) {
		n := size * max(cap(ends), len(batch)) / len(batch)
		lines = make([]byte, 0, n+n/16)
	}
	for _, f := range batch {
		lines = append(lines, f.Line...)
		ends = append(ends, len(lines))
	}
	return lines, ends
}

// maxReserve caps how many records reserve sizes an arena for. A grid's
// run count grows with the client's repetitions, so a larger grid gets
// this much up front and appends the rest as its records arrive.
const maxReserve = 4096

// reserve sizes the arena's record index for n records, at most
// maxReserve, before any arrive; the first batch sizes the lines from it.
func (c *Campaign) reserve(n int) {
	n = min(n, maxReserve)
	c.mu.Lock()
	if n > cap(c.ends) {
		c.ends = append(make([]int, 0, n), c.ends...)
	}
	c.mu.Unlock()
}

// setRunning marks the campaign live.
func (c *Campaign) setRunning() {
	c.mu.Lock()
	c.status = StatusRunning
	c.cond.Broadcast()
	c.mu.Unlock()
}

// finish records the terminal state; streamed records stay in the arena,
// copied to an exact fit if over a tenth of it is spare. Failed campaigns
// pass the engine's partial stats (zero when the spec never materialized).
func (c *Campaign) finish(stats campaign.Stats, workers int, err error) {
	c.mu.Lock()
	if cap(c.lines)-len(c.lines) > len(c.lines)/10 {
		c.lines = append(make([]byte, 0, len(c.lines)), c.lines...)
	}
	if err != nil {
		c.status = StatusFailed
		c.errMsg = err.Error()
	} else {
		c.status = StatusDone
	}
	c.stats = stats
	c.workers = workers
	c.cond.Broadcast()
	c.mu.Unlock()
}

// Status returns the current lifecycle state.
func (c *Campaign) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.status
}

// terminal reports whether a status is final.
func (s Status) terminal() bool { return s == StatusDone || s == StatusFailed }

// next blocks until records beyond i exist, the campaign is terminal or
// ctx is cancelled, then returns the arena up to the last record seen, the
// end offsets of records i on, and the status seen. Both are views of the
// append-only arena, never rewritten below their lengths, so reading them
// after the lock is released is safe.
func (c *Campaign) next(ctx context.Context, i int) ([]byte, []int, Status) {
	// Wake the wait loop when the subscriber goes away; the request
	// context is cancelled by net/http as soon as the handler returns or
	// the client disconnects, so this goroutine cannot outlive the stream.
	stop := context.AfterFunc(ctx, func() {
		c.mu.Lock()
		c.cond.Broadcast()
		c.mu.Unlock()
	})
	defer stop()

	c.mu.Lock()
	defer c.mu.Unlock()
	for i >= len(c.ends) && !c.status.terminal() && ctx.Err() == nil {
		c.cond.Wait()
	}
	n := len(c.lines)
	return c.lines[:n:n], c.ends[i:len(c.ends):len(c.ends)], c.status
}

// View is the JSON shape of a campaign's registry state.
type View struct {
	ID          string `json:"id"`
	Status      Status `json:"status"`
	Error       string `json:"error,omitempty"`
	Fingerprint string `json:"fingerprint"`
	Spec        Spec   `json:"spec"`
	// TraceID is the submission trace this campaign runs under (see
	// submitResponse.TraceID).
	TraceID string `json:"trace_id,omitempty"`
	// Tenant is the authenticated tenant that first scheduled this
	// campaign; omitted in anonymous mode, so auth-off views are unchanged.
	Tenant string `json:"tenant,omitempty"`
	// Records counts retained (already streamed) records so far; for a
	// store-backed campaign that has not hydrated yet it counts the
	// records waiting on disk.
	Records int `json:"records"`
	// Stored marks a campaign whose records were restored from the durable
	// store rather than run by this process.
	Stored bool `json:"stored,omitempty"`
	// Workers is the resolved engine worker count (set once running ends).
	Workers int `json:"workers,omitempty"`
	// Engine bookkeeping, present once the campaign finishes. PlannedRuns
	// and SkippedRuns separate what an exhaustive sweep would have
	// scheduled from what actually ran: adaptive campaigns skip grid
	// points, and those points appear here — never in Outcomes, which
	// counts executed runs only.
	Runs        int            `json:"runs,omitempty"`
	PlannedRuns int            `json:"planned_runs,omitempty"`
	SkippedRuns int            `json:"skipped_runs,omitempty"`
	Recoveries  int            `json:"recoveries,omitempty"`
	SimTime     string         `json:"sim_time,omitempty"`
	Outcomes    map[string]int `json:"outcomes,omitempty"`
}

// view snapshots the campaign for the status endpoints.
func (c *Campaign) view() View {
	c.mu.Lock()
	defer c.mu.Unlock()
	records := len(c.ends)
	if c.fromStore && !c.hydrated {
		records = c.storedRecords
	}
	v := View{
		ID:          c.id,
		Status:      c.status,
		Error:       c.errMsg,
		Fingerprint: c.fingerprint,
		TraceID:     c.traceID,
		Tenant:      c.tenant,
		Spec:        c.spec,
		Records:     records,
		Stored:      c.fromStore,
		Workers:     c.workers,
		Runs:        c.stats.Runs,
		PlannedRuns: c.stats.Planned,
		SkippedRuns: c.stats.Skipped(),
		Recoveries:  c.stats.Recoveries,
	}
	if c.stats.SimTime > 0 {
		v.SimTime = c.stats.SimTime.String()
	}
	if len(c.stats.Outcomes) > 0 {
		v.Outcomes = make(map[string]int, len(c.stats.Outcomes))
		for o, n := range c.stats.Outcomes {
			v.Outcomes[o.String()] = n
		}
	}
	return v
}
