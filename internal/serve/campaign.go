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
// and the frame buffer that every stream subscriber replays from. The
// buffer is append-only and retained after completion — that retention IS
// the characterization cache: a cache-hit submission streams the buffered
// frames without touching the engine. Each frame carries its shared
// pre-rendered JSONL line, so replaying to N subscribers writes the same
// immutable bytes N times and encodes them zero times.
type Campaign struct {
	id          string
	spec        Spec
	fingerprint string
	// extra is the server-wide broadcast (spool files, monitoring sinks);
	// it receives every record after the buffer does.
	extra *core.MultiSink

	mu      sync.Mutex
	cond    *sync.Cond
	status  Status
	errMsg  string
	frames  []core.Frame
	stats   campaign.Stats
	workers int

	// fromStore marks a campaign whose records live in the durable store:
	// it was adopted from the manifest (daemon restart, or an evicted
	// fingerprint resubmitted) with metadata only. hydrated flips once the
	// segment has been read back into the buffer; until then records is
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

func newCampaign(id string, spec Spec, fingerprint string, extra *core.MultiSink) *Campaign {
	c := &Campaign{
		id:          id,
		spec:        spec,
		fingerprint: fingerprint,
		extra:       extra,
		status:      StatusQueued,
	}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// newStoredCampaign materializes a registry entry from a durable-store
// manifest line: already done, stats restored, record buffer empty until
// hydration reads the segment back.
func newStoredCampaign(id string, spec Spec, fingerprint string, extra *core.MultiSink,
	stats campaign.Stats, workers, records int) *Campaign {
	c := newCampaign(id, spec, fingerprint, extra)
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

// needsHydration reports whether the record buffer must be read back from
// the store before this campaign can replay a stream.
func (c *Campaign) needsHydration() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fromStore && !c.hydrated && c.status == StatusDone
}

// hydrateWith installs the frames loaded from the store. Safe to race:
// the first load wins, later ones are discarded.
func (c *Campaign) hydrateWith(frames []core.Frame) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.fromStore || c.hydrated || c.status != StatusDone {
		return
	}
	c.frames = frames
	c.hydrated = true
	c.cond.Broadcast()
}

// markLost fails a store-backed campaign whose segment is gone for good
// (quarantined or compacted away): its fingerprint stops being satisfied,
// so a resubmission schedules a clean re-run. Transient load errors must
// NOT come here — the campaign stays done/unhydrated and hydration
// retries.
func (c *Campaign) markLost(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.fromStore || c.hydrated || c.status != StatusDone {
		return
	}
	c.status = StatusFailed
	c.errMsg = err.Error()
	c.cond.Broadcast()
}

// Frames implements core.Sink: this is the campaign engine's
// streaming hook. The engine's ordering buffer guarantees batches arrive
// in deterministic grid order, so appending preserves byte-identity with
// the batch report; the shared pre-rendered lines are what every
// subscriber will write. A batch (one engine shard) is appended under one
// lock and wakes the subscribers once.
func (c *Campaign) Frames(batch []core.Frame) error {
	c.mu.Lock()
	c.frames = append(c.frames, batch...)
	c.cond.Broadcast()
	c.mu.Unlock()
	return c.extra.Frames(batch)
}

var _ core.Sink = (*Campaign)(nil)

// maxReserve caps how many records reserve sizes a buffer for. A grid's
// run count grows with the client's repetitions, so a larger grid gets
// this much up front and appends the rest as its records arrive.
const maxReserve = 4096

// reserve sizes the record buffer for n records, at most maxReserve,
// before any arrive.
func (c *Campaign) reserve(n int) {
	n = min(n, maxReserve)
	c.mu.Lock()
	if n > cap(c.frames) {
		c.frames = append(make([]core.Frame, 0, n), c.frames...)
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

// finish records the terminal state; already streamed records stay
// buffered either way. Failed campaigns pass whatever partial stats the
// engine returned (zero when the spec never materialized).
func (c *Campaign) finish(stats campaign.Stats, workers int, err error) {
	c.mu.Lock()
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

// next blocks until frames beyond i exist, the campaign reaches a
// terminal state, or ctx is cancelled, then returns the frames from i on
// and the status seen. The returned slice is a view of the append-only
// buffer: elements below the observed length are never rewritten (and each
// frame's Line is immutable), so reading them after the lock is released
// is safe.
func (c *Campaign) next(ctx context.Context, i int) ([]core.Frame, Status) {
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
	for i >= len(c.frames) && !c.status.terminal() && ctx.Err() == nil {
		c.cond.Wait()
	}
	return c.frames[i:len(c.frames):len(c.frames)], c.status
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
	// Records counts buffered (already streamed) records so far; for a
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
	records := len(c.frames)
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
