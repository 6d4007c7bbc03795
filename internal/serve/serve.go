// Package serve is the campaign service layer: a long-lived daemon wrapped
// around the fleet campaign engine. It accepts characterization
// submissions over HTTP/JSON — uniform grids or adaptive Vmin searches
// (Spec.Strategy), on single boards or multi-board fleets (Spec.Boards) —
// schedules them on a bounded run queue, streams every run record live to
// any number of subscribers (NDJSON or SSE), and answers repeated
// submissions from an in-memory characterization cache keyed by the spec's
// deterministic fingerprint — the paper's multi-day campaigns become a
// shared service instead of a batch job. The cache itself is bounded
// (Options.CacheMax): least-recently-used finished campaigns are evicted,
// so retained line arenas cannot grow without limit. Every server also
// commits each successful campaign's stream to its store (internal/store),
// and evicted or restarted campaigns replay their segment instead of
// re-running. Options.StoreDir chooses where the store lives and whether it
// outlives the process: with it, neither a crash, a restart, nor memory
// pressure throws a finished measurement away — characterization is the
// expensive thing this whole service exists to amortize; without it the
// store sits in a private temporary directory, bounded like the registry,
// that Close removes (a SIGKILLed process leaves it under TMPDIR).
//
// Determinism is the load-bearing invariant, inherited from the engine:
// the stream a subscriber sees is byte-identical to the serial driver's
// batch report for the same spec, at any worker count, whether the records
// come live from the engine or replayed from the cache.
//
// API:
//
//	POST /campaigns            submit a Spec; 202 {id, fingerprint, cached,
//	                           status, stream} (200 when served from cache,
//	                           503 when the run queue is full)
//	GET  /campaigns            list every campaign's state
//	GET  /campaigns/{id}       one campaign's state
//	GET  /campaigns/{id}/stream
//	                           live NDJSON record stream (SSE with
//	                           Accept: text/event-stream); replays retained
//	                           records first, then follows the campaign
//	GET  /stats                service counters (submissions, cache hits,
//	                           grids run, queue depth, statuses)
//	GET  /healthz              liveness probe
package serve

import (
	"cmp"
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/store"
)

func init() {
	// Queue admission is the serve layer's fault point: an injected error
	// here surfaces as backpressure (503), exactly like a full queue.
	fault.Register("serve.queue")
}

// Options parameterizes a Server.
type Options struct {
	// QueueDepth bounds how many campaigns may wait behind the running
	// ones; submissions beyond the bound are rejected with 503 rather than
	// queued without limit. Zero means 16.
	QueueDepth int
	// Concurrency is how many campaigns execute at once. Each campaign
	// already parallelizes internally (Spec.Workers), so the default of 1
	// keeps one grid's workers from fighting another's.
	Concurrency int
	// CacheMax bounds the registry — and with it the in-memory line
	// arenas that back the characterization cache. When admitting a new
	// campaign would exceed the cap, the least-recently-used terminal
	// (done or failed) campaign is evicted: its arena is dropped, its id
	// stops resolving, and a resubmission of its fingerprint replays from
	// the store, or re-runs the grid once the store has compacted the
	// segment away (see StoreDir). Running and queued campaigns are never
	// evicted, so the registry can transiently exceed the cap by the
	// in-flight count when every entry is live. Zero means 256.
	CacheMax int
	// StoreDir is where the server's store (internal/store) lives: every
	// successful campaign's record stream is committed there as a segment,
	// accepted submissions are journaled so a crash requeues them, and
	// evicted campaigns replay from disk instead of re-running. Boot adopts
	// the CacheMax most recently used manifest entries into the registry
	// (more would be evicted at once); the rest stay on disk and page in on
	// first demand. Empty means a private temporary directory that Close
	// removes, holding at most CacheMax segments unless StoreMaxSegments is
	// set, so an evicted fingerprint re-runs after the next commit.
	StoreDir string
	// StoreMaxSegments / StoreMaxBytes bound the store; commits past a
	// bound compact least-recently-used segments first. Zero means
	// unbounded (but see StoreDir).
	StoreMaxSegments int
	StoreMaxBytes    int64
	// QuarantineMaxFiles / QuarantineMaxBytes bound the store's
	// quarantine/ directory, where recovery parks debris it refuses to
	// trust; past a bound the oldest quarantined files are deleted. Zero
	// means unbounded (keep everything for forensics).
	QuarantineMaxFiles int
	QuarantineMaxBytes int64
	// AuthKeys, when non-empty, enables API-key auth on the campaign API
	// (POST /campaigns, GET /campaigns[/{id}[/stream]]): requests must
	// present a configured key (Authorization: Bearer or X-API-Key) and are
	// tagged with that key's tenant. Empty preserves anonymous mode —
	// behavior byte-identical to a pre-auth daemon. The ops surface
	// (/healthz, /metrics, /stats, /version) is never gated. Swap keys at
	// runtime with SetKeys.
	AuthKeys []Key
	// RateLimit is the default per-tenant token-bucket rate on submissions
	// and stream subscriptions, in requests/second; over-quota requests get
	// 429 with Retry-After. Zero or negative disables rate limiting. Each
	// tenant gets its own bucket (anonymous traffic shares one), so one
	// tenant's burst cannot consume another's quota. Keyfile entries may
	// override per tenant (Key.RateLimit).
	RateLimit float64
	// RateBurst is the default bucket capacity: how many requests a tenant
	// may issue back-to-back before the per-second rate applies. Zero means
	// max(1, ceil(RateLimit)).
	RateBurst int
	// MaxStreamsPerTenant caps concurrent stream subscribers per tenant;
	// the cap trips with 429. Zero or negative means unlimited. Keyfile
	// entries may override per tenant (Key.MaxStreams).
	MaxStreamsPerTenant int
	// Fleet, when non-nil, federates this daemon with a static peer ring
	// (internal/fleet): the peer protocol (GET /fleet/ring, GET
	// /fleet/segments/{fingerprint}) is served on this listener, and a
	// submission missing locally consults the ring and adopts a peer's
	// committed segment — byte-identical replay, no grid re-run — before
	// falling back to local compute. Fleet traffic bypasses the tenant
	// keyring and rate limiter; it authenticates with Fleet.Secret instead,
	// so a noisy tenant cannot starve replication.
	Fleet *fleet.Options
	// Logger receives the daemon's structured log stream: one startup
	// line with the effective configuration, then one line per campaign
	// lifecycle event (submit, run, finish, commit, replay, drain), each
	// carrying the campaign's trace ID so a single characterization can
	// be followed across logs, metrics and stream metadata. Nil discards
	// everything — the library never logs behind a caller's back.
	Logger *slog.Logger
}

// Server is the campaign service: registry, scheduler, cache and HTTP
// surface. Create with New, serve with any http.Server, stop with Close.
type Server struct {
	opts   Options
	mux    *http.ServeMux
	store  *store.Store
	logger *slog.Logger
	start  time.Time
	build  buildInfo
	// privateDir is the store directory New made; Close removes it.
	privateDir string
	// metrics are this server's counters, behind both /metrics and /stats.
	metrics *metrics

	// adopting counts in-flight fleet segment adoptions; Drain waits for
	// it to reach zero so a SIGTERM mid-adopt cannot strand a half-fetched
	// segment. storeDegraded flips while the durable store is rejecting
	// writes and campaigns continue memory-only (see storeTee).
	adopting      atomic.Int64
	storeDegraded atomic.Bool

	ctx    context.Context
	cancel context.CancelFunc
	queue  chan *Campaign
	wg     sync.WaitGroup

	// keys is the installed keyring (nil = anonymous mode); swapped
	// atomically by SetKeys so SIGHUP reloads never block a request.
	// limiter holds every tenant's token bucket and stream count.
	keys    atomic.Pointer[Keyring]
	limiter *limiter

	// fleet is the peer federation client (nil when not federated).
	fleet *fleet.Client

	mu   sync.Mutex
	byID map[string]*Campaign
	byFP map[string]*Campaign
	// order lists the registry's campaigns oldest registration first (GET
	// /campaigns); lru lists the same campaigns least recently used first,
	// the end eviction walks from.
	order    *list.List
	lru      *list.List
	nextID   int
	draining bool
	// Boot-time warm-load bookkeeping (see Options.StoreDir).
	warmLoaded   int
	warmDeferred int
	bootDur      time.Duration

	// gate, when set (tests only), blocks execute until the channel is
	// closed, making queue-bound behavior deterministic to observe.
	gate chan struct{}
}

// New builds a Server and starts its scheduler workers. It opens
// (recovering if necessary) the store, warm-loads the registry from its
// manifest — at most CacheMax entries, most recent last so the in-memory
// LRU order continues where the last process left off; anything beyond
// stays on disk and pages in on first demand — and requeues the
// submissions the last process accepted but never finished.
func New(opts Options) (_ *Server, err error) {
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 16
	}
	if opts.Concurrency <= 0 {
		opts.Concurrency = 1
	}
	if opts.CacheMax <= 0 {
		opts.CacheMax = 256
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.New(discardHandler{})
	}
	s := &Server{
		opts:    opts,
		logger:  logger,
		start:   time.Now(),
		build:   readBuildInfo(),
		metrics: newMetrics(),
		queue:   make(chan *Campaign, opts.QueueDepth),
		byID:    make(map[string]*Campaign),
		byFP:    make(map[string]*Campaign),
		order:   list.New(),
		lru:     list.New(),
		limiter: newLimiter(),
	}
	bootStart := time.Now()
	storeOpts := store.Options{
		Dir:                opts.StoreDir,
		MaxSegments:        opts.StoreMaxSegments,
		MaxBytes:           opts.StoreMaxBytes,
		QuarantineMaxFiles: opts.QuarantineMaxFiles,
		QuarantineMaxBytes: opts.QuarantineMaxBytes,
	}
	if storeOpts.Dir == "" {
		// A private store holds the set the registry holds: the two share
		// one recency order, so an evicted fingerprint is compacted at the
		// next commit and re-runs.
		if s.privateDir, err = os.MkdirTemp("", "campaignd-store-"); err != nil {
			return nil, err
		}
		storeOpts.Dir = s.privateDir
		storeOpts.MaxSegments = cmp.Or(storeOpts.MaxSegments, opts.CacheMax)
	}
	if s.store, err = store.Open(storeOpts); err != nil {
		s.removePrivateDir()
		return nil, err
	}
	defer func() {
		if err != nil {
			s.closeStore()
		}
	}()
	// Entries arrive least-recently-used first; adopting the most recent
	// CacheMax of them preserves relative LRU order, and the skipped
	// prefix is exactly the part eviction would drop first.
	entries := s.store.Entries()
	skip := max(len(entries)-opts.CacheMax, 0)
	s.mu.Lock()
	for _, e := range entries[skip:] {
		s.adoptLocked(e)
	}
	s.warmLoaded, s.warmDeferred = len(entries)-skip, skip
	s.bootDur = time.Since(bootStart)
	s.mu.Unlock()
	if len(opts.AuthKeys) > 0 {
		if err := s.SetKeys(opts.AuthKeys); err != nil {
			return nil, err
		}
	}
	if opts.Fleet != nil {
		fopts := *opts.Fleet
		if fopts.Logger == nil {
			fopts.Logger = logger
		}
		fl, err := fleet.New(fopts)
		if err != nil {
			return nil, err
		}
		s.fleet = fl
	}
	pendingIntents := s.store.Intents()
	s.ctx, s.cancel = context.WithCancel(context.Background())

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /version", s.handleVersion)
	// The campaign API sits behind the auth gate (a pass-through in
	// anonymous mode); the ops surface above stays open — see authed.
	s.mux.HandleFunc("POST /campaigns", s.authed(s.handleSubmit))
	s.mux.HandleFunc("GET /campaigns", s.authed(s.handleList))
	s.mux.HandleFunc("GET /campaigns/{id}", s.authed(s.handleGet))
	s.mux.HandleFunc("GET /campaigns/{id}/stream", s.authed(s.handleStream))
	// The fleet protocol is peer-to-peer traffic: authenticated by the
	// shared fleet secret, never by the tenant keyring, and exempt from
	// tenant rate limits — replication must keep working while a noisy
	// tenant is being throttled.
	if s.fleet != nil {
		s.mux.HandleFunc("GET /fleet/ring", s.fleetAuthed(s.handleFleetRing))
		s.mux.HandleFunc("GET /fleet/segments/{fp}", s.fleetAuthed(s.handleFleetSegment))
	}

	for i := 0; i < opts.Concurrency; i++ {
		s.wg.Add(1)
		go s.scheduler()
	}
	if len(pendingIntents) > 0 {
		// Requeue on a goroutine: the pending set can exceed QueueDepth,
		// and the schedulers just started are what drain the queue — a
		// blocking send from New itself would deadlock the boot.
		s.wg.Add(1)
		go s.requeueIntents(pendingIntents)
	}
	// One structured startup line with the effective configuration: the
	// first thing an operator greps for when a fleet member misbehaves.
	s.logger.Info("server started",
		"queue_depth", opts.QueueDepth,
		"concurrency", opts.Concurrency,
		"cache_max", opts.CacheMax,
		"store_dir", cmp.Or(opts.StoreDir, s.privateDir),
		"warm_loaded", s.warmLoaded,
		"warm_deferred", s.warmDeferred,
		"auth_enabled", s.AuthEnabled(),
		"rate_limit", opts.RateLimit,
		"fleet_peers", fleetPeerCount(opts.Fleet),
		"peer_id", fleetSelfID(opts.Fleet),
		"go_version", s.build.GoVersion,
		"version", s.build.Version,
	)
	return s, nil
}

// closeStore releases the store (flushing its manifest) and removes a
// private store directory.
func (s *Server) closeStore() {
	s.store.Close()
	s.removePrivateDir()
}

// removePrivateDir deletes the store directory New made, if any. One that
// will not go is left behind, as a killed process leaves it.
func (s *Server) removePrivateDir() {
	if s.privateDir != "" {
		_ = os.RemoveAll(s.privateDir)
	}
}

// discardHandler drops every record: the default logger for library use.
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close cancels every running campaign (their engines observe the context
// between shards), stops the scheduler workers and releases the durable
// store (flushing its manifest). Queued campaigns stay queued; streams of
// cancelled campaigns terminate with status failed. For a loss-free stop,
// call Drain first.
func (s *Server) Close() {
	s.cancel()
	s.wg.Wait()
	s.closeStore()
}

// errDraining rejects submissions during graceful shutdown.
var errDraining = errors.New("serve: draining, no new submissions")

// Drain is the graceful half of shutdown: it stops accepting submissions
// (they get 503, like a full queue) and blocks until every admitted
// campaign reaches a terminal state — in-flight grids finish and commit
// their segments — or ctx expires, whichever is first. The caller then
// Closes the server; nothing measured before the drain is lost.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		s.metrics.draining.Set(1)
		s.logger.Info("draining", "uptime_s", time.Since(s.start).Seconds())
	}
	s.mu.Unlock()
	for {
		// Every queued campaign is registered, so the registry alone
		// knows what is still live. In-flight fleet adoptions count too:
		// a drain that returned while a peer segment was still being
		// fetched could strand a half-adopted characterization.
		s.mu.Lock()
		live := 0
		for _, c := range s.campaignsLocked() {
			if !c.Status().terminal() {
				live++
			}
		}
		s.mu.Unlock()
		if live == 0 && s.adopting.Load() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("serve: drain: %d campaigns still live: %w", live, ctx.Err())
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// scheduler drains the run queue until the server closes.
func (s *Server) scheduler() {
	defer s.wg.Done()
	for {
		select {
		case <-s.ctx.Done():
			return
		case c := <-s.queue:
			s.execute(c)
		}
	}
}

// execute runs one campaign through the engine — the spec's strategy picks
// the scheduler — streaming into the campaign's line arena and into an
// uncommitted segment that becomes durable exactly when the campaign
// finishes cleanly.
func (s *Server) execute(c *Campaign) {
	s.metrics.queueLen.Dec()
	s.metrics.queueWait.Observe(time.Since(c.queuedAt))
	c.setRunning()
	runStart := time.Now()
	s.logger.Info("campaign running", withTenant([]any{
		"trace_id", c.traceID, "campaign", c.id, "fingerprint", c.fingerprint,
		"queue_wait_ms", float64(time.Since(c.queuedAt).Microseconds()) / 1000}, c.tenant)...)
	if s.gate != nil {
		<-s.gate
	}
	// An exhaustive grid is built once, here, for the engine, the
	// checkpoint and the arena's record index: its run count is known up
	// front, so the index is sized once (up to maxReserve) rather than grown
	// shard by shard under the lock. Adaptive schedules keep appending.
	var grid *campaign.Grid
	var gridErr error
	if c.spec.Strategy != StrategyAdaptive {
		var g campaign.Grid
		if g, gridErr = c.spec.Grid(); gridErr == nil {
			grid = &g
			c.reserve(gridRuns(g))
		}
	}
	var sink core.Sink = c
	var tee *storeTee
	var resume []core.RunRecord
	ck := s.checkpointFrames(c, grid)
	var w *store.Writer
	var werr error
	if len(ck) > 0 {
		// Replay the checkpointed prefix into a fresh segment writer;
		// if the replay fails, fall back to a clean from-scratch run.
		if w, werr = s.store.Resume(c.fingerprint, ck); werr != nil {
			ck = nil
		}
	}
	if w == nil {
		w, werr = s.store.Begin(c.fingerprint)
	}
	if werr == nil {
		tee = &storeTee{s: s, c: c, w: w}
		sink = tee
	} else {
		s.metrics.storeErrors.Inc()
		ck = nil
	}
	if len(ck) > 0 {
		// The restored prefix re-enters the live arena as
		// the exact pre-rendered bytes the interrupted process streamed;
		// the engine then executes only the remaining cells, and the
		// committed segment comes out byte-identical to an uninterrupted
		// run. The prefix must not pass through the engine sink again,
		// which is why campaign.Config.Resume suppresses emission for
		// restored cells.
		c.Frames(ck)
		resume = recordsOfFrames(ck)
		s.metrics.gridsResumed.Inc()
		s.metrics.runsSaved.Add(uint64(len(ck)))
		s.logger.Info("campaign resumed from checkpoint", withTenant([]any{
			"trace_id", c.traceID, "campaign", c.id, "fingerprint", c.fingerprint,
			"runs_saved", len(ck)}, c.tenant)...)
	}
	stats, workers, err := campaign.Stats{}, 0, gridErr
	if err == nil {
		stats, workers, err = s.runEngine(c, grid, sink, resume)
	}
	if tee != nil {
		// Persist before the campaign turns terminal, so "stream ended" /
		// "drain returned" imply "segment durable". Only complete,
		// successful characterizations are kept: a failed or cancelled
		// campaign's partial stream is worthless (it re-runs on
		// resubmission anyway), and a segment the tee could not fully
		// write must not be committed as if it were whole.
		switch {
		case err != nil:
			tee.w.Abort()
		case tee.err != nil:
			tee.w.Abort()
			s.metrics.storeErrors.Inc()
		default:
			if meta, merr := json.Marshal(metaOf(c.spec, workers, stats)); merr != nil {
				tee.w.Abort()
				s.metrics.storeErrors.Inc()
			} else if cerr := tee.w.Commit(meta); cerr != nil {
				s.metrics.storeErrors.Inc()
			} else {
				s.clearStoreDegraded(c)
				s.logger.Info("campaign committed",
					"trace_id", c.traceID, "campaign", c.id, "fingerprint", c.fingerprint)
			}
		}
	}
	// The intent is terminal either way: done campaigns have their segment
	// (or at worst their arena), failed ones re-run on resubmission — a
	// requeue at next boot would add nothing. The intent end and the
	// terminal log precede finish, so a client that has read the whole
	// stream can rely on both having happened.
	s.store.EndIntent(c.fingerprint)
	status := "done"
	if err != nil {
		status = "failed"
	}
	s.logger.Info("campaign finished", withTenant([]any{
		"trace_id", c.traceID, "campaign", c.id, "status", status,
		"runs", stats.Runs, "planned", stats.Planned, "recoveries", stats.Recoveries,
		"run_ms", float64(time.Since(runStart).Microseconds()) / 1000, "err", errString(err)}, c.tenant)...)
	c.finish(stats, workers, err)
}

// errString renders an error for a log attribute without nil panics.
func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// checkpointFrames returns the resumable prefix of a crash checkpoint for
// this campaign, or nil. Only exhaustive grids resume (grid is nil for an
// adaptive schedule, whose shard list depends on earlier results, so its
// checkpoint cannot be mapped back onto cells). The prefix is trimmed to
// whole cells (the engine's resume unit) and capped at the grid's total; a
// torn tail inside a cell re-runs rather than splices.
func (s *Server) checkpointFrames(c *Campaign, grid *campaign.Grid) []core.Frame {
	if grid == nil {
		return nil
	}
	ck := s.store.Checkpoint(c.fingerprint)
	if len(ck) == 0 {
		return nil
	}
	total := gridRuns(*grid)
	perCell := max(grid.Boards, 1) * grid.Repetitions
	usable := min(len(ck), total)
	usable = usable / perCell * perCell
	if usable == 0 {
		return nil
	}
	return ck[:usable]
}

// gridRuns is the number of runs, and so of records, in an exhaustive grid.
func gridRuns(g campaign.Grid) int {
	return len(g.Benches) * len(g.Setups) * max(g.Boards, 1) * g.Repetitions
}

// recordsOfFrames projects checkpoint frames onto the decoded records the
// engine's resume path consumes.
func recordsOfFrames(frames []core.Frame) []core.RunRecord {
	out := make([]core.RunRecord, len(frames))
	for i, f := range frames {
		out[i] = f.Rec
	}
	return out
}

// runEngine dispatches to the spec's scheduler and normalizes the
// (stats, workers, error) triple. grid is the exhaustive spec's built
// grid, nil for an adaptive spec. resume, when non-empty, is the
// checkpoint-restored record prefix (exhaustive grids only).
func (s *Server) runEngine(c *Campaign, grid *campaign.Grid, sink core.Sink, resume []core.RunRecord) (campaign.Stats, int, error) {
	cfg := campaign.Config{
		Workers: c.spec.Workers,
		Seed:    c.spec.Seed,
		Sink:    sink,
		Context: s.ctx,
		Resume:  resume,
	}
	if grid == nil {
		sched, err := c.spec.Schedule()
		if err != nil {
			return campaign.Stats{}, 0, err
		}
		s.metrics.campaignsRun.Inc()
		rep, err := campaign.RunSchedule(cfg, sched)
		if rep == nil {
			return campaign.Stats{}, 0, err
		}
		s.metrics.observeEngine(rep.Stats, rep.Tally)
		return rep.Stats, rep.Workers, err
	}
	s.metrics.campaignsRun.Inc()
	rep, err := campaign.RunGrid(cfg, *grid)
	if rep == nil {
		return campaign.Stats{}, 0, err
	}
	s.metrics.observeEngine(rep.Stats, rep.Tally)
	return rep.Stats, rep.Workers, err
}

// setStoreDegraded marks the durable store unhealthy: writes are failing
// (disk full, I/O errors) and campaigns continue memory-only. One log line
// per transition, not per record.
func (s *Server) setStoreDegraded(c *Campaign, err error) {
	if !s.storeDegraded.Swap(true) {
		s.metrics.storeDegraded.Set(1)
		s.logger.Error("store degraded, campaigns continue memory-only", withTenant([]any{
			"trace_id", c.traceID, "campaign", c.id, "fingerprint", c.fingerprint,
			"err", errString(err)}, c.tenant)...)
	}
}

// clearStoreDegraded flips the degraded flag back on the first successful
// commit: the disk is accepting whole segments again.
func (s *Server) clearStoreDegraded(c *Campaign) {
	if s.storeDegraded.Swap(false) {
		s.metrics.storeDegraded.Set(0)
		s.logger.Info("store recovered, durability restored",
			"trace_id", c.traceID, "campaign", c.id, "fingerprint", c.fingerprint)
	}
}

// errQueueFull distinguishes backpressure from bad submissions.
var errQueueFull = errors.New("serve: run queue full")

// Submit registers a spec and enqueues it, or returns the cached campaign
// for an already-known fingerprint — from the in-memory registry, or
// adopted from the store (a restarted daemon or an evicted entry:
// the records replay from disk, no grid re-runs). cached is true when no
// new grid run was scheduled. A previously failed campaign does not
// satisfy its fingerprint: resubmitting replaces it with a fresh attempt.
//
// trace is the caller's trace ID. A new campaign adopts it for its whole
// life — queue, run, commit, replay — so the submitter's own logs stitch
// to the daemon's; a submission answered by an existing campaign keeps
// that campaign's original trace ID (the measurement being followed is the
// first one). An empty or invalid ID (see obs.ValidTraceID) is replaced
// with a fresh one, never rejected.
//
// tenant is the identity the auth middleware resolved; empty means
// anonymous and adds nothing anywhere, keeping auth-off output
// byte-identical to a pre-auth daemon. A new campaign records the tenant
// for its lifetime (View.Tenant, lifecycle log lines); a cached hit keeps
// the original campaign's tenant — the characterization cache is
// deliberately shared across tenants, since a fingerprint identifies the
// same physical measurement no matter who asks for it.
func (s *Server) Submit(spec Spec, trace, tenant string) (c *Campaign, cached bool, err error) {
	if !obs.ValidTraceID(trace) {
		trace = obs.NewTraceID()
	}
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		s.metrics.submissions.With("rejected").Inc()
		return nil, false, err
	}
	fp := spec.Fingerprint()

	// fromDisk survives the hydration retry: it marks a submission the
	// store answered (adoption or segment read triggered here), which is
	// what the replay-hit counter reports — later hits on the same
	// hydrated arena are ordinary cache hits. loaded marks a segment read
	// here, which already moved fp in the store's recency order.
	fromDisk, loaded := false, false
	// fleetTried caps the peer consultation at one per submission: a
	// fetch that failed (or missed) must fall through to a local run, not
	// loop back to the fleet.
	fleetTried := false
	for {
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			s.metrics.submissions.With("rejected").Inc()
			return nil, false, errDraining
		}
		prev := s.byFP[fp]
		if prev == nil {
			if e, ok := s.store.Get(fp); ok {
				prev, fromDisk = s.adoptLocked(e)
			}
		}
		if prev != nil && prev.Status() != StatusFailed {
			if prev.needsHydration() {
				// Read the segment back outside the registry lock, then
				// re-examine: a lost segment marks the campaign failed and
				// the next pass schedules a clean re-run, while a
				// transient store error surfaces to the submitter (503,
				// retry) instead of forgetting or re-measuring anything.
				fromDisk = true
				s.mu.Unlock()
				var err error
				if loaded, err = s.hydrate(prev); err != nil {
					return nil, false, err
				}
				continue
			}
			if fromDisk {
				s.metrics.replayHits.Inc()
			}
			// One hit is one use in each layer's recency order.
			s.touchLocked(prev)
			if !loaded {
				s.store.Touch(fp)
			}
			s.mu.Unlock()
			s.metrics.submissions.With("cached").Inc()
			s.logger.Info("submission served from cache", withTenant([]any{
				"trace_id", prev.traceID, "campaign", prev.id,
				"fingerprint", fp, "from_disk", fromDisk}, tenant)...)
			return prev, true, nil
		}
		if s.fleet != nil && !fleetTried {
			// Local miss: before paying for a grid run, ask the fleet —
			// another peer may hold this characterization already. The
			// fetch happens outside the registry lock (it is a network
			// round-trip); on success the adopted campaign satisfies the
			// hit path on the next pass with zero grids run, and on any
			// failure the fleet degrades to local compute.
			fleetTried = true
			s.mu.Unlock()
			// The adopting gauge makes the fetch visible to Drain: a
			// graceful shutdown waits for in-flight adoptions to land (or
			// fail) instead of abandoning a half-replicated segment.
			s.adopting.Add(1)
			s.fleetFetch(fp, trace, tenant)
			s.adopting.Add(-1)
			continue
		}
		break // miss (or failed predecessor): schedule a fresh run
	}
	c = newCampaign(fmt.Sprintf("c%06d", s.nextID), spec, fp)
	c.traceID = trace
	c.tenant = tenant
	c.queuedAt = time.Now()
	// Enqueue and register under one critical section: a rejected
	// submission leaves no trace, and a registered campaign is always
	// queued. The send is non-blocking, so holding the lock is safe.
	if ferr := fault.Inject("serve.queue"); ferr != nil {
		s.mu.Unlock()
		s.metrics.submissions.With("rejected").Inc()
		return nil, false, fmt.Errorf("%w: %v", errQueueFull, ferr)
	}
	select {
	case s.queue <- c:
	default:
		s.mu.Unlock()
		s.metrics.submissions.With("rejected").Inc()
		return nil, false, errQueueFull
	}
	meta, werr := json.Marshal(intentMeta{Spec: c.spec, TraceID: trace, Tenant: tenant})
	if werr == nil {
		werr = s.store.BeginIntent(fp, meta)
	}
	if werr != nil {
		// Journal trouble must not reject measurable work; the campaign
		// just loses crash-requeue coverage.
		s.logger.Warn("intent journal write failed", "fingerprint", fp, "err", werr)
	}
	s.registerLocked(c)
	s.mu.Unlock()
	s.metrics.submissions.With("accepted").Inc()
	s.metrics.queueLen.Inc()
	s.logger.Info("campaign queued", withTenant([]any{
		"trace_id", trace, "campaign", c.id, "fingerprint", fp,
		"strategy", string(spec.Strategy), "benches", len(spec.Benches)}, tenant)...)
	return c, false, nil
}

// withTenant appends a tenant attribute to a log argument list, or leaves
// it untouched for anonymous submissions so auth-off log lines stay
// exactly as they always were.
func withTenant(args []any, tenant string) []any {
	if tenant == "" {
		return args
	}
	return append(args, "tenant", tenant)
}

// registerLocked inserts a new campaign, built with the id
// fmt.Sprintf("c%06d", s.nextID), as the most recently used registry
// entry, first evicting least-recently-used terminal campaigns to make
// room. It is the registry's one insertion path: Submit, store adoption,
// intent requeue and fleet adoption all come through here. Callers hold
// s.mu.
func (s *Server) registerLocked(c *Campaign) {
	s.evictLocked()
	s.nextID++
	s.byID[c.id] = c
	s.byFP[c.fingerprint] = c
	c.orderElem = s.order.PushBack(c)
	c.lruElem = s.lru.PushBack(c)
}

// touchLocked moves a campaign to the most recently used end of the
// registry. Callers hold s.mu.
func (s *Server) touchLocked(c *Campaign) { s.lru.MoveToBack(c.lruElem) }

// evictLocked makes room for one more registry entry under Options.CacheMax
// by dropping least-recently-used terminal campaigns — the registry IS the
// characterization cache, so eviction trades a future replay from disk (or,
// once the store has compacted the segment away, a re-run) for bounded
// memory.
// Live (queued/running) campaigns are never evicted; when every campaign
// is live the new one is admitted over the cap. Callers hold s.mu.
func (s *Server) evictLocked() {
	for el := s.lru.Front(); el != nil && s.lru.Len() >= s.opts.CacheMax; {
		c := el.Value.(*Campaign)
		el = el.Next()
		if !c.Status().terminal() {
			continue
		}
		s.lru.Remove(c.lruElem)
		s.order.Remove(c.orderElem)
		delete(s.byID, c.id)
		if s.byFP[c.fingerprint] == c {
			delete(s.byFP, c.fingerprint)
		}
		s.metrics.evictions.Inc()
	}
}

// campaignsLocked snapshots the registry, oldest registration first.
// Callers hold s.mu.
func (s *Server) campaignsLocked() []*Campaign {
	out := make([]*Campaign, 0, s.order.Len())
	for el := s.order.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*Campaign))
	}
	return out
}

// lookup finds a campaign by id, refreshing its LRU position. It does NOT
// hydrate: status polls on adopted campaigns must stay cheap (view()
// reports the on-disk record count), so only the stream handler and the
// Submit hit path pay for a segment read.
func (s *Server) lookup(id string) *Campaign {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.byID[id]
	if c != nil {
		s.touchLocked(c)
	}
	return c
}

// submitResponse is the POST /campaigns reply.
type submitResponse struct {
	ID          string `json:"id"`
	Fingerprint string `json:"fingerprint"`
	Status      Status `json:"status"`
	Cached      bool   `json:"cached"`
	Stream      string `json:"stream"`
	// TraceID follows the campaign through logs, metrics and stream
	// metadata; also sent as the X-Trace-ID response header.
	TraceID string `json:"trace_id"`
}

// writeJSON writes a JSON response body. An Encode failure here means the
// client is already gone or the connection broke mid-body — the status
// line is sent, so nothing can be retracted — but it must not vanish:
// one warn line per failed response keeps "clients see truncated JSON"
// diagnosable from the daemon side.
func (s *Server) writeJSON(w http.ResponseWriter, r *http.Request, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.logger.Warn("response encode failed",
			"path", r.URL.Path, "remote", r.RemoteAddr, "status", status, "err", err)
	}
}

func (s *Server) writeError(w http.ResponseWriter, r *http.Request, status int, err error) {
	s.writeJSON(w, r, status, map[string]string{"error": err.Error()})
}

// maxSubmitBytes caps a POST /campaigns body. A Spec is a few hundred
// bytes of knobs; a megabyte is three orders of magnitude of headroom,
// and anything larger is a mistake or an attack on the decoder.
const maxSubmitBytes = 1 << 20

// errRateLimited is the 429 body; the Retry-After header carries the wait.
var errRateLimited = errors.New("serve: rate limit exceeded, see Retry-After")

// rejectRate writes a 429 with Retry-After and accounts for it.
func (s *Server) rejectRate(w http.ResponseWriter, r *http.Request, tenant string, wait time.Duration) {
	s.metrics.rateLimited.With(tenantLabel(tenant)).Inc()
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(wait)))
	s.logger.Warn("rate limited",
		"tenant", tenantLabel(tenant), "path", r.URL.Path, "remote", r.RemoteAddr)
	s.writeError(w, r, http.StatusTooManyRequests, errRateLimited)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	key := keyOf(r)
	lim := s.opts.effectiveLimits(key)
	if ok, wait := s.limiter.allow(key.Tenant, lim); !ok {
		s.metrics.submissions.With("rejected").Inc()
		s.rejectRate(w, r, key.Tenant, wait)
		return
	}
	// The body cap turns an unbounded read into a 413; the post-decode
	// Token probe turns silently ignored trailing garbage into a 400
	// (trailing whitespace stays legal — the decoder skips it to EOF).
	r.Body = http.MaxBytesReader(w, r.Body, maxSubmitBytes)
	dec := json.NewDecoder(r.Body)
	var spec Spec
	if err := dec.Decode(&spec); err != nil {
		s.metrics.submissions.With("rejected").Inc()
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.writeError(w, r, http.StatusRequestEntityTooLarge,
				fmt.Errorf("serve: spec body exceeds %d bytes", tooBig.Limit))
			return
		}
		s.writeError(w, r, http.StatusBadRequest, fmt.Errorf("serve: decode spec: %w", err))
		return
	}
	if _, err := dec.Token(); err != io.EOF {
		s.metrics.submissions.With("rejected").Inc()
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.writeError(w, r, http.StatusRequestEntityTooLarge,
				fmt.Errorf("serve: spec body exceeds %d bytes", tooBig.Limit))
			return
		}
		s.writeError(w, r, http.StatusBadRequest,
			errors.New("serve: trailing data after spec object"))
		return
	}
	// A client-supplied X-Trace-ID seeds a NEW campaign's trace; invalid
	// or absent ones are minted server-side (obs.ValidTraceID gates what
	// can reach headers and log lines).
	c, cached, err := s.Submit(spec, r.Header.Get("X-Trace-ID"), key.Tenant)
	if err != nil {
		status := http.StatusBadRequest
		switch {
		case errors.Is(err, errDraining):
			// Draining never un-drains; tell clients to find another
			// daemon rather than hammer this one on its way down.
			status = http.StatusServiceUnavailable
			w.Header().Set("Retry-After", "5")
		case errors.Is(err, errQueueFull), errors.Is(err, errStoreUnavailable):
			// Transient: a queue slot or the store can free up quickly.
			status = http.StatusServiceUnavailable
			w.Header().Set("Retry-After", "1")
		}
		s.writeError(w, r, status, err)
		return
	}
	s.metrics.tenantSubmissions.With(tenantLabel(key.Tenant)).Inc()
	status := http.StatusAccepted
	if cached {
		status = http.StatusOK
	}
	w.Header().Set("X-Trace-ID", c.traceID)
	s.writeJSON(w, r, status, submitResponse{
		ID:          c.id,
		Fingerprint: c.fingerprint,
		Status:      c.Status(),
		Cached:      cached,
		Stream:      "/campaigns/" + c.id + "/stream",
		TraceID:     c.traceID,
	})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	campaigns := s.campaignsLocked()
	s.mu.Unlock()
	views := make([]View, 0, len(campaigns))
	for _, c := range campaigns {
		views = append(views, c.view())
	}
	s.writeJSON(w, r, http.StatusOK, views)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	c := s.lookup(r.PathValue("id"))
	if c == nil {
		s.writeError(w, r, http.StatusNotFound, fmt.Errorf("serve: unknown campaign %q", r.PathValue("id")))
		return
	}
	s.writeJSON(w, r, http.StatusOK, c.view())
}

// handleStream tails a campaign: retained records first (cache replay),
// then live records as the engine's ordering buffer releases them. NDJSON
// by default — byte-identical to the batch report's JSONL, which is why a
// failed or cancelled campaign's NDJSON stream ends with a plain EOF and
// no terminal marker: any trailer would break the byte-identity contract.
// NDJSON consumers that need to distinguish a complete stream from a
// truncated one must confirm via GET /campaigns/{id} (status "done");
// SSE clients get the terminal status in the "done" event instead.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	// Stream subscriptions draw from the same per-tenant token bucket as
	// submissions, and additionally occupy one of the tenant's concurrent
	// stream slots for as long as the tail lasts.
	key := keyOf(r)
	lim := s.opts.effectiveLimits(key)
	if ok, wait := s.limiter.allow(key.Tenant, lim); !ok {
		s.rejectRate(w, r, key.Tenant, wait)
		return
	}
	ok, release := s.limiter.acquireStream(key.Tenant, lim)
	if !ok {
		// Slots free when some existing stream ends; "1" is the soonest
		// that is honest without tracking stream lifetimes.
		s.rejectRate(w, r, key.Tenant, time.Second)
		return
	}
	defer release()
	c := s.lookup(r.PathValue("id"))
	if c == nil {
		s.writeError(w, r, http.StatusNotFound, fmt.Errorf("serve: unknown campaign %q", r.PathValue("id")))
		return
	}
	// An adopted campaign replays from disk: read the segment back before
	// committing to a 200. A transient store failure is retryable (503);
	// a lost segment marks the campaign failed and the stream below
	// terminates with that status.
	if _, err := s.hydrate(c); err != nil {
		w.Header().Set("Retry-After", "1")
		s.writeError(w, r, http.StatusServiceUnavailable, err)
		return
	}
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.Header().Set("Cache-Control", "no-cache")
	// The trace ID travels as stream metadata only — a header, never a
	// body byte — because the NDJSON body is contractually byte-identical
	// to the batch report.
	w.Header().Set("X-Trace-ID", c.traceID)
	flusher, _ := w.(http.Flusher)
	// Commit the response immediately: a subscriber to a campaign that has
	// not produced its first record yet should see the stream established
	// (status + headers) now, not when the first frame lands. Body bytes
	// are untouched, so byte-identity with the batch report holds.
	w.WriteHeader(http.StatusOK)
	if flusher != nil {
		flusher.Flush()
	}

	s.metrics.subscribers.Inc()
	defer s.metrics.subscribers.Dec()

	i, off := 0, 0 // the next record to write, and where its line starts
	for {
		lines, ends, status := c.next(r.Context(), i)
		if r.Context().Err() != nil {
			return // client went away
		}
		// Every subscriber writes the same shared pre-rendered bytes; no
		// JSON encoding happens on this path, however many clients tail the
		// campaign. NDJSON writes every new record in one call; SSE reuses
		// each line minus its newline as the data chunk.
		if sse {
			for _, end := range ends {
				if err := s.countWrite(io.WriteString(w, "data: ")); err != nil {
					return
				}
				if err := s.countWrite(w.Write(lines[off : end-1])); err != nil {
					return
				}
				if err := s.countWrite(io.WriteString(w, "\n\n")); err != nil {
					return
				}
				off = end
			}
		} else if err := s.countWrite(w.Write(lines[off:])); err != nil {
			return
		}
		off = len(lines)
		i += len(ends)
		if flusher != nil && len(ends) > 0 {
			flusher.Flush()
		}
		if status.terminal() {
			if sse {
				s.countWrite(fmt.Fprintf(w, "event: done\ndata: {\"status\":%q}\n\n", status))
			}
			return
		}
	}
}

// handleReadyz is the readiness probe: 200 while the daemon is accepting
// submissions and durably persisting them, 503 while draining (shutdown
// imminent — find another daemon) or while the store is degraded
// (campaigns running memory-only). Liveness stays /healthz; orchestrators,
// load balancers and the CI smoke tests gate traffic here.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	switch {
	case draining:
		w.Header().Set("Retry-After", "5")
		http.Error(w, "draining", http.StatusServiceUnavailable)
	case s.storeDegraded.Load():
		w.Header().Set("Retry-After", "1")
		http.Error(w, "store degraded", http.StatusServiceUnavailable)
	default:
		fmt.Fprintln(w, "ready")
	}
}

// statsResponse is the GET /stats reply.
type statsResponse struct {
	Submissions int  `json:"submissions"`
	CacheHits   int  `json:"cache_hits"`
	GridsRun    int  `json:"grids_run"`
	Evictions   int  `json:"evictions"`
	Cached      int  `json:"cached"`
	CacheMax    int  `json:"cache_max"`
	Queued      int  `json:"queue_len"`
	QueueDepth  int  `json:"queue_depth"`
	Draining    bool `json:"draining,omitempty"`
	// Subscribers counts the HTTP stream clients (NDJSON and SSE)
	// currently attached: the campaignd_active_subscribers gauge.
	Subscribers int64 `json:"subscribers"`
	// AuthEnabled reports whether a keyring is installed; AuthFailures and
	// RateLimited count rejected requests (401/403 and 429). All three are
	// omitted while zero/false so an anonymous, unlimited daemon's /stats
	// is unchanged from pre-auth builds.
	AuthEnabled  bool   `json:"auth_enabled,omitempty"`
	AuthFailures uint64 `json:"auth_failures,omitempty"`
	RateLimited  uint64 `json:"rate_limited,omitempty"`
	// UptimeS is seconds since New; Build identifies the binary.
	UptimeS  float64        `json:"uptime_s"`
	Build    buildInfo      `json:"build"`
	Statuses map[Status]int `json:"statuses"`
	// Store reports the server's store.
	Store *storeStatsView `json:"store"`
	// Fleet reports the peer federation, when enabled.
	Fleet *fleetStatsView `json:"fleet,omitempty"`
}

// storeStatsView is the durable store's slice of GET /stats: the store's
// own Stats, plus what the server counts about its use of the store.
type storeStatsView struct {
	store.Stats
	// ReplayHits counts submissions answered from disk (restart or
	// post-eviction) — each one is a full characterization not re-run.
	ReplayHits int `json:"replay_hits"`
	// Errors counts persistence failures (the campaigns themselves were
	// unaffected).
	Errors int `json:"errors,omitempty"`
	// Crash-resume accounting. Requeued counts campaigns re-admitted at
	// boot from the intent journal; GridsResumed counts campaigns that
	// continued from a checkpoint; and RunsSaved is the characterization
	// runs those checkpoints restored — measured work a restart did not
	// repeat.
	Requeued     int `json:"requeued,omitempty"`
	GridsResumed int `json:"grids_resumed,omitempty"`
	RunsSaved    int `json:"runs_saved,omitempty"`
	// Degraded is true while the store is rejecting writes and campaigns
	// run memory-only.
	Degraded bool `json:"degraded,omitempty"`
	// Boot describes the last boot's warm-load: how many manifest entries
	// were adopted eagerly (at most CacheMax), how many were deferred to
	// on-demand paging, and how long store recovery plus warm-load took.
	Boot bootStatsView `json:"boot"`
}

// bootStatsView is the boot-time slice of the store stats.
type bootStatsView struct {
	WarmLoaded int     `json:"warm_loaded"`
	Deferred   int     `json:"deferred"`
	BootMS     float64 `json:"boot_ms"`
}

// handleStats reports the server's own counters — the same instruments
// /metrics renders, so the two surfaces cannot disagree.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	m := s.metrics
	cacheHits := int(m.submissions.With("cached").Value())
	s.mu.Lock()
	resp := statsResponse{
		Submissions: int(m.submissions.With("accepted").Value()) + cacheHits,
		CacheHits:   cacheHits,
		GridsRun:    int(m.campaignsRun.Value()),
		Evictions:   int(m.evictions.Value()),
		Cached:      s.order.Len(),
		CacheMax:    s.opts.CacheMax,
		Queued:      len(s.queue),
		QueueDepth:  s.opts.QueueDepth,
		Draining:    s.draining,

		Subscribers:  m.subscribers.Value(),
		AuthEnabled:  s.AuthEnabled(),
		AuthFailures: m.authFailures.Total(),
		RateLimited:  m.rateLimited.Total(),
		UptimeS:      time.Since(s.start).Seconds(),
		Build:        s.build,
		Statuses:     make(map[Status]int),
		Store: &storeStatsView{
			Stats:        s.store.Stats(),
			ReplayHits:   int(m.replayHits.Value()),
			Errors:       int(m.storeErrors.Value()),
			Requeued:     int(m.requeued.Value()),
			GridsResumed: int(m.gridsResumed.Value()),
			RunsSaved:    int(m.runsSaved.Value()),
			Degraded:     s.storeDegraded.Load(),
			Boot: bootStatsView{
				WarmLoaded: s.warmLoaded,
				Deferred:   s.warmDeferred,
				BootMS:     float64(s.bootDur.Microseconds()) / 1000,
			},
		},
	}
	campaigns := s.campaignsLocked()
	s.mu.Unlock()
	if s.fleet != nil {
		resp.Fleet = &fleetStatsView{
			Stats:          s.fleet.Stats(),
			Replications:   m.fleetReplications.Value(),
			SegmentsServed: m.fleetServed.Value(),
		}
	}
	for _, c := range campaigns {
		resp.Statuses[c.Status()]++
	}
	s.writeJSON(w, r, http.StatusOK, resp)
}
