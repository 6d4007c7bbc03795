// Package campaign is the concurrent fleet campaign engine: it shards a
// characterization grid (setups x benchmarks x repetitions, or any other
// decomposition of a paper-scale experiment) across N independent simulated
// servers driven by a worker pool.
//
// The engine's contract is built on two properties of the substrate:
//
//   - Board fabrication is a pure function of (corner, seed): the same pair
//     always yields the same chip and DRAM population, so every shard can
//     fabricate its own board and still characterize the same silicon the
//     serial drivers do.
//   - Runs are history-independent: xgene.Server.Run derives all run-to-run
//     variation by splitting the server's root stream with the run's own
//     (workload, seed) label, without advancing any persistent RNG state,
//     and the framework re-applies the full setup before every run. A
//     shard's results therefore do not depend on which worker executed it
//     or on what ran before it on the same board.
//
// Together these make the engine deterministic by construction: for a fixed
// campaign seed the aggregated results are byte-identical for any worker
// count, which the determinism regression tests pin down.
//
// Seeding contract: every shard owns a derived seed obtained by splitting
// the campaign seed with the shard's unique name through xrand (see
// ShardSeed). Shards must never share RNG state; anything stochastic inside
// a shard derives from ctx.Seed (or, for the calibrated figure drivers,
// from the campaign seed itself, which is also exposed on the context).
//
// The one stateful instrument on the board is the EM probe (its measurement
// noise stream advances per sample). Shards that craft viruses through the
// probe must request a pristine board with Fresh: true; plain Vmin/scan/run
// shards draw boards from the campaign's shared fleet pool — a reservoir of
// idle servers keyed by (corner, seed) that any worker can check a board
// out of and return to, so N workers never build the same board N times.
// The expensive part of fabrication itself (the die's threshold parameters
// and the DRAM weak-cell population) is amortized even further: it lives in
// process-wide fab pools inside internal/silicon and internal/dram, shared
// by every campaign, shard and daemon submission in the process.
//
// Records are handed over once: every framework of a shard appends the
// records it returns to one slice the shard owns (sized from
// Shard.Expected when the shard declares it), and that slice is the
// shard's Result.Records. Frameworks keep no records themselves.
package campaign

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/silicon"
	"repro/internal/wire"
	"repro/internal/xgene"
	"repro/internal/xrand"
)

// Config parameterizes one campaign.
type Config struct {
	// Workers is the number of concurrent workers (independent simulated
	// servers executing shards). Zero or negative means GOMAXPROCS. The
	// worker count never changes results, only wall-clock.
	Workers int
	// Seed is the campaign seed: board populations and shard seeds all
	// derive from it. Zero is rejected by Validate: Board.Seed == 0 means
	// "inherit the campaign seed", so a zero campaign seed would make that
	// fallback ambiguous. Pick an explicit nonzero seed.
	Seed uint64
	// Sink, if set, receives every record of the campaign live, in
	// deterministic grid order (shard-submission order, and execution order
	// within a shard), as shards complete. An ordering buffer holds a
	// completed shard's records until every lower-indexed shard has
	// finished, so the streamed sequence is byte-identical to
	// Report.Records for any worker count. A failed shard's records stream
	// up to its failure; shards skipped by cancellation emit nothing, and
	// neither does any shard above the first skipped index. A sink error
	// stops further emission and is returned by Run when no shard error
	// outranks it.
	Sink core.Sink
	// Context, if set, cancels the campaign between shards: workers finish
	// their in-flight shard and stop, and every shard not yet dispatched
	// reports the context's error as its Result.Err. Nil means never
	// cancel.
	Context context.Context
	// Resume, if set, holds records recovered from an interrupted run of
	// this same campaign, in campaign order. Leading shards whose declared
	// Shard.Expected record counts are fully covered by the prefix are
	// restored from these records instead of executing — their Results
	// carry the records with Stats.Restored bookkeeping and nothing is
	// emitted to Sink for them (the caller already has those bytes; it
	// replayed them from its checkpoint). The records must align with
	// shard boundaries: Run rejects a Resume slice that ends mid-shard,
	// because splicing half a shard would break the determinism contract.
	// Only exhaustive campaigns can resume (adaptive schedulers cannot
	// declare Expected).
	Resume []core.RunRecord
}

// Validate reports configuration errors. A zero Seed is rejected because
// the zero value is the Board.Seed sentinel for "inherit the campaign
// seed"; allowing a zero campaign seed would collapse that fallback into
// ambiguity ("did the caller pick 0 or forget to seed?").
func (c Config) Validate() error {
	if c.Seed == 0 {
		return errors.New("campaign: zero campaign seed (Board.Seed 0 means \"inherit the campaign seed\"; pick an explicit nonzero seed)")
	}
	return nil
}

// effectiveWorkers is the single place worker-count normalization happens:
// zero or negative means GOMAXPROCS, and the pool never exceeds the shard
// count (extra workers would only idle).
func (c Config) effectiveWorkers(shards int) int {
	workers := c.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > shards {
		workers = shards
	}
	return workers
}

// Board selects the simulated server a shard runs on.
type Board struct {
	// Corner is the chip's process corner (zero value means TTT, matching
	// xgene.NewServer).
	Corner silicon.Corner
	// Seed overrides the board fabrication seed; zero means "the campaign
	// seed" (the figure drivers characterize the same board population as
	// their serial ancestors). Fleet campaigns pass distinct seeds to
	// fabricate distinct chips of the same corner.
	Seed uint64
	// Fresh forces a newly fabricated board for this shard instead of a
	// per-worker cached one. Required by shards that advance instrument
	// state outside the run path (e.g. EM-probe-driven virus crafting).
	Fresh bool
}

// Ctx is what a shard's Run function receives: its identity, its seeds and
// its private characterization stack.
type Ctx struct {
	// Name and Index identify the shard within the campaign.
	Name  string
	Index int
	// CampaignSeed is the campaign's root seed.
	CampaignSeed uint64
	// Seed is the shard's derived seed (ShardSeed(CampaignSeed, Name)).
	Seed uint64
	// Server is the shard's simulated board (board 0 of the fleet).
	Server *xgene.Server
	// Framework is a fresh characterization framework over Server; the
	// records it returns land in the shard's record slice, and its
	// simulated clock feeds the shard's bookkeeping.
	Framework *core.Framework
	// Boards is the shard's fleet size (Shard.Boards normalized to >= 1).
	// Server/Framework are board 0; the rest come from FleetBoard.
	Boards int

	board    Board
	baseSeed uint64
	pool     *boardPool
	fleet    []fleetBoard
	planned  int
	// records is the shard's one record slice: every board's framework
	// appends to it, so it is the shard's Result.Records in execution
	// order.
	records []core.RunRecord
}

// FleetBoard returns the i-th board of the shard's fleet and its framework,
// fabricating it on first use. Board 0 is the shard's Server/Framework;
// boards above 0 are distinct chips of the same corner, fabricated from
// FleetBoardSeed-derived seeds and drawn from the campaign's shared board
// pool (unless the shard asked for Fresh boards). Frameworks are per-shard:
// the records a fleet board's framework returns here feed this shard's
// Result only.
func (c *Ctx) FleetBoard(i int) (*xgene.Server, *core.Framework, error) {
	// Errors carry the board context only; the shard prefix is applied
	// once by the engine when the error surfaces from Shard.Run.
	if i < 0 || i >= c.Boards {
		return nil, nil, fmt.Errorf("fleet board %d out of range [0,%d)", i, c.Boards)
	}
	if fb := c.fleet[i]; fb.fw != nil {
		return fb.srv, fb.fw, nil
	}
	seed := FleetBoardSeed(c.baseSeed, i)
	corner := c.board.Corner
	if corner == 0 {
		corner = silicon.TTT
	}
	var srv *xgene.Server
	key := boardKey{corner: corner, seed: seed}
	if !c.board.Fresh {
		srv = c.pool.acquire(key)
	}
	if srv == nil {
		var err error
		srv, err = xgene.NewServer(xgene.Options{Corner: corner, Seed: seed})
		if err != nil {
			return nil, nil, fmt.Errorf("fab fleet board %d: %w", i, err)
		}
		c.pool.fabs.Add(1)
	}
	fw, err := core.NewFramework(srv)
	if err != nil {
		// A board without a framework is of no use to anyone; let the
		// pool re-fabricate rather than pooling it half-initialized.
		return nil, nil, fmt.Errorf("fleet board %d: %w", i, err)
	}
	fw.AppendTo(&c.records)
	c.fleet[i] = fleetBoard{srv: srv, key: key, fw: fw}
	return srv, fw, nil
}

// fleetBoard is one board of a shard's fleet, once the shard has used it.
type fleetBoard struct {
	srv *xgene.Server
	key boardKey
	fw  *core.Framework
}

// AddPlanned records grid points the shard accounted for but did not
// execute-sweep exhaustively: schedulers that skip runs (the adaptive Vmin
// scheduler) report the uniform-grid run count here so Stats can separate
// planned from executed work. Shards that run everything they plan need not
// call it — Planned then defaults to the executed run count.
func (c *Ctx) AddPlanned(n int) { c.planned += n }

// Shard is one independent unit of campaign work.
type Shard[T any] struct {
	// Name must be unique within the campaign; it keys the shard's derived
	// seed and labels its results.
	Name string
	// Board selects the simulated server.
	Board Board
	// Boards, when above 1, gives the shard a fleet of distinct-seed boards
	// of the same corner: board 0 keeps Board.Seed's population (so a
	// one-board fleet is exactly the classic shard) and boards 1..N-1
	// fabricate chips from FleetBoardSeed-derived seeds. The shard reaches
	// them through Ctx.FleetBoard; their records join the shard's Result
	// in execution order.
	Boards int
	// Expected, when positive, declares exactly how many records this
	// shard emits on a clean run. Deterministic exhaustive shards (grid
	// cells) know this up front; declaring it is what lets Config.Resume
	// map recovered records back onto shard boundaries, and it sizes the
	// shard's record slice once. Zero means unknown, which excludes the
	// shard from resume.
	Expected int
	// Run executes the shard.
	Run func(ctx *Ctx) (T, error)
}

// FleetBoardSeed derives the fabrication seed of fleet board i from the
// shard's resolved board seed. Board 0 inherits the base seed unchanged, so
// fleets of one are byte-compatible with plain shards; higher indices split
// an xrand stream, making every board of the fleet a distinct chip while
// remaining a pure function of (base seed, index) — independent of workers
// and of sibling shards.
func FleetBoardSeed(baseSeed uint64, i int) uint64 {
	if i == 0 {
		return baseSeed
	}
	return xrand.New(baseSeed).Split(fmt.Sprintf("campaign/fleet/%d", i)).Uint64()
}

// Stats is campaign bookkeeping, per shard and aggregated.
type Stats struct {
	// Shards counts completed shards (1 for per-shard stats).
	Shards int
	// Runs counts framework runs actually executed.
	Runs int
	// Planned counts the runs an exhaustive sweep of the same work would
	// have scheduled. For plain shards Planned == Runs; adaptive schedulers
	// report the uniform-grid budget through Ctx.AddPlanned, so
	// Planned - Runs (Skipped) is the work the scheduler avoided. Skipped
	// grid points executed no run, so they contribute nothing to Outcomes —
	// in particular they are not failures. Skipped can be negative: when
	// the failure transition sits immediately under the start voltage the
	// refinement's partial-failure levels can cost more than the plain
	// descent, and the accounting reports that honestly.
	Planned int
	// Restored counts records carried over from an interrupted run via
	// Config.Resume instead of being executed. Restored records never
	// count as Runs and contribute nothing to Outcomes (their outcomes
	// were accounted by the original, interrupted campaign).
	Restored int
	// Recoveries counts runs that required watchdog reset / reboot.
	Recoveries int
	// SimTime is the total simulated board time consumed.
	SimTime time.Duration
	// Outcomes counts run outcomes. Counts sum to Runs, never to Planned.
	// It is filled on the campaign aggregate (Report.Stats); a shard's
	// Result.Stats leaves it nil, and its Records carry the outcomes.
	Outcomes map[xgene.Outcome]int
}

// Skipped is the planned-but-not-executed run count (zero for exhaustive
// campaigns).
func (s Stats) Skipped() int { return s.Planned - s.Runs }

// add folds s2 into s.
func (s *Stats) add(s2 Stats) {
	s.Shards += s2.Shards
	s.Runs += s2.Runs
	s.Planned += s2.Planned
	s.Restored += s2.Restored
	s.Recoveries += s2.Recoveries
	s.SimTime += s2.SimTime
}

// countOutcomes fills the aggregate's Outcomes from the executed shards'
// records, into one map for the whole campaign. Restored records were
// accounted by the interrupted campaign and are not counted again.
func countOutcomes[T any](st *Stats, results []Result[T]) {
	for _, res := range results {
		if res.Stats.Restored > 0 {
			continue
		}
		for _, r := range res.Records {
			if st.Outcomes == nil {
				st.Outcomes = make(map[xgene.Outcome]int, 4)
			}
			st.Outcomes[r.Outcome]++
		}
	}
}

// statsOf summarizes one shard's framework records. planned == 0 means the
// shard never called Ctx.AddPlanned and executed everything it planned; a
// nonzero planned is taken at face value, even below the run count (see
// Stats.Planned on negative Skipped).
func statsOf(records []core.RunRecord, elapsed time.Duration, planned int) Stats {
	st := Stats{Shards: 1, Runs: len(records), Planned: planned, SimTime: elapsed}
	if st.Planned == 0 {
		st.Planned = st.Runs
	}
	for _, r := range records {
		if r.Recovered {
			st.Recoveries++
		}
	}
	return st
}

// Result is one shard's outcome.
type Result[T any] struct {
	Name  string
	Index int
	Value T
	Err   error
	// Records holds every framework run of the shard, in execution order.
	Records []core.RunRecord
	// Stats is the shard's bookkeeping.
	Stats Stats
}

// Report aggregates a completed campaign in shard-submission order.
type Report[T any] struct {
	Results []Result[T]
	// Stats is the campaign-level aggregate.
	Stats Stats
	// Tally is what the campaign measured of its own execution.
	Tally Tally
	// Workers is the resolved worker count that executed the campaign.
	Workers int
}

// Tally is what one Run measured of its own execution, kept apart from
// Stats: which shard fabricates a board and which checks one out of the
// pool depends on how workers interleave, while Stats is the same at every
// worker count. Callers that keep metrics (campaignd) record it once per
// campaign.
type Tally struct {
	// Wall is the campaign's wall-clock time, dispatch to aggregated
	// report.
	Wall time.Duration
	// BoardFabs counts boards fabricated because the pool held no idle
	// match (or the shard asked for a Fresh board); PoolCheckouts counts
	// boards checked out of the pool instead, each a fabrication avoided.
	BoardFabs, PoolCheckouts int
	// Records and Bytes count the records and JSONL bytes rendered for
	// Config.Sink; restored shards render nothing, and neither does a
	// campaign without a sink.
	Records, Bytes int
}

// Values returns the shard values in submission order. Call only on an
// error-free campaign.
func (r *Report[T]) Values() []T {
	out := make([]T, len(r.Results))
	for i, res := range r.Results {
		out[i] = res.Value
	}
	return out
}

// Records returns every framework record of the campaign, concatenated in
// shard-submission order.
func (r *Report[T]) Records() []core.RunRecord {
	var out []core.RunRecord
	for _, res := range r.Results {
		out = append(out, res.Records...)
	}
	return out
}

// Err returns the lowest-indexed shard error, or nil.
func (r *Report[T]) Err() error {
	for _, res := range r.Results {
		if res.Err != nil {
			return res.Err
		}
	}
	return nil
}

// ShardSeed derives a shard's seed from the campaign seed and the shard's
// unique name, by splitting an xrand stream. It is a pure function, so the
// seed does not depend on worker count, scheduling, or sibling shards.
func ShardSeed(campaignSeed uint64, name string) uint64 {
	// The label hashes "campaign/shard/<name>" piece by piece, so no string
	// is built; the derived seed is the one Split of that string gives.
	st := xrand.New(campaignSeed).SplitLabel(shardLabelPrefix.Str(name))
	return st.Uint64()
}

// shardLabelPrefix is ShardSeed's interned split-label prefix.
var shardLabelPrefix = xrand.NewLabel("campaign/shard/")

// boardKey identifies a reusable board in the shared fleet pool.
type boardKey struct {
	corner silicon.Corner
	seed   uint64
}

// boardPool is the campaign's shared reservoir of idle simulated servers.
// Any worker checks boards out for the duration of one shard and returns
// them afterwards, so the same (corner, seed) board shell is built once per
// concurrently-running shard that needs it — not once per worker, as the
// old per-worker caches did. Checked-out boards are exclusively owned,
// which preserves the engine's lock-free simulation: the pool's mutex only
// guards the free lists. Reuse is sound for the same reason per-worker
// reuse was: runs are history-independent and the framework re-applies the
// full setup before every run, so which shard previously used a board can
// never change results (pinned by the worker-count determinism tests).
type boardPool struct {
	mu        sync.Mutex
	free      map[boardKey][]*xgene.Server
	checkouts int          // guarded by mu
	fabs      atomic.Int64 // boards built because acquire had none to give
}

func newBoardPool() *boardPool {
	return &boardPool{free: make(map[boardKey][]*xgene.Server)}
}

// acquire checks out an idle board, or returns nil when the caller must
// fabricate one.
func (p *boardPool) acquire(key boardKey) *xgene.Server {
	p.mu.Lock()
	defer p.mu.Unlock()
	list := p.free[key]
	if n := len(list); n > 0 {
		srv := list[n-1]
		p.free[key] = list[:n-1]
		p.checkouts++
		return srv
	}
	return nil
}

// release returns a board to the reservoir once its shard is done with it.
func (p *boardPool) release(key boardKey, srv *xgene.Server) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.free[key] = append(p.free[key], srv)
}

// streamer is the ordering buffer behind Config.Sink: workers report
// shard completions in any order, and the streamer releases records to the
// sink strictly in shard-submission order, so the live stream replays the
// batch report byte for byte at any worker count.
//
// This is also the one render of the whole pipeline: each worker renders
// its shard's records into one block of JSONL lines (wire.AppendLines, into
// a pooled buffer) before taking the lock, so encoding parallelizes with
// the campaign and happens exactly once per record no matter how many
// subscribers hang off the sink. A released shard reaches the sink as its
// records plus that block, so the sink's per-delivery costs are paid once
// per shard; the block then goes back to the pool.
type streamer struct {
	sink core.Sink

	mu   sync.Mutex
	next int
	// recs[i] and lines[i] hold shard i's records and rendered lines (a
	// pooled buffer) from its completion until its release; lines[i] is
	// nil until shard i completes.
	recs           [][]core.RunRecord
	lines          []*[]byte
	err            error
	records, bytes int // rendered so far, for Tally
}

func newStreamer(sink core.Sink, shards int) *streamer {
	return &streamer{sink: sink, recs: make([][]core.RunRecord, shards), lines: make([]*[]byte, shards)}
}

// complete buffers shard i's records and flushes every released prefix
// shard to the sink. Safe for concurrent use by the worker pool; lines are
// rendered outside the lock, emission happens under it, so records can
// never interleave out of order.
func (s *streamer) complete(i int, records []core.RunRecord) {
	if s == nil {
		return
	}
	lines := wire.GetScratch()
	var encErr error
	*lines, encErr = wire.AppendLines(*lines, records)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recs[i], s.lines[i] = records, lines
	s.records += len(records)
	s.bytes += len(*lines)
	if encErr != nil && s.err == nil {
		// A record encoding/json itself would refuse (non-finite float).
		s.err = fmt.Errorf("campaign: sink: %w", encErr)
	}
	for ; s.next < len(s.lines) && s.lines[s.next] != nil; s.next++ {
		if recs := s.recs[s.next]; s.err == nil && len(recs) > 0 {
			if err := s.sink.Shard(recs, *s.lines[s.next]); err != nil {
				s.err = fmt.Errorf("campaign: sink: %w", err)
			}
		}
		wire.PutScratch(s.lines[s.next])
	}
}

// sinkErr returns the first sink failure, if any.
func (s *streamer) sinkErr() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Run executes every shard across the configured worker pool and returns
// the ordered report. The returned error is the first (lowest-index) shard
// error, if any; the report is always returned so partial results and
// bookkeeping survive failures.
func Run[T any](cfg Config, shards []Shard[T]) (*Report[T], error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(shards) == 0 {
		return nil, errors.New("campaign: no shards")
	}
	names := make(map[string]bool, len(shards))
	for _, sh := range shards {
		if sh.Name == "" {
			return nil, errors.New("campaign: shard with empty name")
		}
		if sh.Run == nil {
			return nil, fmt.Errorf("campaign: shard %s has no Run", sh.Name)
		}
		if names[sh.Name] {
			return nil, fmt.Errorf("campaign: duplicate shard name %s", sh.Name)
		}
		names[sh.Name] = true
	}

	start := time.Now()
	workers := cfg.effectiveWorkers(len(shards))
	ctx := cfg.Context
	if ctx == nil {
		ctx = context.Background()
	}
	var stream *streamer
	if cfg.Sink != nil {
		stream = newStreamer(cfg.Sink, len(shards))
	}

	results := make([]Result[T], len(shards))
	// Restore leading shards fully covered by the resume prefix: their
	// records are spliced in as-is, no board is fabricated, no run
	// executes, nothing streams (the caller already replayed these bytes
	// from its checkpoint). The prefix must land exactly on a shard
	// boundary — a partial shard cannot be spliced without breaking the
	// determinism contract, so the caller trims to boundaries first.
	// Restored shards are marked complete in the stream up front (they
	// emit nothing); the flush cursor then releases executing shards'
	// records as usual.
	first := 0 // the restored shards are [0, first)
	if len(cfg.Resume) > 0 {
		off := 0
		for i := 0; i < len(shards) && off < len(cfg.Resume); i++ {
			exp := shards[i].Expected
			if exp <= 0 || off+exp > len(cfg.Resume) {
				break
			}
			chunk := cfg.Resume[off : off+exp : off+exp]
			results[i] = Result[T]{
				Name:    shards[i].Name,
				Index:   i,
				Records: chunk,
				Stats:   Stats{Shards: 1, Restored: len(chunk), Planned: len(chunk)},
			}
			stream.complete(i, nil)
			first = i + 1
			off += exp
		}
		if off != len(cfg.Resume) {
			return nil, fmt.Errorf("campaign: %d resume records do not align with shard boundaries (%d consumed)", len(cfg.Resume), off)
		}
	}
	// Workers claim shard indices in order from one counter; the calling
	// goroutine is one of them. Once the context is cancelled no worker
	// claims again, so the claimed shards are exactly a prefix, each run to
	// completion, and everything above it is skipped. Workers share one
	// board pool; a checked-out board belongs to exactly one shard at a
	// time, so the simulation itself still runs lock-free.
	var next atomic.Int64
	next.Store(int64(first))
	pool := newBoardPool()
	work := func() {
		for ctx.Err() == nil {
			i := int(next.Add(1) - 1)
			if i >= len(shards) {
				return
			}
			results[i] = runShard(cfg, i, shards[i], pool)
			stream.complete(i, results[i].Records)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for j := int(next.Load()); j < len(shards); j++ {
		results[j] = Result[T]{
			Name:  shards[j].Name,
			Index: j,
			Err:   fmt.Errorf("campaign: shard %s skipped: %w", shards[j].Name, ctx.Err()),
		}
	}

	rep := &Report[T]{Results: results, Workers: workers}
	for _, res := range results {
		rep.Stats.add(res.Stats)
	}
	countOutcomes(&rep.Stats, results)
	// Every worker has returned, so the pool and stream counts are final.
	rep.Tally = Tally{Wall: time.Since(start), BoardFabs: int(pool.fabs.Load()), PoolCheckouts: pool.checkouts}
	if stream != nil {
		rep.Tally.Records, rep.Tally.Bytes = stream.records, stream.bytes
	}
	err := rep.Err()
	if err == nil {
		err = stream.sinkErr()
	}
	return rep, err
}

// runShard executes one shard on the calling worker, checking its fleet's
// boards out of the shared pool (or fabricating them) and wrapping each
// with a fresh framework that appends into the shard's record slice; the
// boards return to the pool when the shard is done.
func runShard[T any](cfg Config, idx int, sh Shard[T], pool *boardPool) Result[T] {
	res := Result[T]{Name: sh.Name, Index: idx}
	boardSeed := sh.Board.Seed
	if boardSeed == 0 {
		boardSeed = cfg.Seed
	}
	fleet := sh.Boards
	if fleet < 1 {
		fleet = 1
	}
	ctx := &Ctx{
		Name:         sh.Name,
		Index:        idx,
		CampaignSeed: cfg.Seed,
		Seed:         ShardSeed(cfg.Seed, sh.Name),
		Boards:       fleet,
		board:        sh.Board,
		baseSeed:     boardSeed,
		pool:         pool,
		fleet:        make([]fleetBoard, fleet),
	}
	if sh.Expected > 0 {
		ctx.records = make([]core.RunRecord, 0, sh.Expected)
	}
	var err error
	// Board 0 is fabricated eagerly so Ctx.Server/Framework are always
	// usable, exactly as for pre-fleet shards.
	ctx.Server, ctx.Framework, err = ctx.FleetBoard(0)
	if err != nil {
		res.Err = fmt.Errorf("campaign: shard %s: %w", sh.Name, err)
		return res
	}
	v, err := sh.Run(ctx)
	res.Value = v
	if err != nil {
		res.Err = fmt.Errorf("campaign: shard %s: %w", sh.Name, err)
	}
	// The shard's records are every run its fleet executed, in execution
	// order — a pure function of the shard, so the stream stays
	// worker-count independent.
	res.Records = ctx.records
	var elapsed time.Duration
	for _, fb := range ctx.fleet {
		if fb.fw != nil {
			elapsed += fb.fw.Elapsed()
		}
	}
	res.Stats = statsOf(res.Records, elapsed, ctx.planned)
	// Return the fleet to the pool for the next shard that wants these
	// boards. Fresh boards carry advanced instrument state and never pool.
	if !sh.Board.Fresh {
		for _, fb := range ctx.fleet {
			if fb.srv != nil {
				pool.release(fb.key, fb.srv)
			}
		}
	}
	return res
}
