// Command campaignd is the characterization campaign daemon: the fleet
// campaign engine behind an HTTP/JSON service. Clients POST grid specs,
// tail live NDJSON/SSE record streams, and repeated submissions are
// answered from the characterization cache instead of re-running the grid
// (see internal/serve for the API).
//
// Usage:
//
//	campaignd [-addr host:port] [-queue N] [-concurrency N]
//	          [-cache-max N] [-store-dir dir] [-store-max N]
//	          [-quarantine-max N] [-quarantine-max-bytes N]
//	          [-drain-timeout d] [-fault-plan plan]
//	          [-auth-keys k=tenant,...] [-auth-keyfile file]
//	          [-rate-limit req/s] [-rate-burst N] [-max-streams N]
//	          [-peers host:port,... -peer-id host:port [-fleet-secret s]]
//	          [-pprof-addr host:port] [-log-format text|json]
//
// The front door is open by default (anonymous mode). -auth-keys (inline
// secret=tenant pairs) or -auth-keyfile (a JSON array of keyring entries;
// see serve.ParseKeyfile) gates the campaign API behind API keys: clients
// present "Authorization: Bearer <key>" (or X-API-Key) and every
// submission is tagged with the key's tenant in views, metrics and logs.
// The ops surface (/healthz, /metrics, /stats, /version) is never gated.
// SIGHUP re-reads the keyfile and swaps the keyring live — key rotation
// without a restart; a broken keyfile keeps the old ring.
//
// -rate-limit gives every tenant a token bucket of that many requests per
// second (burst -rate-burst) across submissions and stream subscriptions;
// over-quota requests get 429 with Retry-After. -max-streams caps each
// tenant's concurrent stream subscribers. Keyfile entries may override
// both per tenant. The buckets are per-tenant, so one tenant's burst
// never consumes another's quota.
//
// The daemon emits one structured log line per campaign lifecycle event
// (queued, running, committed, finished, cache hit, drain), each carrying
// the campaign's trace ID — the same ID returned in the submit response,
// the X-Trace-ID headers and the stream metadata — plus one startup line
// with the effective configuration. -log-format selects text (default) or
// JSON encoding. GET /metrics exposes every layer's counters in Prometheus
// text format, and GET /version reports the build.
//
// -peers federates this daemon into a static fleet (see internal/fleet):
// every member runs with the identical -peers list plus its own -peer-id,
// spec fingerprints are consistent-hashed across the members, and a local
// cache/store miss is answered by fetching the owning peer's committed
// segment over GET /fleet/segments/{fingerprint} instead of re-running the
// grid — one characterization per fingerprint fleet-wide. The peer
// protocol rides this same listener, bypasses the tenant keyring and rate
// limiter, and is gated by -fleet-secret (the same value on every member)
// when set. Dead peers are ejected after consecutive failures and probed
// back half-open; a fleet losing members degrades to local compute, never
// to errors.
//
// Every daemon commits each finished campaign's record stream to an on-disk
// segment store and replays evicted characterizations from it. -store-dir
// chooses where the store lives and whether it outlives the process: a
// daemon restarted on the same directory warm-loads its cache from the
// manifest and replays what an earlier process measured. Without it the
// store is a private campaignd-store-* directory under $TMPDIR, holding at
// most -cache-max segments and removed at shutdown (a SIGKILL leaves it).
// -store-max bounds the store (segments; LRU-compacted past the bound).
// Segments use the binary wire format with per-record CRCs (internal/wire);
// an older daemon's JSONL segments are quarantined and re-run on demand.
//
// A huge store does not slow the boot: the registry warm-loads at most
// -cache-max manifest entries and pages the rest in on first demand;
// GET /stats reports the split and the boot time under "store"."boot".
//
// A daemon with -store-dir is also crash-resumable: accepted submissions are
// journaled as intents in the store's manifest (fsync'd) before they run,
// so the store directory holds one journal; interrupted segment writes
// are salvaged into checkpoints at boot, and the restarted daemon requeues
// the interrupted campaigns and finishes them from their checkpoints —
// executing only the grid cells the crash cut short, with the committed
// segment byte-identical to an uninterrupted run. GET /stats reports the
// work under "store" (requeued, grids_resumed, runs_saved). Debris
// recovery refuses to trust lands in <store-dir>/quarantine/, bounded by
// -quarantine-max (files) and -quarantine-max-bytes. GET /readyz is the
// readiness probe: 503 while draining or while the store is degraded
// (rejecting writes; campaigns then continue memory-only and readiness
// recovers on the next successful commit).
//
// -fault-plan (or $CAMPAIGND_FAULT_PLAN) arms the deterministic fault
// harness (internal/fault) for chaos drills: inject errors, panics or
// delays at named sites, e.g. 'store.write:panic@3' to kill the daemon on
// its third segment write. Production daemons leave it empty — disarmed
// fault points cost one atomic load.
//
// With -pprof-addr the daemon exposes net/http/pprof on a SEPARATE
// listener (off by default), so fleet operators can profile a live daemon
// — CPU, heap, contention — without exposing the debug surface on the
// service port. Bind it to localhost:
//
//	campaignd -addr :8080 -pprof-addr 127.0.0.1:6060 &
//	go tool pprof http://127.0.0.1:6060/debug/pprof/profile?seconds=10
//
// The daemon prints the bound address on startup (use -addr 127.0.0.1:0
// to pick a free port) and shuts down gracefully on SIGINT/SIGTERM: new
// submissions are rejected with 503, in-flight campaigns drain (up to
// -drain-timeout) and commit their segments, the store's manifest is
// flushed, and only then do the remaining connections close.
//
// Quick start:
//
//	campaignd -addr 127.0.0.1:8080 -store-dir /var/lib/campaignd &
//	curl -s -X POST localhost:8080/campaigns \
//	  -d '{"seed":7,"benches":["mcf"],"voltages_mv":[980,940],"repetitions":2}'
//	curl -sN localhost:8080/campaigns/c000000/stream
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/serve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Stdout, os.Args[1:], nil); err != nil {
		fmt.Fprintf(os.Stderr, "campaignd: %v\n", err)
		os.Exit(1)
	}
}

// run starts the daemon and serves until ctx is cancelled. If ready is
// non-nil it receives the bound address once the listener is up (the smoke
// tests use this; the printed "listening" line carries the same address
// for shell consumers).
func run(ctx context.Context, w io.Writer, args []string, ready chan<- string) error {
	fs := flag.NewFlagSet("campaignd", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
	queue := fs.Int("queue", 16, "run queue depth: campaigns waiting beyond the running ones")
	concurrency := fs.Int("concurrency", 1, "campaigns executing at once")
	cacheMax := fs.Int("cache-max", 256, "characterization cache bound: finished campaigns retained before LRU eviction")
	storeDir := fs.String("store-dir", "", "store directory: finished campaigns persist here and replay across restarts (default: a private directory under $TMPDIR, removed at shutdown)")
	storeMax := fs.Int("store-max", 0, "store bound (segments, LRU-compacted); 0 = unbounded with -store-dir, -cache-max without")
	quarMax := fs.Int("quarantine-max", 0, "quarantine directory bound (files; oldest deleted past it); 0 = unbounded")
	quarMaxBytes := fs.Int64("quarantine-max-bytes", 0, "quarantine directory bound (total bytes; oldest deleted past it); 0 = unbounded")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight campaigns to finish and commit")
	authKeys := fs.String("auth-keys", "", "inline API keys as secret=tenant[,secret=tenant...]; enables auth on the campaign API")
	authKeyfile := fs.String("auth-keyfile", "", "JSON keyfile (array of {key,tenant[,disabled,rate_limit,rate_burst,max_streams]}); reloaded on SIGHUP")
	rateLimit := fs.Float64("rate-limit", 0, "per-tenant token-bucket rate on submissions and stream subscriptions (requests/second); 0 = unlimited")
	rateBurst := fs.Int("rate-burst", 0, "per-tenant bucket capacity (back-to-back requests before -rate-limit applies); 0 = max(1, ceil(rate))")
	maxStreams := fs.Int("max-streams", 0, "per-tenant concurrent stream-subscriber cap; 0 = unlimited")
	peers := fs.String("peers", "", "static fleet membership as host:port[,host:port...], identical on every member; enables the fleet peer protocol")
	peerID := fs.String("peer-id", "", "this daemon's own entry in -peers (host:port)")
	fleetSecret := fs.String("fleet-secret", "", "shared secret authenticating fleet-internal traffic (X-Fleet-Secret header), same value on every member")
	pprofAddr := fs.String("pprof-addr", "", "expose net/http/pprof on this separate listener (empty = disabled)")
	logFormat := fs.String("log-format", "text", "structured log encoding: text or json (one line per campaign lifecycle event, each carrying its trace ID)")
	faultPlan := fs.String("fault-plan", os.Getenv("CAMPAIGND_FAULT_PLAN"),
		"deterministic fault-injection plan for chaos testing, e.g. 'store.write:panic@3;seed=7' (default: $CAMPAIGND_FAULT_PLAN; see internal/fault)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if *rateBurst != 0 && *rateLimit <= 0 {
		return errors.New("-rate-burst needs -rate-limit")
	}
	if (*peers == "") != (*peerID == "") {
		return errors.New("-peers and -peer-id are required together")
	}
	if *fleetSecret != "" && *peers == "" {
		return errors.New("-fleet-secret needs -peers")
	}
	var fleetOpts *fleet.Options
	if *peers != "" {
		members, self, err := fleet.ParsePeers(*peers, *peerID)
		if err != nil {
			return err
		}
		fleetOpts = &fleet.Options{Self: self, Peers: members, Secret: *fleetSecret}
	}
	// loadKeys assembles the keyring from both sources — inline flags plus
	// the keyfile — so SIGHUP reloads (which re-run this) cannot drop the
	// inline keys. nil with nil error means auth stays disabled.
	loadKeys := func() ([]serve.Key, error) {
		var keys []serve.Key
		if *authKeys != "" {
			inline, err := serve.ParseInlineKeys(*authKeys)
			if err != nil {
				return nil, err
			}
			keys = append(keys, inline...)
		}
		if *authKeyfile != "" {
			f, err := os.Open(*authKeyfile)
			if err != nil {
				return nil, fmt.Errorf("auth keyfile: %w", err)
			}
			fromFile, err := serve.ParseKeyfile(f)
			f.Close()
			if err != nil {
				return nil, err
			}
			keys = append(keys, fromFile...)
		}
		return keys, nil
	}
	keys, err := loadKeys()
	if err != nil {
		return err
	}
	var logger *slog.Logger
	switch *logFormat {
	case "json":
		logger = slog.New(slog.NewJSONHandler(w, nil))
	case "text":
		logger = slog.New(slog.NewTextHandler(w, nil))
	default:
		return fmt.Errorf("unknown -log-format %q (want text or json)", *logFormat)
	}

	if *faultPlan != "" {
		// Armed before the server (and its store recovery) boots, so a
		// chaos plan can hit boot-time paths too. Deliberately loud: a
		// daemon that may panic or fail I/O on purpose must say so.
		plan, err := fault.Parse(*faultPlan)
		if err != nil {
			return err
		}
		fault.Arm(plan)
		fmt.Fprintf(w, "campaignd FAULT INJECTION ARMED: %s\n", plan)
		logger.Warn("fault injection armed", "plan", plan.String())
	}

	srv, err := serve.New(serve.Options{
		QueueDepth:          *queue,
		Concurrency:         *concurrency,
		CacheMax:            *cacheMax,
		StoreDir:            *storeDir,
		StoreMaxSegments:    *storeMax,
		QuarantineMaxFiles:  *quarMax,
		QuarantineMaxBytes:  *quarMaxBytes,
		AuthKeys:            keys,
		RateLimit:           *rateLimit,
		RateBurst:           *rateBurst,
		MaxStreamsPerTenant: *maxStreams,
		Fleet:               fleetOpts,
		Logger:              logger,
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	if *storeDir != "" {
		fmt.Fprintf(w, "campaignd durable store at %s\n", *storeDir)
	}
	if len(keys) > 0 {
		fmt.Fprintf(w, "campaignd auth enabled (%d keys)\n", len(keys))
	}
	if fleetOpts != nil {
		fmt.Fprintf(w, "campaignd fleet member %s of %d peers\n",
			fleetOpts.Self.ID, len(fleetOpts.Peers))
	}

	if *authKeyfile != "" {
		// SIGHUP swaps the keyring live: rotate keys, disable a leaked one,
		// retune a tenant's quota — no restart, no dropped streams. A file
		// that fails to parse or validate keeps the current ring; locking
		// everyone out should take more than a truncated write.
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		defer signal.Stop(hup)
		go func() {
			for {
				select {
				case <-ctx.Done():
					return
				case <-hup:
					reloaded, err := loadKeys()
					if err == nil {
						err = srv.SetKeys(reloaded)
					}
					if err != nil {
						logger.Error("keyfile reload failed, keeping current keyring",
							"keyfile", *authKeyfile, "err", err)
						continue
					}
					logger.Info("keyfile reloaded", "keyfile", *authKeyfile, "keys", len(reloaded))
				}
			}
		}()
	}

	if *pprofAddr != "" {
		// The profiling surface lives on its own mux and listener: it must
		// never be reachable through the service port, and the default
		// http.DefaultServeMux (where net/http/pprof self-registers on
		// import) is deliberately not used anywhere in this binary.
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listener: %w", err)
		}
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		// Same Slowloris guards as the service listener; no WriteTimeout,
		// because profile?seconds=N streams for as long as the client asked.
		ps := &http.Server{
			Handler:           pmux,
			ReadHeaderTimeout: 10 * time.Second,
			IdleTimeout:       2 * time.Minute,
		}
		go ps.Serve(pln)
		defer ps.Close()
		fmt.Fprintf(w, "campaignd pprof on http://%s/debug/pprof/\n", pln.Addr())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "campaignd listening on http://%s\n", ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}

	// ReadHeaderTimeout bounds how long a connection may dribble its
	// headers (the classic Slowloris hold), and IdleTimeout reclaims
	// keep-alive connections nobody is using. Deliberately NO ReadTimeout
	// or WriteTimeout: submit bodies are already capped by the serve
	// layer's MaxBytesReader, and the NDJSON/SSE stream responses are
	// legitimately open for the lifetime of a campaign — a write deadline
	// would cut every long tail dead.
	hs := &http.Server{
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		<-ctx.Done()
		// Graceful order: stop accepting submissions and let in-flight
		// campaigns finish and commit their segments (Drain), then cancel
		// whatever outlived the grace period and flush the store (Close),
		// then drain connections; force-close stragglers after a short
		// final grace.
		dctx, dcancel := context.WithTimeout(context.Background(), *drainTimeout)
		if derr := srv.Drain(dctx); derr != nil {
			fmt.Fprintf(w, "campaignd: %v (cancelling)\n", derr)
		}
		dcancel()
		srv.Close()
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := hs.Shutdown(sctx); err != nil {
			hs.Close()
		}
	}()
	err = hs.Serve(ln)
	if errors.Is(err, http.ErrServerClosed) {
		err = nil
	}
	<-shutdownDone
	fmt.Fprintln(w, "campaignd: shut down")
	return err
}
