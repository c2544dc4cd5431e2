// Command pufferd is the long-lived release server: a warmed score
// cache shared across every request, a global scoring-worker budget,
// and the internal/server HTTP surface.
//
//	pufferd -addr :8080 -workers 0 -drain 30s -cache-file cache.json \
//	        -wal cache.wal -ceiling-eps 10 -ceiling-delta 1e-6 \
//	        -request-timeout 30s -max-accountants 1024 -max-queue 64
//
//	POST /v1/release        one release (privrelease semantics)
//	POST /v1/release/batch  many releases, batched scoring
//	GET  /v1/stats          cache traffic, per-mechanism release
//	                        counters, worker budget, uptime
//	GET  /metrics           Prometheus text-format exposition
//	GET  /v1/traces/recent  newest request traces with per-stage spans;
//	                        ?id=ID returns one trace, 404 once evicted
//
// Release bodies are parsed by the server's strict single-pass decoder,
// which accepts exactly what encoding/json accepts for the request
// types (unknown fields and trailing data refused, 64 MiB limit) and
// decodes it to the same values. Every release response carries an
// X-Request-Id header, the ID of its trace.
//
// Observability flags: -log-format selects text or json structured
// logs (log/slog) with request-scoped attributes; -slow-request logs
// requests over the threshold at Warn with per-stage timings;
// -pprof-addr serves net/http/pprof on a separate listener so the
// profiling surface is never exposed on the public address.
//
// SIGINT/SIGTERM triggers graceful shutdown: listeners close
// immediately, in-flight releases drain (bounded by -drain), and the
// process exits 0 on a clean drain.
//
// Durability and budget enforcement:
//
//   - -cache-file FILE and -wal FILE go together; either one alone is
//     refused at startup. The snapshot holds the score cache (quilt
//     scores and Kantorovich transport profiles alike) and the named
//     Rényi accountant sessions; the write-ahead log journals every
//     accountant charge, fsync'd *before* the noisy histogram leaves
//     the process. Boot restores the snapshot and replays the journal
//     over it, so after any crash — kill -9 included — the recovered
//     budget is never less than the privacy actually spent, and a
//     restart serves its first requests warm. Shutdown checkpoints the
//     snapshot after the drain and truncates the journal behind it.
//   - -ceiling-eps/-ceiling-delta install a hard (ε, δ) ceiling on
//     every accountant session; a release that would push a session
//     past it is refused with 403 before any scoring work runs.
//   - -request-timeout bounds each request end to end; -max-queue
//     sheds excess queued scoring work with 429 + Retry-After; and
//     -max-accountants caps the session map with 403 past the limit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pufferfish/internal/faultfs"
	"pufferfish/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "global scoring-worker budget shared by all requests (0 = all CPUs)")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown drain timeout for in-flight releases")
	cacheFile := flag.String("cache-file", "", "score-cache and accountant snapshot: restored at startup, checkpointed after the shutdown drain (requires -wal)")
	walFile := flag.String("wal", "", "accounting write-ahead journal: every charge is fsync'd before its noise is released, and replayed over the snapshot at boot (requires -cache-file)")
	ceilingEps := flag.Float64("ceiling-eps", 0, "hard per-session ε budget ceiling; releases that would breach it are refused with 403 (0 = no ceiling)")
	ceilingDelta := flag.Float64("ceiling-delta", 0, "δ at which -ceiling-eps is enforced (0 = the ledger's headline δ)")
	requestTimeout := flag.Duration("request-timeout", 0, "per-request deadline propagated through prepare/score/finish; expiry answers 503 (0 = none)")
	maxAccountants := flag.Int("max-accountants", 0, "cap on distinct accountant sessions; requests minting more are refused with 403 (0 = default 1024)")
	maxQueue := flag.Int("max-queue", 0, "bound on requests queued for scoring workers; excess is shed with 429 + Retry-After (0 = unbounded)")
	logFormat := flag.String("log-format", "text", "structured log format: text or json")
	slowRequest := flag.Duration("slow-request", 0, "log requests slower than this at Warn with per-stage timings (0 = disabled)")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this separate listener, e.g. localhost:6060 (empty = disabled)")
	flag.Parse()

	var logHandler slog.Handler
	switch *logFormat {
	case "text":
		logHandler = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		logHandler = slog.NewJSONHandler(os.Stderr, nil)
	default:
		fatal(fmt.Errorf("-log-format must be text or json, got %q", *logFormat))
	}
	logger := slog.New(logHandler)

	if (*cacheFile == "") != (*walFile == "") {
		// The journal is truncated against the snapshot, and without the
		// journal a crash would lose every accountant charge since boot.
		fatal(errors.New("-cache-file and -wal must be set together"))
	}
	//privlint:allow floatcompare zero is the exact unset sentinel for the ceiling flags
	if *ceilingDelta != 0 && *ceilingEps == 0 {
		fatal(errors.New("-ceiling-delta without -ceiling-eps: set the ε ceiling the δ applies to"))
	}

	cfg := server.Config{
		Workers:        *workers,
		CeilingEps:     *ceilingEps,
		CeilingDelta:   *ceilingDelta,
		RequestTimeout: *requestTimeout,
		MaxAccountants: *maxAccountants,
		MaxQueue:       *maxQueue,
		Logger:         logger,
		SlowRequest:    *slowRequest,
	}
	if *cacheFile != "" {
		st, err := server.OpenDurable(faultfs.OS, faultfs.WallClock{}, *cacheFile, *walFile)
		if err != nil {
			fatal(err)
		}
		cfg.Cache, cfg.Accountants, cfg.WAL = st.Cache, st.Accountants, st.WAL
		logger.Info("durable state restored",
			slog.String("cache_file", *cacheFile),
			slog.Int("cache_entries", st.Cache.Len()),
			slog.String("wal", *walFile),
			slog.Int("wal_replayed", st.Replayed),
			slog.Bool("wal_torn_tail", st.Torn),
			slog.Int("accountant_sessions", len(st.Accountants)))
	}
	s := server.New(cfg)
	srv := &http.Server{
		Addr:              *addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		// ReadTimeout bounds the whole request read so a client
		// trickling a body can't pin a handler goroutine (and the
		// SIGTERM drain) forever. No WriteTimeout: a large exact
		// scoring sweep can legitimately outlive any fixed write
		// budget, and shutdown is already bounded by -drain.
		ReadTimeout: 2 * time.Minute,
		IdleTimeout: 2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if *pprofAddr != "" {
		// pprof gets its own mux on its own listener: the profiling
		// surface is opt-in and never mounted on the public address.
		pm := http.NewServeMux()
		pm.HandleFunc("/debug/pprof/", pprof.Index)
		pm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			logger.Info("pprof listening", slog.String("addr", *pprofAddr))
			if err := http.ListenAndServe(*pprofAddr, pm); err != nil {
				logger.Error("pprof listener failed", slog.String("error", err.Error()))
			}
		}()
	}

	errc := make(chan error, 1)
	go func() {
		logger.Info("listening",
			slog.String("addr", *addr),
			slog.Int("workers", s.Stats().Workers.Budget))
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}
	stop()
	logger.Info("shutting down, draining in-flight releases", slog.Duration("drain", *drain))
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	drainErr := srv.Shutdown(shutdownCtx)
	// Save the snapshot even on a drain timeout: every memoized entry
	// is deterministic and valid regardless of how the drain ended,
	// and discarding a warm cache exactly when the server was busiest
	// would defeat the persistence feature. The save is a checkpoint:
	// snapshot first, then truncate the journal behind it.
	if *cacheFile != "" {
		err := server.Checkpoint(faultfs.OS, *cacheFile, s, cfg.WAL)
		if cerr := cfg.WAL.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			if drainErr != nil {
				logger.Error("drain failed", slog.String("error", drainErr.Error()))
			}
			fatal(err)
		}
		logger.Info("cache snapshot saved",
			slog.String("cache_file", *cacheFile),
			slog.Int("cache_entries", s.Cache().Len()),
			slog.Int("accountant_sessions", len(s.AccountantSnapshots())))
	}
	if drainErr != nil {
		fatal(fmt.Errorf("drain: %w", drainErr))
	}
	st := s.Stats()
	logger.Info("clean exit",
		slog.Float64("uptime_seconds", st.UptimeSeconds),
		slog.Int64("requests", st.RequestsTotal),
		slog.Int64("releases", st.ReleasesTotal),
		slog.Int64("cache_hits", st.Cache.Hits),
		slog.Int64("cache_misses", st.Cache.Misses))
}

func fatal(err error) {
	if err == nil || errors.Is(err, http.ErrServerClosed) {
		return
	}
	fmt.Fprintln(os.Stderr, "pufferd:", err)
	os.Exit(1)
}
