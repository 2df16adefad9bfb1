// Command probkb-server expands a KB once at startup and serves the
// materialized result over HTTP (see internal/server for the endpoint
// list) — the paper's rationale for marginal (rather than query-time)
// inference: "avoiding query-time computation and improving system
// responsivity". The startup expansion is the full pipeline: semantic
// constraints, grounding to convergence, marginal inference.
//
//	probkb-server -kb DIR [-addr :8080] [-persist DIR] [-slow DUR]
//	              [-max-in-flight N] [-watchdog-interval DUR]
//	              [-stuck-query DUR] [-incident-dir DIR] [-v]
//
// -persist makes the startup expansion durable (created from -kb when
// the directory holds no store; recovered and resumed, without reading
// -kb, when it does) and enables POST /admin/snapshot to checkpoint it
// while serving.
//
// The server binds its port immediately: /healthz answers 200 and
// /readyz answers 503 while the store recovers and the startup
// expansion runs, then /readyz flips to 200 — so orchestrators can
// distinguish "starting" from "dead" instead of timing out on connect.
//
// -slow enables the slow-query log: requests over the threshold retain
// their EXPLAIN ANALYZE plan at GET /debug/slow and log a warning.
//
// The watchdog runner starts before the initial expansion, so a stuck
// recovery or diverging startup chain already opens incidents while
// /readyz is still 503; they are readable at GET /debug/incidents the
// whole time. On panic or SIGQUIT the flight recorder, incidents, and
// a goroutine dump are written under -incident-dir before the process
// dies.
//
// SIGINT/SIGTERM shut the server down in order: stop accepting, give
// in-flight requests shutdownGrace to finish (a stream still open past
// it is cut — every batch it was acked for is published and durable
// already), then, under the one writer lock, checkpoint the store and
// close it, so the next start recovers from a snapshot, not a WAL.
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"probkb"
	"probkb/internal/mpp"
	"probkb/internal/obs"
	"probkb/internal/server"
)

// Transport limits. Constants, not flags (the maxBodyBytes precedent in
// internal/server). There is deliberately no WriteTimeout: streamed
// POST /facts and POST /admin/expand are long-lived by design.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
	shutdownGrace     = 5 * time.Second
)

// Watchdog thresholds besides -stuck-query; constants, not flags, since
// nothing has needed other values.
const (
	maxGoroutines     = 10000     // goroutine count
	maxRHat           = 2.0       // an active Gibbs chain's checkpoint R-hat
	maxWALRecords     = 1_000_000 // WAL records without a checkpoint
	maxRetriesPerTick = 50        // MPP segment retries per watchdog tick
)

// serve runs srv on ln until ctx ends (SIGINT/SIGTERM in main), with
// startup — recovery, the initial expansion, Attach — running beside
// the listener so /healthz answers while /readyz is still 503. startup
// returns the store it opened, if any. On the way out: Shutdown with
// grace, cut what is still open, then checkpoint and close the store
// under the writer lock (srv.Close).
func serve(ctx context.Context, ln net.Listener, srv *server.Server, grace time.Duration,
	logger *slog.Logger, startup func(context.Context) (*probkb.Store, error)) error {
	hs := &http.Server{Handler: srv, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()

	pst, err := startup(ctx)
	if err == nil {
		select {
		case err = <-served:
		case <-ctx.Done():
			logger.Info("shutting down", "grace", grace)
		}
	}
	sctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if hs.Shutdown(sctx) != nil {
		hs.Close()
	}
	if pst == nil {
		return err
	}
	if cerr := srv.Close(); cerr != nil {
		logger.Error("shutdown checkpoint failed; the WAL stays recoverable", "err", cerr)
	} else {
		logger.Info("store checkpointed", "gen", pst.Gen())
	}
	// A no-op after srv.Close; what closes the store of a startup that
	// never attached one.
	return errors.Join(err, pst.Close())
}

// openKB returns the KB the server starts from and, with a persistDir,
// the store that makes it durable: recovered when persistDir holds one
// (kbDir is not read), created from kbDir otherwise.
func openKB(kbDir, persistDir string, logger *slog.Logger) (*probkb.KB, *probkb.Store, error) {
	if persistDir == "" {
		k, err := probkb.Load(kbDir)
		return k, nil, err
	}
	st, k, created, err := probkb.OpenOrCreateStore(persistDir, func() (*probkb.KB, error) { return probkb.Load(kbDir) })
	if err != nil {
		return nil, nil, err
	}
	if created {
		logger.Info("initialized store", "dir", persistDir)
	} else {
		logger.Info("recovered store", "dir", persistDir,
			"gen", st.Gen(), "wal_records", st.WALRecords(), "facts", st.Facts())
	}
	return k, st, nil
}

func main() {
	dir := flag.String("kb", "", "KB directory; not read when -persist already holds a store")
	addr := flag.String("addr", ":8080", "listen address")
	persistDir := flag.String("persist", "", "durable store directory: created from -kb if it holds no store, recovered if it does")
	slowThreshold := flag.Duration("slow", 0, "slow-query threshold for /debug/slow (0 = off), e.g. 250ms")
	maxInFlight := flag.Int("max-in-flight", 0, "admission control: max concurrently served data requests, excess answers 429 (0 = unlimited)")
	watchInterval := flag.Duration("watchdog-interval", 5*time.Second, "watchdog detector evaluation interval (0 = watchdogs off)")
	stuckQuery := flag.Duration("stuck-query", 5*time.Minute, "flag a query running longer than this")
	incidentDir := flag.String("incident-dir", "", "directory for crash dumps on panic/SIGQUIT (empty = no dumps)")
	verbose := flag.Bool("v", false, "debug-level logging")
	flag.Parse()

	level := slog.LevelInfo
	if *verbose {
		level = slog.LevelDebug
	}
	logger := obs.NewTextLogger(os.Stderr, level)

	if *dir == "" && *persistDir == "" {
		logger.Error("missing -kb DIR")
		os.Exit(1)
	}
	obs.DefaultSlowLog.SetThreshold(*slowThreshold)

	// Crash dumps: SIGQUIT and a main-goroutine panic both write the
	// flight recorder, incidents, metrics, and a goroutine dump to disk
	// before the process dies, so the post-mortem survives.
	if *incidentDir != "" {
		quit := make(chan os.Signal, 1)
		signal.Notify(quit, syscall.SIGQUIT)
		go func() {
			<-quit
			if path, err := obs.DefaultIncidents.WriteCrashDump(*incidentDir, "SIGQUIT"); err == nil {
				logger.Info("crash dump written", "path", path)
			} else {
				logger.Error("crash dump failed", "err", err)
			}
			os.Exit(131)
		}()
		defer func() {
			if r := recover(); r != nil {
				if path, err := obs.DefaultIncidents.WriteCrashDump(*incidentDir, "panic"); err == nil {
					logger.Error("panic; crash dump written", "panic", r, "path", path)
				}
				panic(r)
			}
		}()
	}

	// The watchdog starts before recovery and the initial expansion:
	// anomalies during startup (a stuck recovery, a diverging chain) are
	// incidents too, visible at /debug/incidents while /readyz is 503.
	var watchdog *obs.Runner
	if *watchInterval > 0 {
		watchdog = obs.NewRunner(*watchInterval)
		watchdog.OnFire = func(f obs.Finding) { obs.DefaultIncidents.Open(f) }
		watchdog.Add(&obs.StuckQueryDetector{Registry: obs.Queries, MaxElapsed: *stuckQuery},
			obs.Hysteresis{FireAfter: 2, ClearAfter: 2})
		watchdog.Add(&obs.GoroutineLeakDetector{Max: maxGoroutines},
			obs.Hysteresis{FireAfter: 2, ClearAfter: 2})
		watchdog.Add(&obs.HeapGrowthDetector{},
			obs.Hysteresis{FireAfter: 1, ClearAfter: 2})
		watchdog.Add(&obs.GibbsDivergenceDetector{Health: obs.Gibbs, MaxRHat: maxRHat},
			obs.Hysteresis{FireAfter: 2, ClearAfter: 2})
		watchdog.Add(&obs.GibbsStallDetector{Health: obs.Gibbs},
			obs.Hysteresis{FireAfter: 2, ClearAfter: 2})
		watchdog.Add(&obs.RetryStormDetector{Retries: mpp.SegmentRetries, MaxPerTick: maxRetriesPerTick},
			obs.Hysteresis{FireAfter: 1, ClearAfter: 2})
		watchdog.Start()
		defer watchdog.Stop()
		logger.Info("watchdog running", "interval", *watchInterval)
	}

	// Bind the port before the (possibly long) recovery and expansion:
	// /healthz and /metrics serve immediately, /readyz stays 503 until
	// the expansion below attaches.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("listen failed", "err", err)
		os.Exit(1)
	}
	logger.Info("listening", "addr", *addr)
	srv := server.NewPending()
	srv.SetMaxInFlight(*maxInFlight)
	// The first SIGINT/SIGTERM starts the orderly shutdown; it also stops
	// the catching, so a second one kills the process the default way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	context.AfterFunc(ctx, stop)

	startup := func(ctx context.Context) (pst *probkb.Store, err error) {
		fail := func(msg string, err error) (*probkb.Store, error) {
			logger.Error(msg, "err", err)
			return pst, err
		}
		var k *probkb.KB
		if k, pst, err = openKB(*dir, *persistDir, logger); err != nil {
			return fail("open failed", err)
		}
		if watchdog != nil && pst != nil {
			watchdog.Add(&obs.WALGrowthDetector{Records: pst.WALRecords, MaxRecords: maxWALRecords},
				obs.Hysteresis{FireAfter: 2, ClearAfter: 2})
		}
		st := k.Stats()
		logger.Info("loaded KB", "facts", st.Facts, "rules", st.Rules,
			"entities", st.Entities, "constraints", st.Constraints)

		exp, err := k.ExpandContext(ctx, probkb.Config{
			Engine:           probkb.SingleNode,
			ApplyConstraints: true,
			RunInference:     true,
			Persist:          pst,
			OnIteration: func(it probkb.IterationStats) {
				logger.Debug("grounding iteration", "iter", it.Iteration,
					"new_facts", it.NewFacts, "deleted", it.Deleted, "queries", it.Queries)
			},
		})
		if err != nil {
			return fail("expansion failed", err)
		}
		est := exp.Stats()
		logger.Info("expanded",
			"base_facts", est.BaseFacts, "inferred_facts", est.InferredFacts,
			"factors", est.Factors, "grounding", est.GroundingTime, "inference", est.InferenceTime)

		var opts []server.Option
		if pst != nil {
			opts = append(opts, server.WithStore(pst))
			logger.Info("store durable", "gen", pst.Gen(), "wal_records", pst.WALRecords())
		}
		srv.Attach(k, exp, opts...)
		srv.SetReady(true)
		logger.Info("ready", "addr", *addr)
		return pst, nil
	}
	if err := serve(ctx, ln, srv, shutdownGrace, logger, startup); err != nil {
		logger.Error("server exited", "err", err)
		os.Exit(1)
	}
}
