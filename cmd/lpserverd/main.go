// Command lpserverd serves the toolkit's power estimators and
// optimization flows over HTTP/JSON: batched gate-level estimation for
// uploaded BLIF or named generator circuits, named flows with
// before/after power trajectories, survey experiment tables, obsv metrics
// and pprof. See internal/server for the API and its determinism and
// caching contracts.
//
//	lpserverd -addr :8080
//	curl -s localhost:8080/v1/estimate -d '{"circuit":"mult4"}'
//	curl -s localhost:8080/v1/flow -d '{"circuit":"radd8","flow":"glitch"}'
//	curl -s localhost:8080/v1/estimate:batch -d '{"items":[{"circuit":"mult4"},{"circuit":"cla8"}]}'
//	curl -s 'localhost:8080/v1/flow?async=1' -d '{"circuit":"mult6","flow":"lowpower"}'
//	curl -s localhost:8080/v1/jobs/<job_id>   # queued | running | done | error
//
// lpserverd -selfcheck N runs the built-in load generator instead of
// serving: N mixed requests replayed sequentially and concurrently
// against fresh in-process instances, verifying byte-identical responses,
// pristine caches and a warm result cache. Exit status 0 means pass.
//
// On SIGTERM or SIGINT the daemon stops accepting connections, drains
// in-flight requests (up to -drain), and exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/bdd"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "max concurrent estimations")
	timeout := flag.Duration("timeout", 30*time.Second, "default per-request deadline")
	maxTimeout := flag.Duration("max-timeout", 2*time.Minute, "upper clamp for request-supplied deadlines")
	drain := flag.Duration("drain", 30*time.Second, "shutdown grace period for in-flight requests")
	bddNodes := flag.Int("bdd-budget", 0, "default max BDD nodes per exact estimate; over budget degrades to Monte Carlo (0 = unlimited)")
	bddSteps := flag.Int64("bdd-steps", 0, "default max BDD ITE steps per exact estimate (0 = unlimited)")
	netCache := flag.Int("cache-networks", 64, "parsed-network LRU entries")
	resCache := flag.Int("cache-results", 512, "response-body LRU entries")
	maxBatch := flag.Int("max-batch", 32, "max items per POST /v1/estimate:batch envelope")
	maxJobs := flag.Int("max-jobs", 256, "async job store capacity; full-of-running rejects with 503")
	jobTTL := flag.Duration("job-ttl", 10*time.Minute, "how long finished async jobs stay pollable")
	selfcheck := flag.Int("selfcheck", 0, "run the N-request determinism load test instead of serving")
	accessLog := flag.Bool("access-log", true, "emit one JSON access-log line per request to stderr")
	traceReqs := flag.Bool("trace", false, "build a span tree per request (queue, cache, engine spans)")
	slowTrace := flag.Duration("slow-trace", 0, "dump span trees of requests slower than this as Chrome trace_event JSON (0 = off; implies -trace)")
	traceDir := flag.String("trace-dir", "traces", "directory for slow-request trace dumps")
	flag.Parse()

	cfg := server.Config{
		Workers:            *workers,
		NetworkCacheSize:   *netCache,
		ResultCacheSize:    *resCache,
		DefaultTimeout:     *timeout,
		MaxTimeout:         *maxTimeout,
		MaxBatchItems:      *maxBatch,
		MaxJobs:            *maxJobs,
		JobTTL:             *jobTTL,
		DefaultBudget:      bdd.Budget{MaxNodes: *bddNodes, MaxSteps: *bddSteps},
		TraceRequests:      *traceReqs || *slowTrace > 0,
		SlowTraceThreshold: *slowTrace,
		SlowTraceDir:       *traceDir,
	}
	if *accessLog {
		cfg.AccessLog = os.Stderr
	}

	logger := log.New(os.Stderr, "lpserverd: ", log.LstdFlags)
	if *workers < 1 {
		// The startup line reports the flag as the pool size, so it must
		// be the size the server runs.
		logger.Printf("-workers %d: want at least 1", *workers)
		os.Exit(2)
	}
	if *selfcheck > 0 {
		if err := server.SelfCheck(cfg, *selfcheck, logger.Printf); err != nil {
			logger.Print(err)
			os.Exit(1)
		}
		return
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Print(err)
		os.Exit(1)
	}
	srv := &http.Server{Handler: server.New(cfg).Handler()}

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	logger.Printf("serving on http://%s (workers=%d, default timeout %v)",
		ln.Addr(), cfg.Workers, cfg.DefaultTimeout)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigCh:
		logger.Printf("%v: draining (grace %v)", sig, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			logger.Printf("drain incomplete: %v", err)
			os.Exit(1)
		}
		logger.Print("drained cleanly")
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			logger.Print(err)
			os.Exit(1)
		}
	}
}
