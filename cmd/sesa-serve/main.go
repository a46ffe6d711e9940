// Command sesa-serve is the sweep-as-a-service daemon: a long-running HTTP
// front end over the parallel experiment runner, for design-space studies
// too large or too shared for one-shot CLI invocations.
//
//	sesa-serve -addr :8344 -max-workers 8 -max-queued 16
//
// Submit, poll, fetch and cancel sweeps:
//
//	curl -X POST localhost:8344/v1/sweeps -d '{"jobs":[{"profile":"radix","model":"370-SLFSoS-key","inst_per_core":50000,"seed":42}]}'
//	curl localhost:8344/v1/sweeps/sw-000001
//	curl localhost:8344/v1/sweeps/sw-000001/results
//	curl -X DELETE localhost:8344/v1/sweeps/sw-000001
//
// Completed jobs land in a content-addressed cache, so resubmitting an
// experiment returns instantly with byte-identical results. SIGTERM/SIGINT
// drains gracefully: admission stops (503), queued and running sweeps get
// -drain-timeout to finish, then the rest is canceled and the process exits.
//
// With -fleet the daemon becomes a coordinator: instead of simulating on
// the local runner pool, it shards each sweep into job batches that
// sesa-worker processes lease over /v1/fleet/ (lease TTL + heartbeat;
// expired leases are reassigned, so worker loss costs time, not results).
// Output is byte-identical to single-host execution of the same sweep:
//
//	sesa-serve -addr :8344 -fleet
//	sesa-worker -coordinator http://localhost:8344 &
//	sesa-worker -coordinator http://localhost:8344 &
//
// Telemetry: -log-level/-log-format control the structured log on stderr,
// GET /metrics serves the lease-lifecycle and sweep-throughput counters in
// Prometheus text format, and GET /v1/sweeps/{id}/timeline exports a
// sweep's distributed span timeline as Chrome-trace JSON (open it in
// ui.perfetto.dev).
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"sesa/internal/config"
	"sesa/internal/serve"
	"sesa/internal/telemetry"
)

func main() {
	addr := flag.String("addr", "localhost:8344", "listen address (host:port, :0 picks a free port)")
	maxWorkers := flag.Int("max-workers", runtime.GOMAXPROCS(0), "parallel simulation workers for the running sweep")
	maxQueued := flag.Int("max-queued", serve.DefaultMaxQueued, "bound on queued sweeps; submissions past it get 429 with Retry-After")
	maxCached := flag.Int("max-cached", serve.DefaultMaxCached, "bound on content-addressed cached job results (negative disables the cache)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful-drain bound on SIGTERM/SIGINT before running sweeps are canceled")
	resultsDir := flag.String("results-dir", "", "flush every finished sweep's results document to this directory as <id>.json")
	fleetMode := flag.Bool("fleet", false, "coordinator mode: shard sweeps across sesa-worker nodes pulling from /v1/fleet/ instead of simulating locally")
	fleetBatch := flag.Int("fleet-batch", config.DefaultFleetBatchSize, "jobs per fleet lease batch")
	fleetTTL := flag.Duration("fleet-lease-ttl", config.DefaultFleetLeaseTTL, "fleet lease TTL; a worker silent this long forfeits its batches")
	fleetAttempts := flag.Int("fleet-max-attempts", config.DefaultFleetMaxAttempts, "lease attempts before a batch's jobs are failed outright")
	logFlags := config.TelemetryFlags()
	flag.Parse()

	logger, err := telemetry.NewLogger(os.Stderr, logFlags.LogLevel, logFlags.LogFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	log := logger.With("component", "sesa-serve")

	if *resultsDir != "" {
		if err := os.MkdirAll(*resultsDir, 0o755); err != nil {
			log.Error("creating results directory failed", "error", err)
			os.Exit(1)
		}
	}

	opts := serve.Options{
		MaxWorkers: *maxWorkers,
		MaxQueued:  *maxQueued,
		MaxCached:  *maxCached,
		ResultsDir: *resultsDir,
		Telemetry:  &telemetry.T{Log: logger, Metrics: telemetry.NewRegistry()},
	}
	if *fleetMode {
		opts.Fleet = &config.Fleet{
			BatchSize:   *fleetBatch,
			LeaseTTL:    *fleetTTL,
			MaxAttempts: *fleetAttempts,
		}
	}
	srv, err := serve.New(opts)
	if err != nil {
		log.Error("invalid server options", "error", err)
		os.Exit(1)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Error("listen failed", "error", err)
		os.Exit(1)
	}
	hs := &http.Server{Handler: srv.Handler()}
	if *fleetMode {
		log.Info("coordinating fleet", "addr", "http://"+ln.Addr().String(),
			"batch", *fleetBatch, "lease_ttl", fleetTTL.String(), "max_queued", *maxQueued)
	} else {
		log.Info("listening", "addr", "http://"+ln.Addr().String(),
			"max_workers", *maxWorkers, "max_queued", *maxQueued)
	}
	go func() {
		if err := hs.Serve(ln); err != nil && err != http.ErrServerClosed {
			log.Error("http server failed", "error", err)
			os.Exit(1)
		}
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	<-ctx.Done()
	stop()

	log.Info("draining", "timeout", drainTimeout.String())
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	srv.Drain(dctx)
	cancel()
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	_ = hs.Shutdown(sctx)
	cancel()
	log.Info("drained, exiting")
}
