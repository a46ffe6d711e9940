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
// Telemetry: -log-level/-log-format control the structured log on stderr.
// GET /metrics is the one metrics surface: the admission queue, the result
// cache and each sweep's progress in Prometheus text format. GET
// /v1/sweeps/{id} is the one document per sweep, and
// GET /v1/sweeps/{id}/timeline exports a sweep's span timeline as
// Chrome-trace JSON (open it in ui.perfetto.dev).
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
	logLevel := flag.String("log-level", "info", "structured-log level: debug, info, warn or error")
	logFormat := flag.String("log-format", "text", "structured-log encoding: text or json")
	flag.Parse()

	logger, err := telemetry.NewLogger(os.Stderr, *logLevel, *logFormat)
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

	srv := serve.New(serve.Options{
		MaxWorkers: *maxWorkers,
		MaxQueued:  *maxQueued,
		MaxCached:  *maxCached,
		ResultsDir: *resultsDir,
		Log:        logger,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Error("listen failed", "error", err)
		os.Exit(1)
	}
	hs := &http.Server{Handler: srv.Handler()}
	log.Info("listening", "addr", "http://"+ln.Addr().String(),
		"max_workers", *maxWorkers, "max_queued", *maxQueued)
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
