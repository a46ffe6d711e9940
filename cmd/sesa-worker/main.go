// Command sesa-worker is a fleet node for sesa-serve's coordinator mode: it
// registers with a coordinator, leases sweep job batches over /v1/fleet/,
// simulates them on its local runner pool and streams the results back.
//
//	sesa-worker -coordinator http://host:8344 -jobs 8 -name rack3-a
//
// Workers are stateless and interchangeable — start as many as you have
// machines; the coordinator's lease protocol shards work and survives any
// of them dying. SIGTERM/SIGINT drains gracefully: the worker stops
// leasing, finishes and reports its in-flight batch, and deregisters so
// the coordinator requeues immediately instead of waiting out the lease.
//
// With -status-addr the worker serves the introspection endpoints every
// sesa process serves: /metrics (lease and batch counters in Prometheus text
// format), /healthz, /debug/pprof/, and /status and /histograms, which stay
// empty because a worker's sweeps belong to its coordinator.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"sesa/internal/config"
	"sesa/internal/fleet"
	"sesa/internal/runner"
	"sesa/internal/telemetry"
)

func main() {
	coordinator := flag.String("coordinator", "http://localhost:8344", "coordinator base URL (a sesa-serve started with -fleet)")
	jobs := flag.Int("jobs", runtime.GOMAXPROCS(0), "parallel simulation workers for each leased batch")
	name := flag.String("name", "", "worker label in the coordinator's status table (default: hostname)")
	poll := flag.Duration("poll", 200*time.Millisecond, "idle re-lease interval when the coordinator has no work")
	statusAddr := flag.String("status-addr", "", "serve /metrics, /healthz, /debug/pprof and empty /status and /histograms on this address (\":0\" picks a free port)")
	logFlags := config.TelemetryFlags()
	flag.Parse()

	logger, err := telemetry.NewLogger(os.Stderr, logFlags.LogLevel, logFlags.LogFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	log := logger.With("component", "sesa-worker")

	label := *name
	if label == "" {
		if h, err := os.Hostname(); err == nil {
			label = h
		}
	}

	base := strings.TrimRight(*coordinator, "/")
	if !strings.HasSuffix(base, "/v1/fleet") {
		base += "/v1/fleet"
	}
	reg := telemetry.NewRegistry()
	w := fleet.NewWorker(fleet.WorkerOptions{
		Coordinator: base,
		Name:        label,
		Jobs:        *jobs,
		Poll:        *poll,
		Tel:         &telemetry.T{Log: logger, Metrics: reg},
	})

	if *statusAddr != "" {
		addr, err := runner.ServeStatus(*statusAddr, runner.StatusHandler(nil, reg))
		if err != nil {
			log.Error("status listener failed", "error", err)
			os.Exit(1)
		}
		log.Info("status endpoints up", "addr", "http://"+addr)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	log.Info("pulling from coordinator", "worker", label, "coordinator", base, "jobs", *jobs)
	if err := w.Run(ctx); err != nil && ctx.Err() == nil {
		log.Error("worker failed", "error", err)
		os.Exit(1)
	}
	log.Info("drained, exiting")
}
