package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"lockin/internal/fleet"
	"lockin/internal/results"
	"lockin/internal/telemetry"
)

// runCoordinate is the `lockbench coordinate` subcommand: the fleet
// coordinator of one distributed sweep. It enumerates the experiment's
// grids without simulating, leases cell-range chunks to joining
// `lockbench work` processes (large chunks first, most expensive
// first), merges posted chunks on arrival and — once one merged
// segment covers the whole cell space — prints the run and optionally
// stores it, byte-identical (modulo provenance) to a serial run.
func runCoordinate(args []string) {
	fs := flag.NewFlagSet("lockbench coordinate", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: lockbench coordinate -experiment <id> | -scenario <spec.json> [flags]")
		fmt.Fprintln(fs.Output(), "\nthe fleet coordinator: leases cell-range chunks to `lockbench work` processes")
		fmt.Fprintln(fs.Output(), "and merges their results into one run (see README \"Distributed sweeps\")")
		fmt.Fprintln(fs.Output())
		fs.PrintDefaults()
	}
	var (
		addr     = fs.String("addr", ":8351", "listen address workers join on")
		id       = fs.String("experiment", "", "registered experiment id to distribute")
		scenFile = fs.String("scenario", "", "scenario spec file to distribute instead of a registered experiment")
		seed     = fs.Int64("seed", 42, "simulation RNG seed (fleet-wide)")
		scale    = fs.Float64("scale", 1.0, "measurement-window multiplier (fleet-wide)")
		quick    = fs.Bool("quick", false, "trim sweep grids (fleet-wide)")
		workers  = fs.Int("workers", 0, "per-process sweep workers each fleet worker runs with (0 = all CPUs); recorded in the run metadata, so match it when diffing against serial runs")
		expect   = fs.Int("expect", 4, "worker count the chunk schedule is sized for (more may join; they steal)")
		minChunk = fs.Int("min-chunk", 1, "minimum chunk width in cell coordinates")
		ttl      = fs.Duration("lease-ttl", 2*time.Minute, "lease deadline; an unreported chunk requeues after this and the next idle worker steals it")
		jsonDir  = fs.String("json", "", "save the merged run to <dir>/<id>.json (results store)")
		logLevel = fs.String("log-level", "info", "structured-log level: debug, info, warn or error")
		logJSON  = fs.Bool("log-json", false, "emit structured logs as JSON instead of logfmt-style text")
	)
	fs.Parse(args) // ExitOnError: a bad flag exits 2

	logger, err := telemetry.NewLogger(os.Stderr, *logLevel, *logJSON)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lockbench coordinate: %v\n", err)
		os.Exit(2)
	}
	job := fleet.JobSpec{Experiment: *id, Seed: *seed, Scale: *scale, Quick: *quick, Workers: *workers}
	if *scenFile != "" {
		spec, err := os.ReadFile(*scenFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lockbench coordinate: read scenario spec: %v\n", err)
			os.Exit(2)
		}
		job.Scenario = json.RawMessage(spec)
	}
	co, err := fleet.New(fleet.Config{
		Job: job, Expect: *expect, MinChunk: *minChunk, LeaseTTL: *ttl, Logger: logger,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "lockbench coordinate: %v\n", err)
		os.Exit(2)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lockbench coordinate: %v\n", err)
		os.Exit(1)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	logger.Info("coordinating", "addr", *addr, "experiment", co.Status().Experiment)
	if err := serveFleet(ctx, &http.Server{Handler: co.Handler()}, ln, co, logger); err != nil {
		if ctx.Err() != nil {
			logger.Info("interrupted; abandoning the fleet")
		} else {
			fmt.Fprintf(os.Stderr, "lockbench coordinate: %v\n", err)
		}
		os.Exit(1)
	}

	run := co.Result()
	fmt.Printf("### %s — merged from the fleet\n\n", run.Meta.Experiment)
	printTables(run.Tables)
	if p := run.Meta.Perf; p != nil {
		fmt.Printf("### %s done in %vms (%d cells, %.1f cells/sec)\n\n",
			run.Meta.Experiment, p.WallMS, p.Cells, p.CellsPerSec)
	}
	if *jsonDir != "" {
		path, err := results.Save(*jsonDir, run)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("### saved %s\n\n", path)
	}
}

// serveFleet serves the coordinator on ln until its run is complete,
// then stops listening and waits for in-flight requests to finish. The
// request that completed the run is among them: returning earlier lets
// the process exit while that handler is still writing its response,
// and the worker that posted the final chunk reads EOF instead.
func serveFleet(ctx context.Context, hs *http.Server, ln net.Listener, co *fleet.Coordinator, logger *slog.Logger) error {
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		return ctx.Err()
	case <-co.Done():
	}
	// Give in-flight lease polls a moment to hear "done" so workers
	// exit cleanly. A handler still running at the deadline is cut off;
	// the merged run is complete either way.
	shutCtx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		logger.Warn("coordinator shutdown", "err", err)
	}
	return nil
}

// runWork is the `lockbench work` subcommand: one fleet worker. It
// joins a coordinator, executes leased chunks through the ordinary
// sweep engine and exits when the coordinator reports the run done.
func runWork(args []string) {
	fs := flag.NewFlagSet("lockbench work", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: lockbench work -join <http://host:port> [flags]")
		fmt.Fprintln(fs.Output(), "\none fleet worker: executes chunks leased by `lockbench coordinate`")
		fmt.Fprintln(fs.Output())
		fs.PrintDefaults()
	}
	var (
		join     = fs.String("join", "", "coordinator base URL (required)")
		name     = fs.String("name", "", "worker name in status and metrics (default host:pid)")
		logLevel = fs.String("log-level", "info", "structured-log level: debug, info, warn or error")
		logJSON  = fs.Bool("log-json", false, "emit structured logs as JSON instead of logfmt-style text")
	)
	fs.Parse(args)

	logger, err := telemetry.NewLogger(os.Stderr, *logLevel, *logJSON)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lockbench work: %v\n", err)
		os.Exit(2)
	}
	if *join == "" {
		fmt.Fprintln(os.Stderr, "lockbench work: -join <coordinator url> is required")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := fleet.Work(ctx, fleet.WorkerConfig{Addr: *join, Name: *name, Logger: logger}); err != nil {
		fmt.Fprintf(os.Stderr, "lockbench work: %v\n", err)
		os.Exit(1)
	}
}
