// gefin runs spatial multi-bit fault-injection campaigns on the simulated
// Cortex-A9-like machine (the Gem5+GeFIN analog of the paper).
//
// Run one cell:
//
//	gefin -workload CRC32 -comp L1D -faults 2 -samples 100
//
// Run the full grid (6 components x 15 workloads x 3 cardinalities) and
// save the results for avfreport:
//
//	gefin -all -samples 100 -out results.json
//
// Campaigns are crash-safe and resumable. Cells are dispatched across a
// bounded worker pool (-parallel) and the results file is rewritten
// atomically after every completed cell, so a SIGINT/SIGTERM (trapped: the
// first signal cancels the workers, flushes, and exits 130), an OOM kill,
// or a failing cell never discards finished work. Re-running with -resume
// loads the existing -out file and skips every cell whose component,
// workload, cardinality, sample count and seed already match; seeded
// determinism makes the resumed grid bit-identical to an uninterrupted one.
//
// Campaigns also shard across processes and machines. One process owns the
// grid and the results file:
//
//	gefin -all -samples 100 -out results.json -serve :9321
//
// and any number of workers lease cells from it, run them, and submit the
// results:
//
//	gefin -join coordinator-host:9321
//
// Workers that crash, hang, or vanish are routine: their leases expire
// (-lease-ttl) and the cells are reassigned, bounded by a per-cell retry
// budget (-retries). Seeded determinism makes the distributed result set
// byte-identical to a single-process run of the same grid.
//
// Exit status: 0 on success, 1 on runtime errors, 2 on bad configuration
// (unknown component/workload, impossible cardinality), 130 when
// interrupted by a signal.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"mbusim/internal/core"
	"mbusim/internal/dispatch"
	"mbusim/internal/forensics"
	"mbusim/internal/telemetry"
	"mbusim/internal/workloads"
)

// forensicsFlag parses -forensics as a boolean-style flag with an optional
// mode: bare -forensics (or =fast) arms the component probes,
// -forensics=full adds the lockstep shadow-machine divergence probe
// (~2x per-sample cost), -forensics=off disables.
type forensicsFlag struct{ mode forensics.Mode }

func (f *forensicsFlag) String() string { return f.mode.String() }

func (f *forensicsFlag) Set(s string) error {
	m, err := forensics.ParseMode(s)
	if err != nil {
		return err
	}
	f.mode = m
	return nil
}

// IsBoolFlag lets bare -forensics (no value) mean fast mode instead of
// consuming the next argument.
func (f *forensicsFlag) IsBoolFlag() bool { return true }

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole CLI behind an exit code, so tests can drive it
// in-process with fake arg lists and capture both streams.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("gefin", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload   = fs.String("workload", "", "workload name, or comma-separated list with -all (empty with -all means every workload)")
		comp       = fs.String("comp", "", "component: L1D, L1I, L2, RegFile, DTLB, ITLB; comma-separated list with -all (empty with -all means every component)")
		faults     = fs.Int("faults", 1, "fault cardinality 1-3 (ignored with -all: all three run)")
		samples    = fs.Int("samples", 100, "injections per cell")
		seed       = fs.Uint64("seed", 1, "campaign seed")
		all        = fs.Bool("all", false, "run the full component x workload x cardinality grid")
		outPath    = fs.String("out", "", "write results JSON to this file (atomically, after every completed cell)")
		resume     = fs.Bool("resume", false, "load an existing -out file and run only the cells it does not already cover")
		parallel   = fs.Int("parallel", 0, "cells dispatched concurrently (0 = GOMAXPROCS; sample workers share the cores)")
		quiet      = fs.Bool("q", false, "suppress per-cell progress")
		nockpt     = fs.Bool("nockpt", false, "replay every run from cycle 0 instead of fast-forwarding from golden checkpoints")
		nodelta    = fs.Bool("nodelta", false, "build and fully restore a fresh machine per sample instead of delta-restoring one reused machine per worker (A/B verification knob)")
		ckpts      = fs.Int("checkpoints", workloads.CheckpointCount, "golden checkpoints per workload (K)")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of the campaign to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile after the campaign to this file")
		tracePath  = fs.String("trace", "", "write a JSONL trace (one record per injection sample) to this file, flushed per cell")
		metricsOn  = fs.String("metrics-addr", "", "serve live campaign metrics on host:port (/metrics Prometheus text, /healthz, /debug/vars expvar, /debug/pprof)")
		status     = fs.Duration("status", 0, "print a periodic campaign summary to stderr at this interval (works with -q; 0 disables)")
		eventsPath = fs.String("events", "", "append the campaign event log (JSONL, one event per line) to this file; with -resume an existing log is continued, sequence numbers stay strictly monotonic")
		watchURL   = fs.String("watch", "", "observe a running coordinator at host:port: stream its campaign event log and render a live fleet dashboard (takes no grid flags)")
		serveAddr  = fs.String("serve", "", "coordinate a distributed campaign: listen on host:port and lease grid cells to -join workers instead of running them in-process")
		joinAddr   = fs.String("join", "", "work for a coordinator at host:port: lease cells, run them, submit results (takes no grid flags)")
		serviceDir = fs.String("service-dir", "", "with -serve: run the durable multi-campaign service instead of a one-shot coordinator, keeping its journal, event log and per-campaign results files in this directory (campaigns arrive via POST /campaigns; grid flags are rejected)")
		queueDepth = fs.Int("queue-depth", 64, "service: campaigns allowed to wait in the queue before submissions bounce with 429")
		maxActive  = fs.Int("max-active", 4, "service: campaigns run concurrently over the shared worker fleet")
		tenantCamp = fs.Int("tenant-campaigns", 8, "service: live campaigns allowed per tenant")
		tenantCell = fs.Int("tenant-cells", 4096, "service: live cells allowed per tenant across its campaigns")
		submitAddr = fs.String("submit", "", "submit the grid flags as one campaign to the service at host:port and print its id (see -tenant/-name/-campaign-out; takes the same grid flags as a local run)")
		cmpgnsAddr = fs.String("campaigns", "", "query the service at host:port: list campaigns, or one campaign's status with -campaign, or transition it with -do")
		campaignID = fs.String("campaign", "", "campaign id for -campaigns status and -do")
		doAction   = fs.String("do", "", "with -campaigns and -campaign: pause, resume or cancel")
		tenantName = fs.String("tenant", "", "with -submit: tenant identity for admission quotas (default \"default\")")
		cmpgnName  = fs.String("name", "", "with -submit: idempotency name — resubmitting while a campaign of this name is live returns it instead of queuing a duplicate")
		cmpgnOut   = fs.String("campaign-out", "", "with -submit: wait for the campaign to finish and write its results file here (byte-identical to the service's durable copy)")
		workerID   = fs.String("worker-id", "", "worker identity reported to the coordinator (default host:pid)")
		leaseTTL   = fs.Duration("lease-ttl", 15*time.Second, "coordinator: a worker silent this long loses its lease and the cell is reassigned")
		retries    = fs.Int("retries", 5, "coordinator: reassignments allowed per cell before the campaign fails naming it")
		wallTO     = fs.Duration("wall-timeout", 0, "per-sample wall-clock budget; a sample exceeding it is recorded as a timeout (0 = no watchdog)")
		cacheDir   = fs.String("cache-dir", defaultCacheDir(), "worker: disk cache for checkpoint artifacts fetched from the coordinator (empty = no disk cache)")
		noArtifact = fs.Bool("no-artifacts", false, "worker: skip the checkpoint-artifact cache and derive every golden reference locally")
		profileDir = fs.String("profile", "", "profile mode: run each workload's fault-free golden reference under the liveness profiler and write one versioned .mbup artifact per workload into this directory (takes -workload and -windows; runs no injections)")
		windows    = fs.Int("windows", 64, "profile mode: occupancy sampling windows per profile (1-4096)")
	)
	var fmode forensicsFlag
	fs.Var(&fmode, "forensics", "track every injected bit's fate (fast: component probes; full: + lockstep shadow-machine divergence, ~2x cost)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	workloads.CheckpointCount = *ckpts

	// Watch mode is a pure observer: it connects to a coordinator's event
	// stream and renders, running no cells and owning no results.
	if *watchURL != "" {
		if *serveAddr != "" || *joinAddr != "" {
			fmt.Fprintln(stderr, "-watch observes a campaign from outside: drop -serve/-join")
			return 2
		}
		return runWatch(stdout, stderr, *watchURL)
	}

	// Profile mode observes golden runs and writes artifacts; it neither
	// runs injections nor talks to a fleet, so the distributed-role flags
	// are contradictions, not options.
	profileMode := *profileDir != ""
	if profileMode {
		switch {
		case *serveAddr != "" || *joinAddr != "":
			fmt.Fprintln(stderr, "-profile observes golden runs locally: drop -serve/-join")
			return 2
		case *outPath != "" || *resume:
			fmt.Fprintln(stderr, "-profile writes .mbup artifacts into its directory, not a results file: drop -out/-resume")
			return 2
		}
	}

	// Worker mode needs no grid flags: the coordinator's leases carry the
	// specs. Validate before buildSpecs so `gefin -join host:port` alone is
	// a complete invocation.
	joinMode := *joinAddr != ""
	if joinMode {
		switch {
		case *serveAddr != "":
			fmt.Fprintln(stderr, "-join and -serve are mutually exclusive: a process is a worker or the coordinator, not both")
			return 2
		case *all, *outPath != "", *resume:
			fmt.Fprintln(stderr, "-join takes its grid from the coordinator and submits results back to it: drop -all/-out/-resume (they belong on the -serve side)")
			return 2
		}
	}

	// Campaign-service roles. -submit and -campaigns are clients of a
	// service; -serve -service-dir IS the service. All are exclusive with
	// the single-campaign roles.
	submitMode := *submitAddr != ""
	listMode := *cmpgnsAddr != ""
	serviceMode := *serveAddr != "" && *serviceDir != ""
	switch {
	case *serviceDir != "" && *serveAddr == "":
		fmt.Fprintln(stderr, "-service-dir is the service's state directory: it needs -serve for the listen address")
		return 2
	case (submitMode || listMode) && (*serveAddr != "" || joinMode || submitMode && listMode):
		fmt.Fprintln(stderr, "-submit and -campaigns talk to a campaign service from outside: use them alone, without -serve/-join or each other")
		return 2
	case serviceMode && (*all || *outPath != "" || *resume || *workload != "" || *comp != ""):
		fmt.Fprintln(stderr, "the campaign service takes its grids from POST /campaigns, not flags: drop -all/-workload/-comp/-out/-resume")
		return 2
	case *doAction != "" && (*campaignID == "" || !listMode):
		fmt.Fprintln(stderr, "-do needs -campaigns (the service address) and -campaign (the id to transition)")
		return 2
	}
	// Config that cannot work fails before any listener opens: a
	// non-positive lease TTL would make every lease expire instantly (or
	// never), and negative budgets/quotas are contradictions, not choices.
	if *serveAddr != "" {
		if *leaseTTL <= 0 {
			fmt.Fprintln(stderr, "-lease-ttl must be positive: leases that expire instantly reassign every cell forever")
			return 2
		}
		if *retries < 0 {
			fmt.Fprintln(stderr, "-retries must be >= 0")
			return 2
		}
	}
	if serviceMode {
		for _, bad := range []struct {
			name string
			v    int
		}{{"-queue-depth", *queueDepth}, {"-max-active", *maxActive},
			{"-tenant-campaigns", *tenantCamp}, {"-tenant-cells", *tenantCell}} {
			if bad.v <= 0 {
				fmt.Fprintf(stderr, "%s must be positive (got %d)\n", bad.name, bad.v)
				return 2
			}
		}
	}

	var specs []core.Spec
	if !joinMode && !profileMode && !listMode && !serviceMode {
		specs, code = buildSpecs(stderr, *all, *comp, *workload, *faults, *samples, *seed, *nockpt, *nodelta, fmode.mode, *wallTO)
		if code != 0 {
			return code
		}
	}
	if *resume && *outPath == "" {
		fmt.Fprintln(stderr, "-resume needs -out: resuming loads and extends the results file")
		return 2
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	// Resume: skip every cell the existing results file already covers.
	rs := core.NewResultSet()
	pending := specs
	if *resume {
		loaded, err := core.LoadResultSet(*outPath)
		switch {
		case err == nil:
			rs = loaded
			pending = rs.Pending(specs)
			fmt.Fprintf(stderr, "resume: %d of %d cells already complete in %s\n",
				len(specs)-len(pending), len(specs), *outPath)
			if len(pending) == 0 {
				fmt.Fprintln(stderr, "resume: nothing to do")
				return 0
			}
		case os.IsNotExist(err):
			fmt.Fprintf(stderr, "resume: %s does not exist yet, starting fresh\n", *outPath)
		default:
			fmt.Fprintln(stderr, err)
			return 1
		}
	}

	start := time.Now()

	// A log write error stops the file growing, not the campaign: it is
	// reported when the run ends, and a clean exit becomes 1.
	closeLog := func(name string, errs ...error) {
		if err := errors.Join(errs...); err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", name, err)
			code = max(code, 1)
		}
	}
	// Telemetry: -trace, -metrics-addr, -status, -events or -forensics
	// enables the campaign registry (the core hot path stays untouched when
	// all are absent). Forensics needs the registry for its fate counters;
	// pair it with -trace to also get the per-sample forensics records. A
	// coordinator always carries the registry — its dispatch gauges are the
	// only view into a fleet of remote workers — and so does a worker, whose
	// registry snapshots ride its heartbeats into the coordinator's /metrics.
	var tel *telemetry.Campaign
	if *tracePath != "" || *metricsOn != "" || *status > 0 || *eventsPath != "" ||
		fmode.mode != forensics.ModeOff || *serveAddr != "" || joinMode {
		var tracer *telemetry.Tracer
		if *tracePath != "" {
			f, err := openLog(*tracePath, *resume, telemetry.OpenTrace)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			defer func() { closeLog("trace", f.Close()) }()
			tracer = telemetry.NewTracer(f)
		}
		tel = telemetry.NewCampaign(tracer)
	}
	// The event log: durable when -events names a file. The campaign service
	// always keeps a durable log in its state directory and always continues
	// it — restarting the service is resuming, never starting over. A
	// coordinator without -events still keeps an in-memory log so
	// /dispatch/events and -watch work.
	if *eventsPath != "" || serviceMode {
		path := *eventsPath
		if path == "" {
			path = filepath.Join(*serviceDir, "events.jsonl")
		}
		if serviceMode {
			if err := os.MkdirAll(*serviceDir, 0o755); err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
		}
		evlog, err := openLog(path, *resume || serviceMode, telemetry.OpenEventLog)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer func() { closeLog("events", evlog.Err(), evlog.Close()) }()
		tel.Events = evlog
	} else if *serveAddr != "" {
		tel.Events = telemetry.NewEventLog(nil, 0)
	}
	// Count every golden reference this process actually derives by running
	// the full fault-free simulation. In a distributed campaign the counter,
	// summed across the fleet, proves how many golden runs were really paid
	// for — the number the artifact cache exists to minimize. Nil-safe: with
	// telemetry off the hook is a no-op.
	workloads.OnGoldenDerived = func(string) { tel.GoldenDerived() }
	// The liveness index is one more golden pass per workload, paid on the
	// first cell that can resolve samples with it; time it separately so it
	// never counts as a golden derivation.
	workloads.OnLiveIndexBuilt = tel.LiveIndexBuilt

	// health feeds /healthz on the metrics port and (coordinator mode) the
	// dispatch port: the process role plus a cheap campaign digest.
	role := "local"
	switch {
	case joinMode:
		role = "worker"
	case serviceMode:
		role = "service"
	case *serveAddr != "":
		role = "coordinator"
	}
	health := func() telemetry.Health {
		h := telemetry.Health{Role: role, UptimeSeconds: time.Since(start).Seconds()}
		if tel.Enabled() {
			s := tel.Summarize()
			c := map[string]any{"samples": s.Samples, "cells": s.Cells}
			if s.SamplesExpected > 0 {
				c["samples_expected"] = s.SamplesExpected
			}
			if s.CellsExpected > 0 {
				c["cells_expected"] = s.CellsExpected
			}
			if s.Fleet() {
				c["workers_live"] = s.WorkersLive
				c["workers_seen"] = s.WorkersSeen
				c["cells_leased"] = s.CellsLeased
			}
			h.Campaign = c
		}
		return h
	}
	if *metricsOn != "" {
		ln, err := net.Listen("tcp", *metricsOn)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stderr, "metrics: serving http://%s/metrics (healthz /healthz, expvar /debug/vars, pprof /debug/pprof/)\n", ln.Addr())
		srv := &http.Server{Handler: telemetry.Handler(tel.Registry, health)}
		go srv.Serve(ln)
		defer srv.Close()
	}

	// The first SIGINT/SIGTERM cancels the campaign context: workers stop
	// between samples, the partial grid is already on disk (flushed after
	// every cell), and a second signal kills the process the default way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// A failed flush also cancels: running on while losing results would
	// re-create the very bug this flag exists to fix.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		done     = 0
		flushErr error
	)
	if *status > 0 {
		statusDone := make(chan struct{})
		defer close(statusDone)
		go statusLoop(stderr, tel, *status, start, statusDone)
	}
	if profileMode {
		return runProfile(ctx, stdout, stderr, *profileDir, *workload, *windows, *quiet, tel, start)
	}
	if joinMode {
		dir := *cacheDir
		if *noArtifact {
			dir = ""
		}
		return runWorker(ctx, stdout, stderr, *joinAddr, *workerID, *quiet, tel, start,
			!*noArtifact, dir)
	}
	if submitMode {
		return runSubmit(ctx, stdout, stderr, *submitAddr, specs,
			*tenantName, *cmpgnName, *retries, *cmpgnOut, *quiet)
	}
	if listMode {
		return runCampaigns(ctx, stdout, stderr, *cmpgnsAddr, *campaignID, *doAction)
	}
	if *serveAddr != "" {
		opts := dispatch.ServiceOptions{LeaseTTL: *leaseTTL, MaxRetries: *retries, Tel: tel}
		var shot *oneShot
		if serviceMode {
			opts.QueueDepth, opts.MaxActive = *queueDepth, *maxActive
			opts.TenantCampaigns, opts.TenantCells = *tenantCamp, *tenantCell
		} else {
			shot = &oneShot{specs: specs, pending: pending, rs: rs, outPath: *outPath, quiet: *quiet}
		}
		return runServe(ctx, cancel, stdout, stderr, *serveAddr, *serviceDir, opts, shot, health, start)
	}
	tel.Emit(telemetry.Event{Type: telemetry.EventCampaignStart, Cell: -1, Cells: len(pending)})
	err := core.RunGridWithTelemetry(ctx, pending, *parallel, func(i int, res *core.Result) {
		rs.Add(res)
		done++
		if *outPath != "" {
			if err := rs.Save(*outPath); err != nil && flushErr == nil {
				flushErr = err
				cancel()
			}
		}
		if !*quiet {
			fmt.Fprintln(stdout, cellLine(done, len(pending), pending[i], res, start))
		}
	}, tel)
	switch {
	case flushErr != nil:
		fmt.Fprintf(stderr, "flush failed after %d cells: %v\n", done, flushErr)
		return 1
	case errors.Is(err, context.Canceled):
		fmt.Fprintf(stderr, "interrupted: %d/%d cells complete", done, len(pending))
		if *outPath != "" && done > 0 {
			fmt.Fprintf(stderr, ", partial results saved to %s (finish with -resume)", *outPath)
		}
		fmt.Fprintln(stderr)
		return 130
	case err != nil:
		fmt.Fprintf(stderr, "%v (%d/%d cells complete", err, done, len(pending))
		if *outPath != "" && done > 0 {
			fmt.Fprintf(stderr, ", saved to %s; fix and re-run with -resume", *outPath)
		}
		fmt.Fprintln(stderr, ")")
		return 1
	}
	tel.Emit(telemetry.Event{Type: telemetry.EventCampaignDone, Cell: -1, Cells: done})
	if !*quiet {
		fmt.Fprintf(stdout, "campaign complete: %d cells in %v\n", done, time.Since(start).Round(time.Second))
	}
	if fmode.mode != forensics.ModeOff && !*quiet {
		fmt.Fprintln(stdout, fateLine(tel.Summarize()))
	}
	if *outPath != "" {
		fmt.Fprintf(stderr, "wrote %s\n", *outPath)
	}
	if tel.Tracing() {
		if err := tel.Tracer.Err(); err != nil {
			fmt.Fprintf(stderr, "trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "wrote %s\n", *tracePath)
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		runtime.GC() // materialize up-to-date allocation statistics
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		f.Close()
		fmt.Fprintf(stderr, "wrote %s\n", *memProfile)
	}
	return 0
}

// runWorker is worker mode: lease cells from the coordinator, run them
// through the normal campaign path, submit the results, repeat until the
// coordinator reports the campaign done. A SIGINT/SIGTERM drains: the
// in-flight cell is handed back so the coordinator reassigns it at once.
func runWorker(ctx context.Context, stdout, stderr io.Writer,
	addr, id string, quiet bool, tel *telemetry.Campaign, start time.Time,
	useArtifacts bool, cacheDir string) int {
	if id == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		id = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	var arts *dispatch.ArtifactCache
	if useArtifacts {
		arts = &dispatch.ArtifactCache{Dir: cacheDir, URL: addr, Tel: tel}
	}
	done := 0
	w := &dispatch.Worker{
		ID: id, URL: addr, Tel: tel, Artifacts: arts,
		OnCell: func(cell int, spec core.Spec, res *core.Result) {
			done++
			if !quiet {
				fmt.Fprintf(stdout, "cell %3d %-8s %-13s %d-bit: AVF=%6.2f%% (%d samples, %v elapsed)\n",
					cell, spec.Component, spec.Workload, spec.Faults,
					100*res.AVF(), res.Samples(), time.Since(start).Round(time.Millisecond))
			}
		},
	}
	fmt.Fprintf(stderr, "dispatch: worker %s joining %s\n", id, addr)
	err := w.Run(ctx)
	var term *dispatch.TerminalError
	switch {
	case errors.Is(err, context.Canceled):
		fmt.Fprintf(stderr, "interrupted: %d cells submitted; in-flight lease handed back\n", done)
		return 130
	case errors.As(err, &term):
		// The coordinator is healthy and said no — wrong service, unknown
		// campaign, rejected identity. Retrying cannot fix a permanent
		// rejection, so this is misconfiguration (exit 2), not a runtime
		// failure, and the worker exits now instead of burning MaxDowntime.
		fmt.Fprintln(stderr, err)
		return 2
	case err != nil:
		fmt.Fprintln(stderr, err)
		return 1
	}
	if !quiet {
		fmt.Fprintf(stdout, "worker done: %d cells submitted in %v\n", done, time.Since(start).Round(time.Second))
	}
	return 0
}

// cellLine renders one completed cell's outcome mix and the campaign ETA —
// the same line whether the cell ran in-process or arrived from a
// distributed worker.
func cellLine(done, total int, spec core.Spec, res *core.Result, start time.Time) string {
	elapsed := time.Since(start)
	// No completed cells means no per-cell pace to extrapolate (a division
	// by zero here renders as an "eta 2562047h..." absurdity, not a crash).
	eta := "--"
	if done > 0 {
		eta = time.Duration(float64(elapsed) / float64(done) * float64(total-done)).Round(time.Second).String()
	}
	return fmt.Sprintf("[%3d/%3d] %-8s %-13s %d-bit: AVF=%6.2f%% masked=%5.1f%% sdc=%5.1f%% crash=%5.1f%% timeout=%5.1f%% assert=%5.1f%% ±%.2f%% (%v elapsed, eta %v)",
		done, total, spec.Component, spec.Workload, spec.Faults,
		100*res.AVF(),
		100*res.Fraction(core.EffectMasked),
		100*res.Fraction(core.EffectSDC),
		100*res.Fraction(core.EffectCrash),
		100*res.Fraction(core.EffectTimeout),
		100*res.Fraction(core.EffectAssert),
		100*res.AdjustedMargin(0.99),
		elapsed.Round(time.Millisecond), eta)
}

// statusLoop prints a registry-driven summary line every interval until
// done is closed. It works alongside -q: the summary replaces, rather than
// duplicates, the per-cell progress stream.
func statusLoop(w io.Writer, tel *telemetry.Campaign, interval time.Duration, start time.Time, done <-chan struct{}) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-done:
			return
		case <-t.C:
			fmt.Fprintln(w, statusLine(tel.Summarize(), time.Since(start)))
		}
	}
}

// statusLine renders one campaign summary: sample throughput, outcome mix,
// cell progress, checkpoint hit rate and an ETA, all derived from the
// telemetry registry.
func statusLine(s telemetry.Summary, elapsed time.Duration) string {
	var b strings.Builder
	// Elapsed time can be zero (or negative, under clock steps) on the
	// first tick; dividing by it renders throughput as "+Inf/s". No
	// measurement window means no rate — print a placeholder and skip the
	// ETA, which would be equally meaningless.
	rate := 0.0
	if secs := elapsed.Seconds(); secs > 0 {
		rate = float64(s.Samples) / secs
	}
	fmt.Fprintf(&b, "status: %d", s.Samples)
	if s.SamplesExpected > 0 {
		fmt.Fprintf(&b, "/%d", s.SamplesExpected)
	}
	if rate > 0 {
		fmt.Fprintf(&b, " samples (%.1f/s)", rate)
	} else {
		b.WriteString(" samples (--/s)")
	}
	if s.Samples > 0 {
		b.WriteString(" |")
		for _, e := range core.Effects() {
			if n := s.ByOutcome[e.Label()]; n > 0 {
				fmt.Fprintf(&b, " %s %.1f%%", e.Label(), 100*float64(n)/float64(s.Samples))
			}
		}
	}
	fmt.Fprintf(&b, " | cells %d", s.Cells)
	if s.CellsExpected > 0 {
		fmt.Fprintf(&b, "/%d", s.CellsExpected)
	}
	if total := s.CheckpointHits + s.CheckpointMiss; total > 0 {
		fmt.Fprintf(&b, " | ckpt hit %.0f%%", 100*float64(s.CheckpointHits)/float64(total))
	}
	if s.Fleet() {
		fmt.Fprintf(&b, " | fleet %d/%d workers live, %d leased", s.WorkersLive, s.WorkersSeen, s.CellsLeased)
		if s.LeasesExpired > 0 || s.CellsRetried > 0 {
			fmt.Fprintf(&b, ", %d expired, %d retried", s.LeasesExpired, s.CellsRetried)
		}
	}
	if rate > 0 && s.SamplesExpected > s.Samples {
		eta := time.Duration(float64(s.SamplesExpected-s.Samples) / rate * float64(time.Second))
		fmt.Fprintf(&b, " | eta %v", eta.Round(time.Second))
	}
	return b.String()
}

// fateLine renders the campaign-wide masking-mechanism breakdown from the
// registry's forensics counters, in canonical fate order.
func fateLine(s telemetry.Summary) string {
	var total int64
	for _, n := range s.ByFate {
		total += n
	}
	var b strings.Builder
	b.WriteString("forensics:")
	if total == 0 {
		b.WriteString(" no fates recorded")
		return b.String()
	}
	for _, f := range forensics.Fates() {
		if n := s.ByFate[f.Label()]; n > 0 {
			fmt.Fprintf(&b, " %s %.1f%%", f.Label(), 100*float64(n)/float64(total))
		}
	}
	fmt.Fprintf(&b, " (n=%d)", total)
	return b.String()
}

// defaultCacheDir is where worker processes cache checkpoint artifacts
// between runs: the OS user cache directory, or no disk cache when the
// platform does not define one.
func defaultCacheDir() string {
	base, err := os.UserCacheDir()
	if err != nil {
		return ""
	}
	return filepath.Join(base, "mbusim", "artifacts")
}

// openLog opens a -trace or -events file under their one policy: a fresh
// run starts it empty, while a continued one (-resume, or the service,
// which always resumes) keeps it and lets open cut any torn tail.
func openLog[T any](path string, cont bool, open func(string) (T, error)) (T, error) {
	if !cont {
		f, err := os.Create(path)
		if err != nil {
			var none T
			return none, err
		}
		f.Close()
	}
	return open(path)
}

// buildSpecs expands the flag set into the campaign grid, validating
// component and workload lists up front — a typo must fail before the
// first golden run is built, not hours into the grid.
func buildSpecs(stderr io.Writer, all bool, comp, workload string, faults, samples int, seed uint64, nockpt, nodelta bool, fmode forensics.Mode, wallTO time.Duration) ([]core.Spec, int) {
	var specs []core.Spec
	if all {
		comps := core.Components()
		if comp != "" {
			comps = strings.Split(comp, ",")
			for _, c := range comps {
				if err := core.ValidComponent(c); err != nil {
					fmt.Fprintln(stderr, err)
					return nil, 2
				}
			}
		}
		names := workloads.Names()
		if workload != "" {
			names = strings.Split(workload, ",")
			for _, w := range names {
				if err := core.ValidWorkload(w); err != nil {
					fmt.Fprintln(stderr, err)
					return nil, 2
				}
			}
		}
		for _, c := range comps {
			for _, w := range names {
				for k := 1; k <= 3; k++ {
					specs = append(specs, core.Spec{
						Workload: w, Component: c, Faults: k,
						Samples: samples, Seed: seed,
						NoCheckpoints: nockpt, NoDelta: nodelta, Forensics: fmode,
						WallTimeout: wallTO,
					})
				}
			}
		}
	} else {
		if workload == "" || comp == "" {
			fmt.Fprintln(stderr, "need -workload and -comp (or -all)")
			return nil, 2
		}
		specs = append(specs, core.Spec{
			Workload: workload, Component: comp, Faults: faults,
			Samples: samples, Seed: seed,
			NoCheckpoints: nockpt, NoDelta: nodelta, Forensics: fmode,
			WallTimeout: wallTO,
		})
	}
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			fmt.Fprintln(stderr, err)
			return nil, 2
		}
	}
	return specs, 0
}
