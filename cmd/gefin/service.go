package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"mbusim/internal/core"
	"mbusim/internal/dispatch"
	"mbusim/internal/telemetry"
	"mbusim/internal/workloads"
)

// oneShot is the grid of a `gefin -serve ADDR <grid flags>` run.
type oneShot struct {
	specs   []core.Spec
	pending []core.Spec // the cells -resume did not already cover
	rs      *core.ResultSet
	outPath string
	quiet   bool
}

// runServe is `gefin -serve ADDR`, the one coordinator: a campaign service
// leasing cells to -join workers, serving checkpoint artifacts, /metrics
// and /healthz on the same port.
//
// With -service-dir DIR it is the durable multi-campaign service.
// Campaigns arrive over POST /campaigns, one worker fleet is shared
// round-robin across everything running, and every accepted submission and
// state transition is journaled before it is acknowledged — SIGKILL the
// process, restart it on the same directory, and queued, running and
// finished campaigns come back exactly, with results files byte-identical
// to an uninterrupted run.
//
// With grid flags (shot) the same service runs on a temporary state
// directory with the grid submitted as its one campaign, and the process
// exits once that campaign ends and the fleet is drained. Its durability is
// -out, flushed after every accepted cell exactly like a local run, so a
// distributed grid is resumable and mergeable with single-process ones.
func runServe(ctx context.Context, cancel context.CancelFunc, stdout, stderr io.Writer,
	addr, dir string, opts dispatch.ServiceOptions, shot *oneShot,
	health func() telemetry.Health, start time.Time) int {
	tel := opts.Tel
	// The artifact table is lazy — nothing derives until a worker asks — so
	// the service can offer every workload a future submission might name.
	artSpecs := allWorkloadSpecs()
	if shot != nil {
		tmp, err := os.MkdirTemp("", "gefin-serve-")
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer os.RemoveAll(tmp)
		dir, artSpecs = tmp, shot.specs
	}
	svc, err := dispatch.NewService(dir, opts)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer svc.Close()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	arts, err := dispatch.NewArtifactServer(artSpecs, tel)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	mux := svc.Mux()
	if shot != nil {
		// A one-shot grid takes no submissions: its port serves the worker
		// protocol and the event stream only.
		mux = svc.FleetMux()
	} else {
		health = func() telemetry.Health {
			return telemetry.Health{Role: "service",
				UptimeSeconds: time.Since(start).Seconds(), Campaign: svc.Snapshot()}
		}
	}
	mux.Handle(dispatch.PathArtifact, arts)
	mux.Handle("/", telemetry.Handler(tel.Registry, health))
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	defer srv.Close()

	if shot == nil {
		fmt.Fprintf(stderr, "dispatch: campaign service on http://%s (state %s, %d active slots, queue depth %d)\n",
			ln.Addr(), dir, opts.MaxActive, opts.QueueDepth)
		svc.Run(ctx)
		fmt.Fprintln(stderr, "campaign service stopped; state is durable — restart with the same -service-dir to resume")
		return 130
	}

	// Publish the grid shape so -status and /healthz show fleet-wide totals.
	totalSamples := 0
	for _, s := range shot.pending {
		totalSamples += s.Samples
	}
	tel.SetGridShape(len(shot.pending), totalSamples, 0, 0)
	var (
		mu       sync.Mutex // the callback runs on handler goroutines
		done     int
		flushErr error
	)
	info, _, err := svc.Submit(&dispatch.SubmitCampaignRequest{Specs: shot.specs}, shot.rs,
		func(cell int, res *core.Result) {
			mu.Lock()
			defer mu.Unlock()
			done++
			// A failed flush cancels: running on while losing results would
			// re-create the very bug -out exists to fix.
			if shot.outPath != "" {
				if err := shot.rs.Save(shot.outPath); err != nil && flushErr == nil {
					flushErr = err
					cancel()
				}
			}
			if !shot.quiet {
				fmt.Fprintln(stdout, cellLine(done, len(shot.pending), shot.specs[cell], res, start))
			}
		})
	if err != nil {
		return clientExit(stderr, err)
	}
	fmt.Fprintf(stderr, "dispatch: coordinating %d cells on http://%s (lease TTL %v, %d retries/cell)\n",
		len(shot.pending), ln.Addr(), opts.LeaseTTL, opts.MaxRetries)
	// The sweep loop stops, and is waited for, before the service closes.
	runCtx, stopRun := context.WithCancel(ctx)
	swept := make(chan struct{})
	go func() { svc.Run(runCtx); close(swept) }()
	defer func() { stopRun(); <-swept }()
	final, err := svc.Wait(ctx, info.ID)
	if err == nil {
		// Keep serving briefly so tail workers polling for work learn the
		// campaign is over instead of finding a closed port.
		svc.Drain(ctx, opts.LeaseTTL)
	}
	mu.Lock()
	defer mu.Unlock()
	switch {
	case flushErr != nil:
		fmt.Fprintf(stderr, "flush failed after %d cells: %v\n", done, flushErr)
		return 1
	case err != nil:
		fmt.Fprintf(stderr, "interrupted: %d/%d cells complete", done, len(shot.pending))
		if shot.outPath != "" && done > 0 {
			fmt.Fprintf(stderr, ", partial results saved to %s (finish with -resume)", shot.outPath)
		}
		fmt.Fprintln(stderr)
		return 130
	case final.State != dispatch.StateDone:
		fmt.Fprintf(stderr, "%s (%d/%d cells complete", final.Detail, done, len(shot.pending))
		if shot.outPath != "" && done > 0 {
			fmt.Fprintf(stderr, ", saved to %s; fix and re-run with -resume", shot.outPath)
		}
		fmt.Fprintln(stderr, ")")
		return 1
	}
	if !shot.quiet {
		fmt.Fprintf(stdout, "campaign complete: %d cells in %v\n", done, time.Since(start).Round(time.Second))
	}
	if shot.outPath != "" {
		fmt.Fprintf(stderr, "wrote %s\n", shot.outPath)
	}
	return 0
}

// allWorkloadSpecs synthesizes one spec per registered workload — the
// artifact server only reads Workload from them.
func allWorkloadSpecs() []core.Spec {
	names := workloads.Names()
	specs := make([]core.Spec, 0, len(names))
	for _, w := range names {
		specs = append(specs, core.Spec{Workload: w})
	}
	return specs
}

// serviceURL normalizes a host:port to a base URL.
func serviceURL(addr string) string {
	if !strings.Contains(addr, "://") {
		return "http://" + addr
	}
	return addr
}

// clientExit maps a campaign-API client error to an exit code: a typed
// rejection (4xx) is misconfiguration (2), anything else — the service
// unreachable past the client's patience — is a runtime failure (1).
func clientExit(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, err)
	var term *dispatch.TerminalError
	if errors.As(err, &term) {
		return 2
	}
	return 1
}

// runSubmit is `gefin -submit ADDR <grid flags>`: build the grid exactly
// like a local run would and hand it to the campaign service. With
// -campaign-out it then polls until the campaign finishes and downloads
// the results file; the poll loop rides the client's retry policy, so a
// service restart mid-campaign is invisible here beyond latency.
func runSubmit(ctx context.Context, stdout, stderr io.Writer, addr string,
	specs []core.Spec, tenant, name string, retries int, outPath string, quiet bool) int {
	cl := &dispatch.Client{URL: serviceURL(addr)}
	info, err := cl.SubmitCampaign(ctx, &dispatch.SubmitCampaignRequest{
		Tenant: tenant, Name: name, Retries: retries, Specs: specs,
	})
	if err != nil {
		return clientExit(stderr, err)
	}
	fmt.Fprintf(stdout, "campaign %s: %s, %d cells, tenant %s\n",
		info.ID, info.State, info.Cells, info.Tenant)
	if outPath == "" {
		return 0
	}

	lastDone := -1
	for {
		cur, err := cl.Campaign(ctx, info.ID)
		if err != nil {
			if ctx.Err() != nil {
				fmt.Fprintf(stderr, "interrupted waiting on campaign %s (it keeps running server-side)\n", info.ID)
				return 130
			}
			return clientExit(stderr, err)
		}
		if !quiet && cur.Done != lastDone {
			lastDone = cur.Done
			fmt.Fprintf(stdout, "campaign %s: %s, %d/%d cells done\n",
				cur.ID, cur.State, cur.Done, cur.Cells)
		}
		switch cur.State {
		case dispatch.StateDone:
			data, err := cl.Results(ctx, cur.ID)
			if err != nil {
				return clientExit(stderr, err)
			}
			if err := os.WriteFile(outPath, data, 0o644); err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			fmt.Fprintf(stderr, "wrote %s\n", outPath)
			return 0
		case dispatch.StateFailed:
			fmt.Fprintf(stderr, "campaign %s failed: %s\n", cur.ID, cur.Detail)
			return 1
		case dispatch.StateCancelled:
			fmt.Fprintf(stderr, "campaign %s was cancelled\n", cur.ID)
			return 1
		}
		select {
		case <-ctx.Done():
			fmt.Fprintf(stderr, "interrupted waiting on campaign %s (it keeps running server-side)\n", info.ID)
			return 130
		case <-time.After(time.Second):
		}
	}
}

// campaignLine renders one campaign's status.
func campaignLine(c dispatch.CampaignInfo) string {
	line := fmt.Sprintf("%s  %-9s  %d/%d cells", c.ID, c.State, c.Done, c.Cells)
	if c.Leased > 0 {
		line += fmt.Sprintf(", %d leased", c.Leased)
	}
	if c.Retries > 0 {
		line += fmt.Sprintf(", %d retries", c.Retries)
	}
	line += "  tenant=" + c.Tenant
	if c.Name != "" {
		line += "  name=" + c.Name
	}
	if c.Detail != "" {
		line += "  (" + c.Detail + ")"
	}
	return line
}

// runCampaigns is `gefin -campaigns ADDR [-campaign ID [-do ACTION]]`:
// list every campaign, show one, or transition one (pause/resume/cancel).
func runCampaigns(ctx context.Context, stdout, stderr io.Writer, addr, id, action string) int {
	cl := &dispatch.Client{URL: serviceURL(addr)}
	switch {
	case id == "":
		infos, err := cl.Campaigns(ctx)
		if err != nil {
			return clientExit(stderr, err)
		}
		if len(infos) == 0 {
			fmt.Fprintln(stdout, "no campaigns")
			return 0
		}
		for _, c := range infos {
			fmt.Fprintln(stdout, campaignLine(c))
		}
		return 0
	case action != "":
		info, err := cl.Transition(ctx, id, action)
		if err != nil {
			return clientExit(stderr, err)
		}
		fmt.Fprintln(stdout, campaignLine(*info))
		return 0
	default:
		info, err := cl.Campaign(ctx, id)
		if err != nil {
			return clientExit(stderr, err)
		}
		fmt.Fprintln(stdout, campaignLine(*info))
		return 0
	}
}
