package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"mbusim/internal/core"
	"mbusim/internal/telemetry"
)

// e2eGrid is a small but real grid: two cells that actually simulate.
func e2eGrid() []core.Spec {
	return []core.Spec{
		{Workload: "stringSearch", Component: core.CompL1D, Faults: 1, Samples: 4, Seed: 3},
		{Workload: "stringSearch", Component: core.CompDTLB, Faults: 2, Samples: 4, Seed: 3},
	}
}

// rawLease grabs a lease over HTTP without ever coming back — the analog
// of a worker SIGKILLed right after leasing.
func rawLease(t *testing.T, url, worker string) *LeaseReply {
	t.Helper()
	body, _ := json.Marshal(&LeaseRequest{Worker: worker})
	resp, err := http.Post(url+PathLease, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep LeaseReply
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	return &rep
}

// TestChaosEquivalence is the package's acceptance test: a worker dies
// holding a lease, a second worker completes the campaign after the lease
// expires, and the campaign's final ResultSet is byte-identical (canonical
// Encode) to an uninterrupted single-process run of the same grid. The
// service runs it the way a one-shot grid does: submitted in-process, then
// drained, which sends the survivor home.
func TestChaosEquivalence(t *testing.T) {
	specs := e2eGrid()

	// Reference: uninterrupted single-process run.
	ref := core.NewResultSet()
	if err := core.RunGrid(context.Background(), specs, 1,
		func(_ int, r *core.Result) { ref.Add(r) }); err != nil {
		t.Fatal(err)
	}
	want, err := ref.Encode()
	if err != nil {
		t.Fatal(err)
	}

	// Distributed: short TTL so the dead worker's lease expires quickly.
	svc, tel, srv := newTestService(t, t.TempDir(), ServiceOptions{LeaseTTL: 300 * time.Millisecond})
	rs := core.NewResultSet()
	info, _, err := svc.Submit(&SubmitCampaignRequest{Specs: specs}, rs, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	go svc.Run(ctx)

	// The victim: leases cell 0 and is never heard from again.
	if rep := rawLease(t, srv.URL, "victim"); rep.Status != StatusLease {
		t.Fatalf("victim lease = %+v", rep)
	}

	// The survivor: a real worker that does everything else, including the
	// victim's cell once its lease expires.
	w := &Worker{ID: "survivor", URL: srv.URL,
		Backoff: Backoff{Base: 20 * time.Millisecond, Max: 200 * time.Millisecond}}
	survivor := make(chan error, 1)
	go func() { survivor <- w.Run(ctx) }()
	final, err := svc.Wait(ctx, info.ID)
	if err != nil || final.State != StateDone {
		t.Fatalf("coordinator: %v (%+v)", err, final)
	}
	svc.Drain(ctx, 5*time.Second)
	if err := <-survivor; err != nil {
		t.Fatalf("survivor worker: %v", err)
	}

	got, err := rs.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("distributed ResultSet differs from single-process run:\n got: %s\nwant: %s", got, want)
	}
	if n := counter(tel, telemetry.MetricDispatchExpired); n < 1 {
		t.Fatalf("expected at least one expired lease, got %d", n)
	}
	if n := counter(tel, telemetry.MetricCells); n != int64(len(specs)) {
		t.Fatalf("cells completed counter = %d, want %d", n, len(specs))
	}
}

// coordOf returns the cell table behind one of the service's campaigns.
func coordOf(svc *Service, id string) *Coordinator {
	svc.mu.Lock()
	defer svc.mu.Unlock()
	return svc.campaigns[id].coord
}

// TestWorkerDrainAbandonsLease: a cancelled worker hands its in-flight
// cell back to the coordinator instead of letting the TTL expire it, and
// the hand-back does not burn a retry.
func TestWorkerDrainAbandonsLease(t *testing.T) {
	// One big cell the worker cannot possibly finish before we cancel it.
	specs := []core.Spec{{Workload: "stringSearch", Component: core.CompL1D,
		Faults: 1, Samples: 100000, Seed: 3}}
	svc, _, srv := newTestService(t, t.TempDir(), ServiceOptions{LeaseTTL: time.Minute})
	coord := coordOf(svc, submitLocal(t, svc, specs))

	ctx, cancel := context.WithCancel(context.Background())
	w := &Worker{ID: "drainer", URL: srv.URL}
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()

	// Wait until the worker holds the lease, then pull the plug.
	deadline := time.Now().Add(10 * time.Second)
	for {
		svc.mu.Lock()
		leased := len(coord.leases) == 1
		svc.mu.Unlock()
		if leased {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker never leased the cell")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("drained worker returned %v, want context.Canceled", err)
	}

	// The abandon hand-back is synchronous within Run's return, so the
	// cell is already pending again, with no retry charged.
	svc.mu.Lock()
	defer svc.mu.Unlock()
	if coord.state[0] != cellPending {
		t.Fatalf("cell state after drain = %d, want pending", coord.state[0])
	}
	if len(coord.leases) != 0 {
		t.Fatalf("%d leases outstanding after drain, want 0", len(coord.leases))
	}
	if coord.retries[0] != 0 {
		t.Fatalf("drain charged %d retries, want 0", coord.retries[0])
	}
}

// TestWorkerReportsCellFailure: a cell that fails on the worker (here: an
// invalid spec smuggled past admission) is reported, charged against the
// retry budget, and eventually fails the campaign; once the service
// drains, the worker observes that as a normal done.
func TestWorkerReportsCellFailure(t *testing.T) {
	specs := e2eGrid()
	svc, _, srv := newTestService(t, t.TempDir(), ServiceOptions{LeaseTTL: time.Minute, MaxRetries: 1})
	id := submitLocal(t, svc, specs)
	coord := coordOf(svc, id)
	// Sabotage cell 0 after validation: ForceSpanning with 1-bit faults in
	// the default 3x3 cluster can never produce a spanning mask, so every
	// sample errors out — the deterministic poisoned-cell case.
	svc.mu.Lock()
	coord.specs[0].ForceSpanning = true
	svc.mu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	go svc.Run(ctx)
	w := &Worker{ID: "w1", URL: srv.URL,
		Backoff: Backoff{Base: 20 * time.Millisecond, Max: 200 * time.Millisecond}}
	workerErr := make(chan error, 1)
	go func() { workerErr <- w.Run(ctx) }()
	final, err := svc.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	svc.Drain(ctx, 5*time.Second)
	if err := <-workerErr; err != nil {
		t.Fatalf("worker should end cleanly on campaign failure, got %v", err)
	}
	svc.mu.Lock()
	defer svc.mu.Unlock()
	if final.State != StateFailed || coord.Err() == nil {
		t.Fatal("campaign should have failed on the poisoned cell")
	}
}

// TestWorkerGivesUpWhenCoordinatorUnreachable bounds the reconnect loop:
// with nothing listening, Run fails after MaxDowntime, not forever.
func TestWorkerGivesUpWhenCoordinatorUnreachable(t *testing.T) {
	w := &Worker{ID: "w1", URL: "http://127.0.0.1:1",
		Backoff:     Backoff{Base: 10 * time.Millisecond, Max: 50 * time.Millisecond},
		MaxDowntime: 250 * time.Millisecond,
		Client:      &http.Client{Timeout: 100 * time.Millisecond},
	}
	start := time.Now()
	err := w.Run(context.Background())
	if err == nil {
		t.Fatal("worker should give up on an unreachable coordinator")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("worker took %v to give up", elapsed)
	}
}
