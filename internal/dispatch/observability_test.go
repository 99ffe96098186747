package dispatch

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mbusim/internal/core"
	"mbusim/internal/telemetry"
)

// eventTel returns a campaign with an in-memory event log attached, the way
// a coordinator runs.
func eventTel() *telemetry.Campaign {
	tel := telemetry.NewCampaign(nil)
	tel.Events = telemetry.NewEventLog(nil, 0)
	return tel
}

// eventTypes flattens a slice of events to their type strings.
func eventTypes(evs []telemetry.Event) []string {
	out := make([]string, len(evs))
	for i, ev := range evs {
		out[i] = ev.Type
	}
	return out
}

// TestCoordinatorEmitsLifecycleEvents: the fleet and cell story of one
// chaos episode, as the service logs it. The service's own campaign
// lifecycle events (campaign_queued, campaign_start, campaign_state)
// interleave with it; everything else must read exactly in this order.
func TestCoordinatorEmitsLifecycleEvents(t *testing.T) {
	specs := protoGrid(1)
	svc, tel, _ := newTestService(t, t.TempDir(), ServiceOptions{LeaseTTL: time.Second})
	advance := svcClockFor(svc)
	id := submitLocal(t, svc, specs)
	mux := svc.FleetMux()

	// Victim leases the cell, heartbeats once, then goes silent past TTL.
	var rep LeaseReply
	serve(t, mux, PathLease, &LeaseRequest{Worker: "victim"}, &rep)
	if rep.Status != StatusLease {
		t.Fatalf("lease = %+v", rep)
	}
	serve(t, mux, PathHeartbeat, &HeartbeatRequest{Worker: "victim", LeaseID: rep.LeaseID, Campaign: id}, nil)
	// Past the lease TTL and the 3-TTL live window: one sweep expires the
	// lease AND prunes the silent worker.
	advance(4 * time.Second)
	svc.Sweep()

	// Survivor takes over and completes it; the drain a one-shot grid ends
	// with sends it home on that submit.
	var rep2 LeaseReply
	serve(t, mux, PathLease, &LeaseRequest{Worker: "survivor"}, &rep2)
	if rep2.Status != StatusLease || rep2.Cell != rep.Cell {
		t.Fatalf("release = %+v", rep2)
	}
	svc.Drain(context.Background(), 0)
	var got SubmitReply
	serve(t, mux, PathSubmit, &SubmitRequest{Worker: "survivor", LeaseID: rep2.LeaseID,
		Campaign: id, Cell: rep2.Cell, Result: fakeResult(specs[0])}, &got)
	if got.Status != StatusAccepted || !got.CampaignDone {
		t.Fatalf("submit = %+v", got)
	}

	all := tel.Events.Since(0)
	for i, ev := range all {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d seq = %d: %+v", i, ev.Seq, ev)
		}
	}
	var evs []telemetry.Event
	for _, ev := range all {
		switch ev.Type {
		case telemetry.EventCampaignQueued, telemetry.EventCampaignStart, telemetry.EventCampaignState:
		default:
			evs = append(evs, ev)
		}
	}
	want := []string{
		telemetry.EventWorkerJoin,   // victim
		telemetry.EventCellLeased,   // victim takes cell 0
		telemetry.EventHeartbeat,    // victim's one beat
		telemetry.EventLeaseExpired, // sweep kills the silent lease
		telemetry.EventCellRetried,  // cell back to pending
		telemetry.EventWorkerLeave,  // victim pruned from the live set
		telemetry.EventWorkerJoin,   // survivor
		telemetry.EventCellLeased,   // survivor takes cell 0
		telemetry.EventCellDone,     // survivor's submit accepted
		telemetry.EventCampaignDone, // last cell: campaign over
		telemetry.EventWorkerLeave,  // survivor told to go home
	}
	if got := eventTypes(evs); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("event sequence:\n got %v\nwant %v", got, want)
	}

	// Cell-scoped events carry the spec identity; the retry carries blame.
	if lease := evs[1]; lease.Worker != "victim" || lease.Comp != specs[0].Component ||
		lease.Workload != specs[0].Workload || lease.Faults != specs[0].Faults {
		t.Fatalf("cell_leased = %+v", lease)
	}
	if exp := evs[3]; exp.Worker != "victim" || exp.Cell != rep.Cell || exp.Lease != rep.LeaseID {
		t.Fatalf("lease_expired = %+v", exp)
	}
	if retry := evs[4]; retry.Retries != 1 {
		t.Fatalf("cell_retried = %+v", retry)
	}
	if done := evs[8]; done.Worker != "survivor" || done.Samples != specs[0].Samples ||
		done.Counts["masked"] != specs[0].Samples {
		t.Fatalf("cell_done = %+v", done)
	}
	if fin := evs[9]; fin.Cells != 1 || fin.Detail != "" {
		t.Fatalf("campaign_done = %+v", fin)
	}
	if n := counter(tel, telemetry.MetricWorkersSeen); n != 2 {
		t.Fatalf("%s = %d, want 2", telemetry.MetricWorkersSeen, n)
	}
}

// TestServiceEmitsCampaignStart: the service opens each campaign's slice
// of the log with campaign_start, carrying the campaign id and the number
// of cells left to run — before the coordinator of a grid its results
// already cover reports campaign_done.
func TestServiceEmitsCampaignStart(t *testing.T) {
	specs := protoGrid(3)
	svc, tel, _ := newTestService(t, t.TempDir(), ServiceOptions{})
	rs := core.NewResultSet()
	rs.Add(fakeResult(specs[0]))
	info, _, err := svc.Submit(&SubmitCampaignRequest{Specs: specs}, rs, nil)
	if err != nil {
		t.Fatal(err)
	}
	covered := core.NewResultSet()
	for _, s := range specs {
		covered.Add(fakeResult(s))
	}
	done, _, err := svc.Submit(&SubmitCampaignRequest{Specs: specs}, covered, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final, err := svc.Wait(context.Background(), done.ID); err != nil || final.State != StateDone {
		t.Fatalf("covered campaign = %+v, %v; want done", final, err)
	}
	starts := map[string]int{}
	for _, ev := range tel.Events.Since(0) {
		switch ev.Type {
		case telemetry.EventCampaignStart:
			starts[ev.Campaign] = ev.Cells
		case telemetry.EventCampaignDone:
			if _, ok := starts[ev.Campaign]; !ok {
				t.Fatalf("campaign_done for %s before its campaign_start", ev.Campaign)
			}
		}
	}
	if starts[info.ID] != 2 || starts[done.ID] != 0 {
		t.Fatalf("campaign_start cells = %v, want %s:2 and %s:0", starts, info.ID, done.ID)
	}
	if _, ok := starts[done.ID]; !ok {
		t.Fatalf("no campaign_start for %s", done.ID)
	}
}

func TestHeartbeatAndSubmitFederateMetrics(t *testing.T) {
	specs := protoGrid(1)
	svc, tel, _ := newTestService(t, t.TempDir(), ServiceOptions{})
	id := submitLocal(t, svc, specs)
	mux := svc.FleetMux()
	var rep LeaseReply
	serve(t, mux, PathLease, &LeaseRequest{Worker: "w1"}, &rep)

	serve(t, mux, PathHeartbeat, &HeartbeatRequest{Worker: "w1", LeaseID: rep.LeaseID, Campaign: id,
		Metrics: []telemetry.WireMetric{
			{Name: `gefin_samples_total{outcome="masked"}`, Kind: telemetry.KindCounter, Value: 2},
		}}, nil)
	serve(t, mux, PathSubmit, &SubmitRequest{Worker: "w1", LeaseID: rep.LeaseID, Campaign: id, Cell: rep.Cell,
		Result: fakeResult(specs[0]),
		Metrics: []telemetry.WireMetric{
			{Name: `gefin_samples_total{outcome="masked"}`, Kind: telemetry.KindCounter, Value: 4},
		}}, nil)

	if got := counter(tel, `gefin_samples_total{outcome="masked",worker="w1"}`); got != 4 {
		t.Fatalf(`per-worker series = %d, want 4`, got)
	}
	if got := counter(tel, `gefin_samples_total{outcome="masked",worker="fleet"}`); got != 4 {
		t.Fatalf(`fleet series = %d, want 4`, got)
	}
	// The federated samples surface in the coordinator's summary exactly once.
	if s := tel.Summarize(); s.Samples != 4 || s.ByOutcome["masked"] != 4 {
		t.Fatalf("federated summary = %+v", s)
	}
}

func TestEventsEndpointStreamsJSONL(t *testing.T) {
	specs := protoGrid(2)
	svc, tel, srv := newTestService(t, t.TempDir(), ServiceOptions{})
	id := submitLocal(t, svc, specs)
	// The stream under test starts after the service's campaign events.
	base := tel.Events.LastSeq()

	var rep LeaseReply
	postJSON(t, srv.URL+PathLease, &LeaseRequest{Worker: "w1"}, &rep)
	if rep.Status != StatusLease {
		t.Fatalf("lease = %+v", rep)
	}

	fetch := func(since uint64, wait string) []telemetry.Event {
		t.Helper()
		query := fmt.Sprintf("?since=%d&wait=%s", since, wait)
		resp, err := http.Get(srv.URL + PathEvents + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", query, resp.StatusCode)
		}
		var evs []telemetry.Event
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if len(sc.Bytes()) == 0 {
				continue
			}
			var ev telemetry.Event
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
			}
			evs = append(evs, ev)
		}
		return evs
	}

	evs := fetch(base, "1s")
	if len(evs) != 2 || evs[0].Type != telemetry.EventWorkerJoin || evs[1].Type != telemetry.EventCellLeased {
		t.Fatalf("streamed events = %v", eventTypes(evs))
	}

	// The cursor resumes mid-stream.
	if evs := fetch(base+1, "1s"); len(evs) != 1 || evs[0].Seq != base+2 {
		t.Fatalf("since=%d events = %+v", base+1, evs)
	}

	// A long-poll parked on the tail wakes when the next event lands.
	type res struct{ evs []telemetry.Event }
	ch := make(chan res, 1)
	go func() { ch <- res{fetch(base+2, "10s")} }()
	time.Sleep(50 * time.Millisecond)
	postJSON(t, srv.URL+PathSubmit, &SubmitRequest{Worker: "w1", LeaseID: rep.LeaseID, Campaign: id,
		Cell: rep.Cell, Result: fakeResult(specs[rep.Cell])}, &SubmitReply{})
	select {
	case r := <-ch:
		if len(r.evs) == 0 || r.evs[0].Type != telemetry.EventCellDone {
			t.Fatalf("long-poll woke with %v", eventTypes(r.evs))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("long-poll never woke")
	}

	// Bad cursor is a 400, POST a 405.
	if resp, _ := http.Get(srv.URL + PathEvents + "?since=banana"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad since: status %d", resp.StatusCode)
	}
	if resp, _ := http.Post(srv.URL+PathEvents, "application/json", nil); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST events: status %d", resp.StatusCode)
	}
}

func TestEventsEndpointWithoutLogIs404(t *testing.T) {
	svc, err := NewService(t.TempDir(), ServiceOptions{Tel: telemetry.NewCampaign(nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	srv := httptest.NewServer(svc.FleetMux())
	defer srv.Close()
	resp, err := http.Get(srv.URL + PathEvents)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
}

// TestWorkerFederatesThroughRealRun is the federation acceptance path: a
// real worker runs a real cell, and one scrape of the service's registry
// shows the worker's sample counters under its id and the fleet label.
func TestWorkerFederatesThroughRealRun(t *testing.T) {
	specs := []core.Spec{
		{Workload: "stringSearch", Component: core.CompL1D, Faults: 1, Samples: 4, Seed: 3},
	}
	svc, tel, srv := newTestService(t, t.TempDir(), ServiceOptions{LeaseTTL: time.Second})
	id := submitLocal(t, svc, specs)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	w := &Worker{ID: "wrk", URL: srv.URL, Tel: telemetry.NewCampaign(nil)}
	workerErr := make(chan error, 1)
	go func() { workerErr <- w.Run(ctx) }()
	if _, err := svc.Wait(ctx, id); err != nil {
		t.Fatal(err)
	}
	svc.Drain(ctx, 10*time.Second)
	if err := <-workerErr; err != nil {
		t.Fatal(err)
	}

	var workerSeries, fleetSeries int64
	for _, m := range tel.Registry.Snapshot() {
		if !strings.HasPrefix(m.Name, telemetry.MetricSamples+"{") {
			continue
		}
		switch {
		case strings.Contains(m.Name, `worker="wrk"`):
			workerSeries += int64(m.Value)
		case strings.Contains(m.Name, `worker="fleet"`):
			fleetSeries += int64(m.Value)
		}
	}
	if workerSeries != int64(specs[0].Samples) || fleetSeries != int64(specs[0].Samples) {
		t.Fatalf("federated samples: worker=%d fleet=%d, want %d each",
			workerSeries, fleetSeries, specs[0].Samples)
	}
	// The summary folds the fleet view once: 4 samples, not 8.
	if s := tel.Summarize(); s.Samples != int64(specs[0].Samples) {
		t.Fatalf("summary samples = %d, want %d", s.Samples, specs[0].Samples)
	}
}

// TestFirstHeartbeatCarriesWorkerInfo: a worker's first heartbeat carries
// at least its info gauge, even when it beats before its cell has recorded
// anything — here, while its artifact fetch is still stalled — so the
// coordinator's scrape shows every worker that ever held a lease.
func TestFirstHeartbeatCarriesWorkerInfo(t *testing.T) {
	beat := make(chan []telemetry.WireMetric, 1)
	var leased atomic.Bool
	mux := http.NewServeMux()
	reply := func(w http.ResponseWriter, v any) { _ = json.NewEncoder(w).Encode(v) }
	mux.HandleFunc(PathLease, func(w http.ResponseWriter, r *http.Request) {
		if leased.Swap(true) {
			reply(w, LeaseReply{Status: StatusDone})
			return
		}
		reply(w, LeaseReply{Status: StatusLease, LeaseID: 1, Campaign: "c1", TTL: 30 * time.Millisecond,
			Spec: core.Spec{Workload: "stringSearch", Component: core.CompL1D, Faults: 1, Samples: 2, Seed: 3}})
	})
	mux.HandleFunc(PathHeartbeat, func(w http.ResponseWriter, r *http.Request) {
		var req HeartbeatRequest
		_ = json.NewDecoder(r.Body).Decode(&req)
		select {
		case beat <- req.Metrics:
		default:
		}
		reply(w, HeartbeatReply{Status: StatusOK})
	})
	first := make(chan []telemetry.WireMetric, 1)
	mux.HandleFunc(PathArtifact, func(w http.ResponseWriter, r *http.Request) {
		select { // hold the fetch until the first beat has gone out
		case ms := <-beat:
			first <- ms
		case <-time.After(10 * time.Second):
		}
		http.NotFound(w, r)
	})
	mux.HandleFunc(PathSubmit, func(w http.ResponseWriter, r *http.Request) {
		reply(w, SubmitReply{Status: StatusAccepted, CampaignDone: true})
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	tel := telemetry.NewCampaign(nil)
	w := &Worker{ID: "w1", URL: srv.URL, Tel: tel, Artifacts: &ArtifactCache{URL: srv.URL, Tel: tel}}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := w.Run(ctx); err != nil {
		t.Fatal(err)
	}
	var ms []telemetry.WireMetric
	select {
	case ms = <-first:
	default:
		t.Fatal("no heartbeat while the artifact fetch was held")
	}
	for _, m := range ms {
		if m.Name == telemetry.MetricWorkerInfo && m.Value == 1 {
			return
		}
	}
	t.Fatalf("first heartbeat carried %+v, want %s", ms, telemetry.MetricWorkerInfo)
}
