package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"mbusim/internal/core"
	"mbusim/internal/dispatch"
	"mbusim/internal/telemetry"
)

// leaseTTL is the service's lease TTL. An idle worker that gets a
// StatusWait reply sleeps TTL/4 before asking again, and a campaign
// submitted meanwhile waits out that sleep. At the 2 s default that is
// 500 ms, several times a whole tiny campaign, so whether a campaign hit
// the sleep decided the tail and campaign_p90_ms jumped between runs.
// 200 ms bounds the sleep at 50 ms while heartbeats (TTL/3) still beat
// several times per TTL; cells here take tens of milliseconds, so no
// lease comes near expiry.
const leaseTTL = 200 * time.Millisecond

// fleet is an in-process campaign service with nproc workers joined over
// loopback HTTP.
type fleet struct {
	url    string
	srv    *http.Server
	svc    *dispatch.Service
	cancel context.CancelFunc
	wg     sync.WaitGroup // workers
	srvWG  sync.WaitGroup // HTTP server and sweep loop
	stats  *httpStats
	rec    *recorder
	tels   []*telemetry.Campaign

	mu         sync.Mutex
	workerErrs []error
}

// newTransport gives each worker and client one keep-alive connection.
func newTransport() *http.Transport {
	return &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
}

// startFleet opens a service journaling under dir and joins nproc
// workers; it returns once every worker has made its first lease call.
// sinks, when non-nil, receive each worker's sample trace.
func startFleet(ctx context.Context, dir string, rec *recorder, sinks []*traceSink) (*fleet, error) {
	svcTel := telemetry.NewCampaign(nil)
	svcTel.Events = telemetry.NewEventLog(nil, 0) // the long-poll stream clients wait on
	var svc *dispatch.Service
	var err error
	rec.do("dispatch", 0, func() { svc, err = dispatch.NewService(dir, dispatch.ServiceOptions{LeaseTTL: leaseTTL, Tel: svcTel}) })
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	fctx, cancel := context.WithCancel(ctx)
	f := &fleet{
		url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: svc.Mux()},
		svc: svc, cancel: cancel, stats: newHTTPStats(), rec: rec,
	}
	f.srvWG.Add(2)
	go func() { defer f.srvWG.Done(); f.srv.Serve(ln) }()
	go func() { defer f.srvWG.Done(); svc.Run(fctx) }()
	for i := 0; i < nproc; i++ {
		var sink *traceSink
		var tracer *telemetry.Tracer
		if sinks != nil {
			sink = sinks[i]
			tracer = telemetry.NewTracer(sink)
		}
		id := "w" + strconv.Itoa(i)
		tel := telemetry.NewCampaign(tracer)
		f.tels = append(f.tels, tel)
		wk := &dispatch.Worker{
			ID: id, URL: f.url, Tel: tel,
			Client: &http.Client{Timeout: 10 * time.Second, Transport: &timedTransport{
				base: newTransport(), rec: rec, stats: f.stats, worker: id, sink: sink}},
		}
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			if err := wk.Run(fctx); err != nil && !errors.Is(err, context.Canceled) {
				f.mu.Lock()
				f.workerErrs = append(f.workerErrs, fmt.Errorf("worker %s: %w", wk.ID, err))
				f.mu.Unlock()
			}
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for f.stats.joined() < nproc {
		if time.Now().After(deadline) {
			f.stop()
			return nil, fmt.Errorf("fleet: workers did not join within 10s")
		}
		time.Sleep(time.Millisecond)
	}
	return f, nil
}

// stop drains the workers while the server still answers their abandon
// calls, then shuts the server and closes the journal, and returns once
// every goroutine the fleet started has ended.
func (f *fleet) stop() error {
	f.cancel()
	f.wg.Wait()
	err := f.srv.Close()
	f.srvWG.Wait()
	if cerr := f.svc.Close(); err == nil {
		err = cerr
	}
	return err
}

// failures counts worker exits, panics and failed HTTP calls.
func (f *fleet) failures() int {
	f.mu.Lock()
	n := len(f.workerErrs)
	for _, err := range f.workerErrs {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	f.mu.Unlock()
	for _, t := range f.tels {
		n += int(t.Registry.Counter(telemetry.MetricWorkerPanics).Value())
	}
	return n
}

// runFleet drives nproc closed-loop clients. Each submits a campaign,
// waits for it to end by long-polling its event stream, checks it ended
// done and downloads the results, as gefin -submit -campaign-out does.
func runFleet(ctx context.Context, f *fleet, w *workload, seed uint64, samples int, dur time.Duration) (*loopResult, error) {
	type clientOut struct {
		lat    []float64
		first  [][]byte
		n, bad int
		sample int
	}
	outs := make([]clientOut, w.clients())
	start := time.Now()
	var wg sync.WaitGroup
	for c := range outs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			hc := &http.Client{Timeout: 10 * time.Second, Transport: &timedTransport{base: newTransport(), rec: f.rec, stats: f.stats}}
			cl := &dispatch.Client{URL: f.url, HTTPClient: hc}
			o := &outs[c]
			var since uint64 // event seq this client has read up to
			for i := 0; time.Since(start) < dur || i < w.firstCycle(); i++ {
				if ctx.Err() != nil {
					return
				}
				specs := w.campaignSpecs(seed, c, i, samples)
				t := time.Now()
				data, err := f.campaign(ctx, cl, hc, specs, &since)
				lat := float64(time.Since(t).Nanoseconds()) / 1e6
				o.n++
				if err == nil {
					err = checkResults(data, specs)
				}
				if err != nil {
					o.bad++
					fmt.Fprintf(os.Stderr, "perfbench: client %d campaign %d: %v\n", c, i, err)
					continue
				}
				o.lat = append(o.lat, lat)
				o.sample += len(specs) * samples
				if i < w.firstCycle() {
					o.first = append(o.first, data)
				}
			}
		}(c)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res := &loopResult{elapsed: time.Since(start)}
	for _, o := range outs {
		res.latMS = append(res.latMS, o.lat...)
		res.first = append(res.first, o.first...)
		res.campaigns += o.n
		res.attempted += o.n
		res.failed += o.bad
		res.samples += o.sample
	}
	return res, nil
}

// campaign submits one campaign and returns its downloaded results. The
// event stream is read from *since, the last event this client saw: every
// event of a campaign submitted after it has a larger seq, and reading
// from 0 would rescan the whole growing log on every campaign.
func (f *fleet) campaign(ctx context.Context, cl *dispatch.Client, hc *http.Client, specs []core.Spec, since *uint64) ([]byte, error) {
	info, err := cl.SubmitCampaign(ctx, &dispatch.SubmitCampaignRequest{Tenant: "bench", Specs: specs})
	if err != nil {
		return nil, err
	}
	for ended := false; !ended; {
		url := fmt.Sprintf("%s%s/%s/events?since=%d&wait=5s", f.url, dispatch.PathCampaigns, info.ID, *since)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return nil, err
		}
		resp, err := hc.Do(req)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var ev telemetry.Event
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				resp.Body.Close()
				return nil, err
			}
			*since = ev.Seq
			if ev.Type == telemetry.EventCampaignState && (ev.Detail == dispatch.StateDone ||
				ev.Detail == dispatch.StateFailed || ev.Detail == dispatch.StateCancelled) {
				ended = true
			}
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("events: %s", resp.Status)
		}
	}
	cur, err := cl.Campaign(ctx, info.ID)
	if err != nil {
		return nil, err
	}
	if cur.State != dispatch.StateDone {
		return nil, fmt.Errorf("campaign %s ended %s: %s", cur.ID, cur.State, cur.Detail)
	}
	return cl.Results(ctx, info.ID)
}

// checkResults verifies a downloaded results file holds every submitted
// cell with its full sample count.
func checkResults(data []byte, specs []core.Spec) error {
	rs := core.NewResultSet()
	if err := json.Unmarshal(data, rs); err != nil {
		return fmt.Errorf("results: %w", err)
	}
	if len(rs.Cells) != len(specs) {
		return fmt.Errorf("results hold %d cells, want %d", len(rs.Cells), len(specs))
	}
	for _, s := range specs {
		if !rs.Covers(s) || rs.Cells[s.Key()].Samples() != s.Samples {
			return fmt.Errorf("results miss %s/%s/%d", s.Component, s.Workload, s.Faults)
		}
	}
	return nil
}
