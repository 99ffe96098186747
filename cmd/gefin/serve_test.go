package main

import (
	"bytes"
	"context"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mbusim/internal/dispatch"
)

// startCoordinator runs a one-shot `gefin -serve` in a goroutine and waits
// until it reports its resolved address. The channel yields its exit code.
func startCoordinator(t *testing.T, args ...string) (addr string, done <-chan int, stderr *syncBuffer) {
	t.Helper()
	stderr = &syncBuffer{}
	exit := make(chan int, 1)
	go func() { exit <- run(args, &bytes.Buffer{}, stderr) }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if s := stderr.String(); strings.Contains(s, "on http://") {
			s = s[strings.Index(s, "on http://")+len("on http://"):]
			return strings.Fields(s)[0], exit, stderr
		}
		select {
		case code := <-exit:
			t.Fatalf("coordinator exited early (%d): %s", code, stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("coordinator never came up: %s", stderr.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServeResumesLocalResults: a -serve -resume over a results file with
// one cell done locally leases out only the other two, and the finished
// file is byte-identical to an uninterrupted local run.
func TestServeResumesLocalResults(t *testing.T) {
	dir := t.TempDir()
	refPath := filepath.Join(dir, "ref.json")
	distPath := filepath.Join(dir, "dist.json")
	if code, _, stderr := runGefin(t, tinyGrid("-out", refPath)...); code != 0 {
		t.Fatalf("reference run failed: %d (%s)", code, stderr)
	}
	if code, _, stderr := runGefin(t, oneCell("-out", distPath)...); code != 0 {
		t.Fatalf("local first cell failed: %d (%s)", code, stderr)
	}

	addr, coordDone, coordErr := startCoordinator(t,
		tinyGrid("-out", distPath, "-resume", "-serve", "127.0.0.1:0", "-lease-ttl", "2s")...)
	code, stdout, stderr := runGefin(t, "-join", addr)
	if code != 0 {
		t.Fatalf("worker exit=%d stderr=%s", code, stderr)
	}
	if !strings.Contains(stdout, "worker done: 2 cells submitted") {
		t.Fatalf("worker should run exactly the 2 uncovered cells: %s", stdout)
	}
	if code := <-coordDone; code != 0 {
		t.Fatalf("coordinator exit=%d stderr=%s", code, coordErr.String())
	}
	if !bytes.Equal(readFile(t, distPath), readFile(t, refPath)) {
		t.Fatal("resumed distributed results file differs from an uninterrupted local run")
	}
}

// TestServeUnwritableOutFails: when -out cannot be written, the coordinator
// stops at the first accepted cell and exits 1 naming the flush failure.
func TestServeUnwritableOutFails(t *testing.T) {
	outPath := filepath.Join(t.TempDir(), "missing-dir", "r.json")
	addr, coordDone, coordErr := startCoordinator(t,
		tinyGrid("-out", outPath, "-serve", "127.0.0.1:0", "-lease-ttl", "2s")...)

	// The coordinator goes away mid-grid, so the worker is cut loose
	// rather than waited for.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &dispatch.Worker{ID: "w1", URL: "http://" + addr, MaxDowntime: time.Second,
		Backoff: dispatch.Backoff{Base: 20 * time.Millisecond, Max: 100 * time.Millisecond}}
	go w.Run(ctx)

	select {
	case code := <-coordDone:
		if code != 1 || !strings.Contains(coordErr.String(), "flush failed after") {
			t.Fatalf("coordinator exit=%d stderr=%s", code, coordErr.String())
		}
	case <-time.After(60 * time.Second):
		t.Fatalf("coordinator never gave up on the unwritable -out: %s", coordErr.String())
	}
	if _, err := os.Stat(outPath); !os.IsNotExist(err) {
		t.Fatalf("results file appeared despite the failed flush: %v", err)
	}
}

// TestServeRefusesCampaignSubmissions: a one-shot coordinator runs only its
// own grid, so POST /campaigns on its port is refused with a 4xx, and the
// grid still completes.
func TestServeRefusesCampaignSubmissions(t *testing.T) {
	addr, coordDone, coordErr := startCoordinator(t,
		tinyGrid("-serve", "127.0.0.1:0", "-lease-ttl", "2s")...)
	resp, err := http.Post("http://"+addr+dispatch.PathCampaigns, "application/json",
		strings.NewReader(`{"specs":[{"Workload":"stringSearch","Component":"L1D","Faults":1,"Samples":3}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode < 400 || resp.StatusCode >= 500 {
		t.Fatalf("POST /campaigns on a one-shot port = %d, want a 4xx", resp.StatusCode)
	}
	if code, _, stderr := runGefin(t, "-join", addr); code != 0 {
		t.Fatalf("worker exit=%d stderr=%s", code, stderr)
	}
	if code := <-coordDone; code != 0 {
		t.Fatalf("coordinator exit=%d stderr=%s", code, coordErr.String())
	}
}
