package main

import (
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

// TestEventLogWriteErrorFailsRun: an -events file that stops growing
// mid-campaign (a full disk; here the file-size limit, which fails writes
// the same way) must end the run with exit 1 and a one-line report, like a
// failed trace — not exit 0 over a silently short log.
func TestEventLogWriteErrorFailsRun(t *testing.T) {
	evPath := filepath.Join(t.TempDir(), "events.jsonl")
	var orig syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &orig); err != nil {
		t.Fatal(err)
	}
	// Room for part of the first event only. Go ignores the SIGXFSZ that
	// comes with the failing write; the write returns EFBIG.
	limited := orig
	limited.Cur = 64
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &limited); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := runGefin(t, oneCell("-events", evPath)...)
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &orig); err != nil {
		t.Fatal(err)
	}
	if code != 1 || !strings.Contains(stderr, "events: ") {
		t.Fatalf("run with an unwritable event log: exit %d, stderr %q; want exit 1 and an events: error", code, stderr)
	}
}
