package core

import (
	"bytes"
	"context"
	"testing"

	"mbusim/internal/telemetry"
)

// TestShortcutMatchesScratch is the differential test of the inject-time
// shortcut: campaigns on the default path, which resolves dead cache and
// TLB faults from the golden liveness index, must encode byte-identically
// to the same campaigns on the NoCheckpoints path, which simulates every
// sample from cycle 0 to its end. The grid covers every indexed structure
// at every cardinality on four workloads, plus a SECDED-protected cell
// (the index judges the mask that survives the filter) and a
// ForceSpanning cell (rejection-drawn masks). The runtime audit must
// re-simulate some resolved samples and never disagree.
func TestShortcutMatchesScratch(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every sample twice, once from cycle 0")
	}
	// Samples per cell, smaller on the longer workloads.
	samples := map[string]int{"stringSearch": 12, "sha": 8, "qsort": 4, "CRC32": 2}
	wls := []string{"stringSearch", "sha", "qsort", "CRC32"}
	if raceEnabled {
		wls = wls[:1]
	}
	var specs []Spec
	for _, wl := range wls {
		for _, comp := range []string{CompL1D, CompL1I, CompL2, CompDTLB, CompITLB} {
			for k := 1; k <= 3; k++ {
				specs = append(specs, Spec{Workload: wl, Component: comp, Faults: k,
					Samples: samples[wl], Seed: 41})
			}
		}
	}
	specs = append(specs,
		Spec{Workload: "sha", Component: CompL1D, Faults: 3, Samples: 12, Seed: 41,
			Protect: Protection{Kind: ProtectSECDED, Interleave: 2}},
		Spec{Workload: "stringSearch", Component: CompL2, Faults: 3, Samples: 12, Seed: 41,
			ForceSpanning: true},
	)

	tel := telemetry.NewCampaign(nil)
	fast, err := runSet(specs, tel)
	if err != nil {
		t.Fatal(err)
	}
	scratch := make([]Spec, len(specs))
	for i, s := range specs {
		s.NoCheckpoints = true
		scratch[i] = s
	}
	slow, err := runSet(scratch, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range slow.Cells {
		r.Spec.NoCheckpoints = false // same cell; only the path differed
	}
	encFast, err := fast.Encode()
	if err != nil {
		t.Fatal(err)
	}
	encSlow, err := slow.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encFast, encSlow) {
		for key, r := range fast.Cells {
			if s := slow.Cells[key]; r.Counts != s.Counts {
				t.Errorf("%v: shortcut %v, scratch %v", key, r.Counts, s.Counts)
			}
		}
		t.Fatal("shortcut and scratch campaigns encode differently")
	}

	exits := func(exit string) int64 {
		return tel.Registry.Counter(telemetry.MetricSampleExits + `{exit="` + exit + `"}`).Value()
	}
	resolved, audited := exits(telemetry.ExitResolved), exits(telemetry.ExitAudited)
	if resolved == 0 || audited == 0 {
		t.Fatalf("resolved %d, audited %d: the shortcut and its audit must both fire", resolved, audited)
	}
	if got := tel.Registry.Counter(telemetry.MetricAuditMismatches).Value(); got != 0 {
		t.Fatalf("%d audited samples disagreed with the liveness index", got)
	}
	t.Logf("%d of %d samples resolved at injection, %d of them audited",
		resolved+audited, tel.Summarize().Samples, audited)
}

// runSet runs a grid and collects its results.
func runSet(specs []Spec, tel *telemetry.Campaign) (*ResultSet, error) {
	rs := NewResultSet()
	err := RunGridWithTelemetry(context.Background(), specs, 0, func(_ int, r *Result) { rs.Add(r) }, tel)
	return rs, err
}
