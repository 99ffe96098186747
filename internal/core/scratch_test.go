package core

import (
	"math/rand/v2"
	"testing"

	"mbusim/internal/telemetry"
)

// TestSamplePathAllocs pins the pooled-scratch contract of the hot sample
// path, in the style of telemetry's TestDisabledSamplePathZeroAllocs: with
// checkpoints, delta restore and the pooled mask scratch all active, a
// steady-state fault-injection sample performs only a handful of
// unavoidable allocations (the injection closure plus whatever the faulty
// run itself forces), independent of the workload's length. Machine
// construction, mask drawing and RNG setup must all hit reused memory.
func TestSamplePathAllocs(t *testing.T) {
	spec := Spec{Workload: "stringSearch", Component: CompL1D, Faults: 2, Samples: 1, Seed: 9}.withDefaults()
	c, err := newCellRun(spec)
	if err != nil {
		t.Fatal(err)
	}
	rst := c.w.NewRestorer()
	injectAt := c.golden.Cycles / 2
	const maskSeed = 12345

	sample := func() {
		if _, _, err := c.runOne(injectAt, maskSeed, false, rst, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Pin the simulated path: without the liveness index every sample
	// restores and runs a machine.
	live := c.live
	c.live = nil
	// Warm up: build the restorer's machine, populate the scratch pool and
	// grow every amortized buffer to its steady-state capacity.
	for i := 0; i < 3; i++ {
		sample()
	}
	allocs := testing.AllocsPerRun(10, sample)

	// The budget is deliberately tight: it covers the injection closure and
	// its captures, nothing else. Growing past it means a per-sample
	// allocation crept back into the hot path.
	const budget = 8
	if allocs > budget {
		t.Fatalf("steady-state sample path allocates %.1f objects per run, want <= %d", allocs, budget)
	}
	t.Logf("steady-state sample path: %.1f allocs per sample", allocs)

	// A sample the index resolves touches no machine and allocates nothing.
	c.live = live
	var dead uint64
	for dead = 1; dead < c.golden.Cycles; dead += c.golden.Cycles / 97 {
		sc := rand.New(rand.NewPCG(maskSeed, 0xDEADBEEFCAFEF00D))
		if c.dead(generateMask(sc, c.rows, c.cols, spec.Faults, spec.Cluster, nil), dead) {
			break
		}
	}
	if dead >= c.golden.Cycles {
		t.Fatal("no injection cycle resolves the test mask")
	}
	resolved := func() {
		eff, meta, err := c.runOne(dead, maskSeed, false, rst, nil)
		if err != nil || eff != EffectMasked || meta.exit != telemetry.ExitResolved {
			t.Fatalf("resolved sample: %v %+v %v", eff, meta, err)
		}
	}
	resolved()
	// Under -race, sync.Pool drops pooled scratch at random, so only the
	// plain build can pin zero.
	if allocs := testing.AllocsPerRun(10, resolved); allocs != 0 && !raceEnabled {
		t.Fatalf("resolved sample allocates %.1f objects per run, want 0", allocs)
	}
}
