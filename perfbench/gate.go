package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"

	"mbusim/internal/workloads"
)

// pinnedJSON holds the values every run must reproduce exactly. Regenerate
// it with `perfbench -pin` only when a change is meant to alter simulated
// behaviour; a simulator-only speed-up leaves every value equal.
//
//go:embed pinned.json
var pinnedJSON []byte

// programPins are the seed-independent facts of one program's fault-free
// run: golden cycles, committed instructions and output, the access
// counts a counting probe sees on L1D, L2 and DTLB, and the digest of its
// liveness profile.
type programPins struct {
	Cycles    uint64            `json:"cycles"`
	Committed uint64            `json:"committed"`
	Stdout    string            `json:"stdout_sha256"`
	Probes    map[string]uint64 `json:"probes"`
	Profile   string            `json:"profile_sha256"`
}

// campaignPins are the canonical ResultSet digests of a workload's gated
// first cycle of campaigns, per seed, at the recorded sample count.
type campaignPins struct {
	Samples int               `json:"samples"`
	Seeds   map[string]string `json:"seeds"`
}

type pins struct {
	Programs  map[string]programPins  `json:"programs"`
	Campaigns map[string]campaignPins `json:"campaigns"`
}

func loadPins() (*pins, error) {
	var p pins
	if err := json.Unmarshal(pinnedJSON, &p); err != nil {
		return nil, fmt.Errorf("pinned.json: %w", err)
	}
	return &p, nil
}

// countingProbe counts the lookup, evict, writeback and fill events of
// one cache, or the lookups and inserts of one TLB.
type countingProbe struct {
	lookups, evicts, writebacks, fills uint64
	tlbHits, tlbMisses, inserts        uint64
}

func (p *countingProbe) OnLookup(uint32)         { p.lookups++ }
func (p *countingProbe) OnReadData(_, _, _ int)  {}
func (p *countingProbe) OnWriteData(_, _, _ int) {}
func (p *countingProbe) OnEvict(int)             { p.evicts++ }
func (p *countingProbe) OnWriteback(int)         { p.writebacks++ }
func (p *countingProbe) OnFill(int)              { p.fills++ }
func (p *countingProbe) OnTLBInsert(int)         { p.inserts++ }
func (p *countingProbe) OnTLBInvalidate()        {}
func (p *countingProbe) OnTLBLookup(hit int) {
	if hit < 0 {
		p.tlbMisses++
	} else {
		p.tlbHits++
	}
}

// programFacts measures the pinned facts of a program (the profile digest
// is filled in by whoever built the profile).
func programFacts(name string) (programPins, error) {
	wl, err := workloads.ByName(name)
	if err != nil {
		return programPins{}, err
	}
	g, err := wl.Reference()
	if err != nil {
		return programPins{}, err
	}
	m, err := wl.NewMachine()
	if err != nil {
		return programPins{}, err
	}
	var l1d, l2, dtlb countingProbe
	m.L1D.SetProbe(&l1d)
	m.L2.SetProbe(&l2)
	m.DTLB.SetProbe(&dtlb)
	out := m.Run(g.Cycles+1, 0, nil)
	if out.Cycles != g.Cycles || out.Committed != g.Committed || string(out.Stdout) != string(g.Stdout) {
		return programPins{}, fmt.Errorf("%s: probed run diverged from golden (%d cycles, want %d)", name, out.Cycles, g.Cycles)
	}
	sum := sha256.Sum256(g.Stdout)
	return programPins{
		Cycles: g.Cycles, Committed: g.Committed, Stdout: hex.EncodeToString(sum[:]),
		Probes: map[string]uint64{
			"L1D.lookup": l1d.lookups, "L1D.evict": l1d.evicts, "L1D.writeback": l1d.writebacks, "L1D.fill": l1d.fills,
			"L2.lookup": l2.lookups, "L2.evict": l2.evicts, "L2.writeback": l2.writebacks, "L2.fill": l2.fills,
			"DTLB.hit": dtlb.tlbHits, "DTLB.miss": dtlb.tlbMisses, "DTLB.insert": dtlb.inserts,
		},
	}, nil
}

// checkPrograms compares each program's facts with the pinned ones.
// profiles maps program -> profile digest when the run built profiles.
func checkPrograms(p *pins, w *workload, profiles map[string]string) error {
	for _, name := range w.programs {
		want, ok := p.Programs[name]
		if !ok {
			return fmt.Errorf("pinned.json has no program %s", name)
		}
		got, err := programFacts(name)
		if err != nil {
			return err
		}
		if got.Cycles != want.Cycles || got.Committed != want.Committed || got.Stdout != want.Stdout {
			return fmt.Errorf("%s golden: %d cycles, %d committed, stdout %s; pinned %d, %d, %s",
				name, got.Cycles, got.Committed, got.Stdout[:12], want.Cycles, want.Committed, want.Stdout[:12])
		}
		for k, v := range want.Probes {
			if got.Probes[k] != v {
				return fmt.Errorf("%s probe count %s = %d, pinned %d", name, k, got.Probes[k], v)
			}
		}
		if d, ok := profiles[name]; ok && d != want.Profile {
			return fmt.Errorf("%s liveness profile digest %s, pinned %s", name, d, want.Profile)
		}
	}
	return nil
}

// checkCampaigns gates the first cycle of campaigns: against the pinned
// digest when this seed and size were recorded, otherwise against a
// from-scratch re-run of the same specs.
func checkCampaigns(ctx context.Context, p *pins, w *workload, seed uint64, samples int, first [][]byte) error {
	if want := w.clients() * w.firstCycle(); len(first) != want {
		return fmt.Errorf("%d gated campaigns completed, want %d", len(first), want)
	}
	if cp, ok := p.Campaigns[w.name]; ok && cp.Samples == samples {
		if want, ok := cp.Seeds[strconv.FormatUint(seed, 10)]; ok {
			if got := digest(first); got != want {
				return fmt.Errorf("results digest %s at seed %d, pinned %s", got, seed, want)
			}
			return nil
		}
	}
	return referenceOutcomes(ctx, w, seed, samples, first)
}
