package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"time"

	"mbusim/internal/cache"
	"mbusim/internal/core"
	"mbusim/internal/dispatch"
	"mbusim/internal/forensics"
	"mbusim/internal/kernel"
	"mbusim/internal/liveness"
	"mbusim/internal/mem"
	"mbusim/internal/sim"
	"mbusim/internal/tlb"
	"mbusim/internal/workloads"
)

// Layer probes: fixed-size calls into one layer's public functions, run
// in every traced run on the workload's own programs. They give each
// layer a number even where the workload's loop reaches it only through
// core.

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// probeSim runs fault-free Machine.Run from each golden checkpoint to the
// next, compares the machine with the crossed checkpoint, and snapshots it.
func probeSim(w *workload, rec *recorder, m map[string]float64) error {
	var cycles, committed uint64
	var runT time.Duration
	var eqUS, snapMS []float64
	for _, p := range w.programs {
		wl, err := workloads.ByName(p)
		if err != nil {
			return err
		}
		cks, snaps, err := wl.GoldenCheckpoints()
		if err != nil {
			return err
		}
		for i := 0; i+1 < len(cks); i++ {
			var mc *sim.Machine
			rec.do("sim", 0, func() { mc = sim.RestoreMachine(snaps[i]) })
			c0 := mc.Core.Committed
			var out sim.Outcome
			runT += rec.do("sim", 0, func() { out = mc.Run(cks[i+1], 0, nil) })
			cycles += out.Cycles - cks[i]
			committed += out.Committed - c0
			var eq bool
			eqUS = append(eqUS, float64(rec.do("sim", 0, func() { eq = mc.EqualsSnapshot(snaps[i+1]) }).Nanoseconds())/1e3)
			if !eq {
				return fmt.Errorf("%s: fault-free run from checkpoint %d does not equal checkpoint %d", p, i, i+1)
			}
			snapMS = append(snapMS, ms(rec.do("sim", 0, func() { mc.Snapshot() })))
		}
	}
	m["sim.mcycles_per_s"] = float64(cycles) / runT.Seconds() / 1e6
	m["sim.mips"] = float64(committed) / runT.Seconds() / 1e6
	m["sim.equals_snapshot_us"] = median(eqUS)
	m["sim.snapshot_ms"] = median(snapMS)
	return nil
}

// probeRestore times Restorer.MachineAt after a short dirtying run, the
// delta restore every checkpointed sample pays.
func probeRestore(w *workload, rec *recorder, m map[string]float64) error {
	var us []float64
	for _, p := range w.programs {
		wl, err := workloads.ByName(p)
		if err != nil {
			return err
		}
		cks, err := wl.CheckpointCycles()
		if err != nil {
			return err
		}
		rst := wl.NewRestorer()
		for round := 0; round < 3; round++ {
			for _, c := range cks {
				mc, _, err := rst.MachineAt(c)
				if err != nil {
					return err
				}
				mc.Run(c+2000, 0, nil)
				us = append(us, float64(rec.do("workloads", 0, func() { _, _, err = rst.MachineAt(c) }).Nanoseconds())/1e3)
				if err != nil {
					return err
				}
			}
		}
	}
	m["workloads.restore_us"] = median(us)
	return nil
}

// probeProfile builds each program's liveness profile and round-trips its
// artifact through the liveness codec.
func probeProfile(w *workload, rec *recorder, m map[string]float64) error {
	var total time.Duration
	var committed uint64
	for _, p := range w.programs {
		wl, err := workloads.ByName(p)
		if err != nil {
			return err
		}
		g, err := wl.Reference()
		if err != nil {
			return err
		}
		var prof *liveness.Profile
		total += rec.do("workloads", 0, func() { prof, err = wl.Profile(profileWindows) })
		if err != nil {
			return err
		}
		committed += g.Committed
		var enc []byte
		rec.do("liveness", 0, func() { enc = prof.Encode() })
		rec.do("liveness", 0, func() { _, err = liveness.DecodeProfile(enc) })
		if err != nil {
			return err
		}
	}
	m["workloads.profile_s"] = total.Seconds()
	m["liveness.profile_mips"] = float64(committed) / total.Seconds() / 1e6
	return nil
}

// probeMask times GenerateMask at every injected structure's geometry.
func probeMask(w *workload, seed uint64, rec *recorder, m map[string]float64) error {
	wl, err := workloads.ByName(w.programs[0])
	if err != nil {
		return err
	}
	mc, err := wl.NewMachine()
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewPCG(seed, 1))
	const n = 5000
	var total time.Duration
	calls := 0
	for _, comp := range core.Components() {
		t, err := core.TargetFor(mc, comp)
		if err != nil {
			return err
		}
		for k := 1; k <= 3; k++ {
			total += rec.do("core", 0, func() {
				for i := 0; i < n; i++ {
					core.GenerateMask(rng, t.Rows(), t.Cols(), k, core.DefaultCluster)
				}
			})
			calls += n
		}
	}
	m["core.mask_ns"] = float64(total.Nanoseconds()) / float64(calls)
	return nil
}

// probeSave times ResultSet.Save (temp file, fsync, rename, directory
// fsync) of a gated campaign's results.
func probeSave(first []byte, tmp string, rec *recorder, m map[string]float64) error {
	rs := core.NewResultSet()
	if err := rs.UnmarshalJSON(first); err != nil {
		return err
	}
	var xs []float64
	for i := 0; i < 10; i++ {
		var err error
		xs = append(xs, ms(rec.do("core", 0, func() { err = rs.Save(filepath.Join(tmp, "save.json")) })))
		if err != nil {
			return err
		}
	}
	m["core.result_save_ms"] = median(xs)
	return nil
}

// probeJournal times the fsync-before-ack journal append.
func probeJournal(tmp string, rec *recorder, m map[string]float64) error {
	j, _, err := dispatch.OpenJournal(filepath.Join(tmp, "journal.jsonl"))
	if err != nil {
		return err
	}
	defer j.Close()
	var xs []float64
	for i := 0; i < 20; i++ {
		r := dispatch.JournalRecord{Op: dispatch.JournalOpState, ID: "c1", TimeNS: int64(i), State: dispatch.StateRunning}
		var err error
		xs = append(xs, ms(rec.do("dispatch", 0, func() { err = j.Append(r) })))
		if err != nil {
			return err
		}
	}
	m["dispatch.journal_append_ms"] = median(xs)
	return nil
}

// probeMemory times Cache.Read/Write and TLB.Lookup on standalone
// L1D/DTLB-geometry instances, once on an address stream that fits them
// and once on one that spills.
func probeMemory(seed uint64, rec *recorder, m map[string]float64) {
	cfg := sim.DefaultConfig()
	const n = 200_000
	for _, stream := range []struct {
		suffix       string
		bytes, pages uint32
	}{{"", uint32(cfg.L1Size) / 2, uint32(cfg.TLBEntries) / 2}, {"_spill", 32 * uint32(cfg.L2Size), 8 * uint32(cfg.TLBEntries)}} {
		ram := mem.NewRAM(kernel.RAMSize)
		l2 := cache.New(cache.Config{Name: "L2", Size: cfg.L2Size, Ways: cfg.L2Ways, LineSize: cfg.LineSize, Latency: cfg.L2Lat, PABits: cfg.PABits}, ram)
		l1 := cache.New(cache.Config{Name: "L1D", Size: cfg.L1Size, Ways: cfg.L1Ways, LineSize: cfg.LineSize, Latency: cfg.L1Lat, PABits: cfg.PABits}, l2)
		rng := rand.New(rand.NewPCG(seed, 2))
		addrs := make([]uint32, n)
		for i := range addrs {
			addrs[i] = rng.Uint32N(stream.bytes) &^ 3
		}
		var buf [4]byte
		d := rec.do("cache", 0, func() {
			for _, a := range addrs {
				l1.Read(a, buf[:])
			}
		})
		m["cache.read"+stream.suffix+"_ns"] = float64(d.Nanoseconds()) / n
		d = rec.do("cache", 0, func() {
			for _, a := range addrs {
				l1.Write(a, buf[:])
			}
		})
		m["cache.write"+stream.suffix+"_ns"] = float64(d.Nanoseconds()) / n

		t := tlb.New("DTLB", cfg.TLBEntries)
		for i := range addrs {
			addrs[i] = rng.Uint32N(stream.pages)
		}
		d = rec.do("tlb", 0, func() {
			for _, vpn := range addrs {
				if _, ok := t.Lookup(vpn); !ok {
					t.Insert(vpn, vpn, true, true)
				}
			}
		})
		m["tlb.lookup"+stream.suffix+"_ns"] = float64(d.Nanoseconds()) / n
	}
}

// probeForensics measures forensics.overhead_x (the observe cells in
// ModeFast over ModeOff, alternated) and traces a tracker's own calls on
// a few injected L1D samples.
func probeForensics(ctx context.Context, seed uint64, samples int, rec *recorder, m map[string]float64) error {
	obs := workloadByName("observe")
	var fast, off time.Duration
	for round := 0; round < 2; round++ {
		for _, mode := range []forensics.Mode{forensics.ModeFast, forensics.ModeOff} {
			specs := obs.campaignSpecs(seed, 7, round, samples)
			for i := range specs {
				specs[i].Forensics = mode
			}
			var err error
			d := rec.do("core", 0, func() { err = core.RunGrid(ctx, specs, nproc, nil) })
			if err != nil {
				return err
			}
			if mode == forensics.ModeFast {
				fast += d
			} else {
				off += d
			}
		}
	}
	m["forensics.overhead_x"] = fast.Seconds() / off.Seconds()

	wl, err := workloads.ByName(obs.programs[0])
	if err != nil {
		return err
	}
	g, err := wl.Reference()
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewPCG(seed, 3))
	for i := 0; i < 4; i++ {
		at := rng.Uint64N(g.Cycles)
		mc, _, err := wl.MachineAt(at)
		if err != nil {
			return err
		}
		target := mc.L1D
		mask := core.GenerateMask(rng, target.Rows(), target.Cols(), 2, core.DefaultCluster)
		cells := make([]forensics.BitCell, len(mask.Cells))
		for j, c := range mask.Cells {
			cells[j] = forensics.BitCell{Row: c.Row, Col: c.Col}
		}
		var tr *forensics.Tracker
		run := rec.begin("sim", 0)
		out := mc.Run(4*g.Cycles, at, func(*sim.Machine) {
			mask.Apply(target)
			rec.do("forensics", run, func() {
				tr = forensics.NewTracker(mc.Core.Cycles)
				err = tr.Attach(target, cells)
			})
		})
		rec.finish(run)
		if err != nil {
			return err
		}
		rec.do("forensics", 0, func() {
			tr.Detach()
			tr.Resolve(out.Stop.String() == "exit" && string(out.Stdout) == string(g.Stdout))
		})
	}
	return nil
}
