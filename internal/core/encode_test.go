package core

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// fakeResult builds a synthetic cell result without running a campaign.
func fakeResult(comp, wl string, faults, samples int, seed uint64) *Result {
	r := &Result{
		Spec: Spec{
			Workload: wl, Component: comp, Faults: faults,
			Samples: samples, Seed: seed,
			Cluster: DefaultCluster, TimeoutFactor: 4,
		},
		GoldenCycles: 22_500,
		TargetBits:   1024,
	}
	r.Counts[EffectMasked] = samples - 2
	r.Counts[EffectSDC] = 1
	r.Counts[EffectCrash] = 1
	return r
}

func TestResultSetRoundTripExtensions(t *testing.T) {
	rs := NewResultSet()
	// Cover the extension fields: a protected cell with a custom cluster,
	// alongside a plain one.
	prot := fakeResult(CompL1D, "sha", 2, 40, 7)
	prot.Spec.Protect = Protection{Kind: ProtectSECDED, Interleave: 4}
	prot.Spec.Cluster = ClusterSpec{Rows: 2, Cols: 4}
	prot.Spec.ForceSpanning = true
	rs.Add(prot)
	rs.Add(fakeResult(CompDTLB, "CRC32", 1, 60, 9))

	data, err := rs.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back := NewResultSet()
	if err := json.Unmarshal(data, back); err != nil {
		t.Fatal(err)
	}
	if len(back.Cells) != 2 {
		t.Fatalf("round-trip lost cells: %d", len(back.Cells))
	}
	got, err := back.Get(CompL1D, "sha", 2)
	if err != nil {
		t.Fatal(err)
	}
	if got.Spec.Protect != prot.Spec.Protect {
		t.Fatalf("Protect lost: %+v", got.Spec.Protect)
	}
	if got.Spec.Cluster != prot.Spec.Cluster || !got.Spec.ForceSpanning {
		t.Fatalf("Cluster/ForceSpanning lost: %+v", got.Spec)
	}
	if got.TargetBits != 1024 || got.GoldenCycles != 22_500 {
		t.Fatalf("metadata lost: %+v", got)
	}
	// Round-tripping again is byte-stable (sorted canonical encode).
	data2, err := back.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatal("canonical encode not byte-stable across a round trip")
	}
}

// FuzzDecodeResultSet feeds arbitrary bytes to LoadResultSet, the decoder
// a -resume run trusts with its -out file. It must never panic, and what it
// accepts must re-encode stably: decode, Encode, decode, Encode yields the
// same canonical bytes twice.
func FuzzDecodeResultSet(f *testing.F) {
	rs := NewResultSet()
	prot := fakeResult(CompL1D, "sha", 2, 40, 7)
	prot.Spec.Protect = Protection{Kind: ProtectSECDED, Interleave: 4}
	prot.Spec.Cluster = ClusterSpec{Rows: 2, Cols: 4}
	rs.Add(prot)
	rs.Add(fakeResult(CompDTLB, "CRC32", 1, 60, 9))
	data, err := rs.Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	for _, seed := range []string{
		`{"Results":[]}`, `{"Results":null}`, `{"Results":[null]}`, `{}`, `null`, `[]`, `{not json`,
		// Two results for one cell: the later one wins.
		`{"Results":[{"Spec":{"Component":"L1D","Workload":"sha","Faults":1}},{"Spec":{"Component":"L1D","Workload":"sha","Faults":1,"Samples":3}}]}`,
		// A legacy file: no TargetBits, a short Counts array.
		`{"Results":[{"Spec":{"Component":"L2","Workload":"qsort","Faults":3,"Samples":2},"Counts":[1,1]}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "results.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		rs, err := LoadResultSet(path)
		if err != nil {
			return
		}
		first, err := rs.Encode()
		if err != nil {
			t.Fatalf("encoding a decoded result set: %v", err)
		}
		again := NewResultSet()
		if err := json.Unmarshal(first, again); err != nil {
			t.Fatalf("decoding its own encoding: %v\n%s", err, first)
		}
		second, err := again.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("encoding not stable:\n%s\nvs\n%s", first, second)
		}
	})
}

// TestLegacyTargetBitsFallback: files written before TargetBits existed
// decode with TargetBits zero, and population() must fall back to the old
// 1e6-bit approximation so old results keep their margins.
func TestLegacyTargetBitsFallback(t *testing.T) {
	legacy := []byte(`{"Results":[{
		"Spec":{"Workload":"CRC32","Component":"L1D","Faults":1,"Samples":120,"Seed":1},
		"Counts":[48,72,0,0,0],
		"GoldenCycles":1418830}]}`)
	rs := NewResultSet()
	if err := json.Unmarshal(legacy, rs); err != nil {
		t.Fatal(err)
	}
	r, err := rs.Get("L1D", "CRC32", 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.TargetBits != 0 {
		t.Fatalf("legacy TargetBits = %d, want 0", r.TargetBits)
	}
	if got, want := r.population(), float64(1418830)*1e6; got != want {
		t.Fatalf("legacy population = %g, want %g", got, want)
	}
	// And a margin is still computable (no division by zero / NaN).
	if m := r.AdjustedMargin(0.99); m <= 0 || m >= 1 {
		t.Fatalf("legacy margin = %f", m)
	}
}

func TestSaveLoadAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "results.json")
	rs := NewResultSet()
	rs.Add(fakeResult(CompL2, "FFT", 3, 16, 3))
	if err := rs.Save(path); err != nil {
		t.Fatal(err)
	}
	// No temp droppings left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "results.json" {
		t.Fatalf("directory not clean after Save: %v", entries)
	}
	loaded, err := LoadResultSet(path)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := rs.Encode()
	got, _ := loaded.Encode()
	if !bytes.Equal(got, want) {
		t.Fatal("Load(Save(rs)) not byte-identical to rs")
	}
	// Overwriting an existing file is the per-cell flush path.
	rs.Add(fakeResult(CompRF, "qsort", 1, 16, 3))
	if err := rs.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err = LoadResultSet(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Cells) != 2 {
		t.Fatalf("flush overwrite lost cells: %d", len(loaded.Cells))
	}
}

func TestLoadResultSetErrors(t *testing.T) {
	if _, err := LoadResultSet(filepath.Join(t.TempDir(), "absent.json")); !os.IsNotExist(err) {
		t.Fatalf("missing file: %v", err)
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	os.WriteFile(bad, []byte("{truncated"), 0o644)
	if _, err := LoadResultSet(bad); err == nil {
		t.Fatal("corrupt file loaded silently")
	}
}

func TestCoversAndPending(t *testing.T) {
	rs := NewResultSet()
	rs.Add(fakeResult(CompL1D, "sha", 2, 40, 7))
	spec := Spec{Workload: "sha", Component: CompL1D, Faults: 2, Samples: 40, Seed: 7}
	if !rs.Covers(spec) {
		t.Fatal("matching cell not covered")
	}
	// Covers must compare the campaign identity, not just the cell key:
	// a different sample count or seed means the stored counts are not the
	// ones this grid would produce.
	for _, mut := range []func(*Spec){
		func(s *Spec) { s.Samples = 41 },
		func(s *Spec) { s.Seed = 8 },
		func(s *Spec) { s.Faults = 1 },
		func(s *Spec) { s.Workload = "CRC32" },
		func(s *Spec) { s.Component = CompL2 },
	} {
		m := spec
		mut(&m)
		if rs.Covers(m) {
			t.Fatalf("mismatched spec covered: %+v", m)
		}
	}
	grid := []Spec{spec, {Workload: "CRC32", Component: CompL1D, Faults: 1, Samples: 40, Seed: 7}}
	pending := rs.Pending(grid)
	if len(pending) != 1 || pending[0].Workload != "CRC32" {
		t.Fatalf("Pending = %+v", pending)
	}
}
