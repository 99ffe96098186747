package bitsem

import (
	"reflect"
	"testing"

	"mbusim/internal/cache"
	"mbusim/internal/cpu"
	"mbusim/internal/tlb"
)

type fakeLevel struct{ mem [1 << 16]byte }

func (f *fakeLevel) ReadLine(pa uint32, dst []byte) int  { copy(dst, f.mem[pa:]); return 1 }
func (f *fakeLevel) WriteLine(pa uint32, src []byte) int { copy(f.mem[pa:], src); return 1 }

func testCache() *cache.Cache {
	return cache.New(cache.Config{
		Name: "L1D", Size: 256, Ways: 2, LineSize: 16, Latency: 1, PABits: 16,
	}, &fakeLevel{})
}

type touch struct {
	e      Effect
	lo, hi int
}

// recorder is a Sink that logs every range it is handed.
type recorder struct{ got []touch }

func (r *recorder) Touch(e Effect, lo, hi int) { r.got = append(r.got, touch{e, lo, hi}) }

// classOf returns the class holding cell i.
func classOf(a *Adapter, i int) int {
	c := 0
	for c+1 < len(a.Classes) && i >= a.Base(c+1) {
		c++
	}
	return c
}

// TestLayoutPartitionsGeometry: every injectable bit of each structure
// lands in exactly one cell, each cell holds exactly Width bits of its own
// row, and the classes cover Rows x Cols.
func TestLayoutPartitionsGeometry(t *testing.T) {
	for _, target := range []any{testCache(), tlb.New("DTLB", 8), cpu.NewRegFile(8)} {
		a, err := Attach(target, &recorder{})
		if err != nil {
			t.Fatal(err)
		}
		bits := 0
		for _, cl := range a.Classes {
			bits += a.Rows * cl.PerRow * cl.Width
		}
		if bits != a.Rows*a.Cols {
			t.Errorf("%s: classes cover %d bits, want %d", a.Name, bits, a.Rows*a.Cols)
		}
		perCell := make([]int, a.Cells())
		for row := 0; row < a.Rows; row++ {
			for col := 0; col < a.Cols; col++ {
				i := a.Cell(row, col)
				c := classOf(a, i)
				if r := (i - a.Base(c)) / a.Classes[c].PerRow; r != row {
					t.Fatalf("%s: bit (%d,%d) in cell %d of row %d", a.Name, row, col, i, r)
				}
				perCell[i]++
			}
		}
		for i, n := range perCell {
			c := classOf(a, i)
			if n != a.Classes[c].Width {
				t.Fatalf("%s: cell %d (%s) holds %d bits, want %d", a.Name, i, a.Classes[c].Name, n, a.Classes[c].Width)
			}
		}
		a.Detach()
	}
}

// TestSemanticsWellFormed: every event declares at least one rule, and
// byte spans only ever address cache data.
func TestSemanticsWellFormed(t *testing.T) {
	for ev, rules := range semantics {
		if len(rules) == 0 {
			t.Errorf("event %d has no rules", ev)
		}
		for _, r := range rules {
			if r.span == accessed && (event(ev) > cacheFill || r.class != cacheData) {
				t.Errorf("event %d: byte span on class %d", ev, r.class)
			}
		}
	}
}

// TestAdapterRanges pins the cell ranges a few events resolve to.
func TestAdapterRanges(t *testing.T) {
	var rec recorder
	c := testCache() // 16 rows (8 sets x 2 ways), 16-byte lines
	a, err := Attach(c, &rec)
	if err != nil {
		t.Fatal(err)
	}
	const rows = 16
	data := a.Base(cacheData)
	a.OnLookup(3)
	a.OnReadData(7, 4, 2)
	a.OnFill(5)
	want := []touch{
		{Consume, 6, 8}, {Consume, 2*rows + 6, 2*rows + 8},
		{Consume, data + 7*16 + 4, data + 7*16 + 6},
		{Refill, 5, 6}, {Refill, rows + 5, rows + 6}, {Refill, 2*rows + 5, 2*rows + 6},
		{Refill, data + 5*16, data + 6*16},
	}
	if !reflect.DeepEqual(rec.got, want) {
		t.Errorf("cache touches = %v, want %v", rec.got, want)
	}

	rec.got = nil
	tb := tlb.New("DTLB", 8)
	a, err = Attach(tb, &rec)
	if err != nil {
		t.Fatal(err)
	}
	a.OnTLBLookup(-1)
	a.OnTLBLookup(3)
	want = []touch{{Consume, 0, 8}, {Consume, 0, 8}, {Consume, 8 + 3, 8 + 4}}
	if !reflect.DeepEqual(rec.got, want) {
		t.Errorf("TLB touches = %v, want %v", rec.got, want)
	}
}

func TestAttachUnsupported(t *testing.T) {
	if _, err := Attach(42, &recorder{}); err == nil {
		t.Fatal("Attach(int) succeeded; want error")
	}
}

// TestWatchSkipsUnreachableEvents: once the sink watches some cells, an
// event reaches it only when one of its rules can touch a watched cell's
// row; events whose rules ignore the row still reach it when they touch a
// watched class.
func TestWatchSkipsUnreachableEvents(t *testing.T) {
	var rec recorder
	rf := cpu.NewRegFile(8)
	a, err := Attach(rf, &rec)
	if err != nil {
		t.Fatal(err)
	}
	a.Watch([]int{a.Cell(3, 0)})
	rf.Val(5)   // another row
	rf.Ready(3) // the ready bit's class holds no watched cell
	rf.Alloc(3)
	if len(rec.got) != 0 {
		t.Fatalf("unreachable events reached the sink: %v", rec.got)
	}
	rf.Val(3)
	if want := []touch{{Consume, 3, 4}}; !reflect.DeepEqual(rec.got, want) {
		t.Errorf("touches = %v, want %v", rec.got, want)
	}
	rec.got = nil
	a.Watch(nil)
	rf.Val(3)
	if len(rec.got) != 0 {
		t.Errorf("an adapter watching nothing reached the sink: %v", rec.got)
	}

	tb := tlb.New("DTLB", 8)
	if a, err = Attach(tb, &rec); err != nil {
		t.Fatal(err)
	}
	a.Watch([]int{a.Cell(6, 31)}) // a CAM bit: every lookup compares it
	tb.Lookup(1234)
	if want := []touch{{Consume, 0, 8}}; !reflect.DeepEqual(rec.got, want) {
		t.Errorf("TLB touches = %v, want %v", rec.got, want)
	}
}
