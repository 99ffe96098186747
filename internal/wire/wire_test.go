package wire

import (
	"bytes"
	"math"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var w Writer
	w.U8(0xAB)
	w.U32(0xDEADBEEF)
	w.U64(1 << 60)
	w.I32(-7)
	w.I64(-1 << 40)
	w.Int(-42)
	w.F64(math.Pi)
	w.Bool(true)
	w.Bool(false)
	w.Blob([]byte{1, 2, 3})
	w.Blob(nil)
	w.String("golden")
	w.String("")

	r := NewReader(w.Bytes())
	if v := r.U8(); v != 0xAB {
		t.Errorf("U8 = %#x", v)
	}
	if v := r.U32(); v != 0xDEADBEEF {
		t.Errorf("U32 = %#x", v)
	}
	if v := r.U64(); v != 1<<60 {
		t.Errorf("U64 = %#x", v)
	}
	if v := r.I32(); v != -7 {
		t.Errorf("I32 = %d", v)
	}
	if v := r.I64(); v != -1<<40 {
		t.Errorf("I64 = %d", v)
	}
	if v := r.Int(); v != -42 {
		t.Errorf("Int = %d", v)
	}
	if v := r.F64(); v != math.Pi {
		t.Errorf("F64 = %v", v)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round trip broken")
	}
	if v := r.Blob(); !bytes.Equal(v, []byte{1, 2, 3}) {
		t.Errorf("Blob = %v", v)
	}
	if v := r.Blob(); v != nil {
		t.Errorf("empty Blob = %v, want nil", v)
	}
	if v := r.String(); v != "golden" {
		t.Errorf("String = %q", v)
	}
	if v := r.String(); v != "" {
		t.Errorf("empty String = %q", v)
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 0 {
		t.Fatalf("%d bytes left over", r.Len())
	}
}

// TestDeterministic pins the property content addressing depends on: equal
// field sequences encode to identical bytes.
func TestDeterministic(t *testing.T) {
	enc := func() []byte {
		var w Writer
		w.String("sha")
		w.U64(123456)
		w.Blob([]byte{9, 9})
		return append([]byte(nil), w.Bytes()...)
	}
	if !bytes.Equal(enc(), enc()) {
		t.Fatal("equal inputs encoded differently")
	}
}

// TestTruncationLatches: the first read past the end latches an error,
// later reads return zero values, and Err reports the failure once.
func TestTruncationLatches(t *testing.T) {
	var w Writer
	w.U64(7)
	data := w.Bytes()

	r := NewReader(data[:4])
	if v := r.U64(); v != 0 {
		t.Errorf("truncated U64 = %d, want 0", v)
	}
	if r.Err() == nil {
		t.Fatal("truncation not reported")
	}
	// Latched: subsequent reads stay zero and don't panic.
	if v := r.U32(); v != 0 {
		t.Errorf("read after error = %d", v)
	}
	if v := r.Blob(); v != nil {
		t.Errorf("blob after error = %v", v)
	}
}

// TestBlobLengthBomb: a blob whose claimed length exceeds the remaining
// bytes errors instead of allocating the claimed size.
func TestBlobLengthBomb(t *testing.T) {
	var w Writer
	w.U64(1 << 50) // claimed length, no payload
	r := NewReader(w.Bytes())
	if v := r.Blob(); v != nil {
		t.Errorf("bomb blob = %v", v)
	}
	if r.Err() == nil {
		t.Fatal("oversized blob length not reported")
	}
}

// TestFitsBoundsByInput: a length prefix only fits when the unread input
// can hold that many elements, so decoders never allocate beyond it.
func TestFitsBoundsByInput(t *testing.T) {
	r := NewReader(make([]byte, 40))
	for _, tc := range []struct {
		n, size int
		want    bool
	}{{10, 4, true}, {11, 4, false}, {0, 55, true}, {1, 55, false}, {-1, 1, false}, {1 << 20, 12, false}} {
		if got := r.Fits(tc.n, tc.size); got != tc.want {
			t.Errorf("Fits(%d, %d) over 40 bytes = %v, want %v", tc.n, tc.size, got, tc.want)
		}
	}
}
