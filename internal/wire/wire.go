// Package wire is the minimal binary codec under the content-addressed
// snapshot artifact format: fixed-width little-endian scalars and
// length-prefixed byte strings, appended to one growing buffer. The
// encoding carries no type information — writer and reader must agree on
// the field sequence, which the artifact format pins with an explicit
// version number — so two encodings of equal state are byte-identical,
// the property content addressing is built on.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Writer appends fields to a buffer. The zero value is ready to use.
type Writer struct {
	buf []byte
}

// Bytes returns the encoded buffer. The Writer retains ownership; the
// slice is valid until the next append.
func (w *Writer) Bytes() []byte { return w.buf }

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// U32 appends a little-endian uint32.
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }

// U64 appends a little-endian uint64.
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// I32 appends an int32 (two's complement).
func (w *Writer) I32(v int32) { w.U32(uint32(v)) }

// I64 appends an int64 (two's complement).
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Int appends an int as an int64, so the encoding is identical across
// host int widths.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// F64 appends a float64 by its IEEE-754 bits.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bool appends a bool as one byte (0 or 1).
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// Blob appends a length-prefixed byte string.
func (w *Writer) Blob(b []byte) {
	w.U64(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.U64(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Reader consumes fields from a buffer. The first malformed read (a field
// extending past the end of the buffer) latches an error; every later
// read returns the zero value, so decoders can run the full field
// sequence and check Err once at the end.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader over buf. The Reader does not copy buf;
// decoded Blob slices are copies, so the caller may reuse buf afterwards.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Err returns the first decoding error, or nil.
func (r *Reader) Err() error { return r.err }

// Len returns the number of unconsumed bytes.
func (r *Reader) Len() int { return len(r.buf) - r.off }

// Fits reports whether n elements, each encoded in at least size bytes,
// fit in the unconsumed input. Decoders check length prefixes with it
// before allocating, so a corrupt length cannot drive an allocation larger
// than the input that claims it.
func (r *Reader) Fits(n, size int) bool { return n >= 0 && n <= r.Len()/size }

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.buf) {
		r.err = fmt.Errorf("wire: truncated: need %d bytes at offset %d of %d", n, r.off, len(r.buf))
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I32 reads an int32.
func (r *Reader) I32() int32 { return int32(r.U32()) }

// I64 reads an int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int reads an int encoded by Writer.Int.
func (r *Reader) Int() int { return int(r.I64()) }

// F64 reads a float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bool reads a bool. Any nonzero byte is true.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// Blob reads a length-prefixed byte string into a fresh slice (nil for an
// empty blob, matching how Go serializes empty slices round-trip).
func (r *Reader) Blob() []byte {
	n := r.U64()
	if r.err != nil {
		return nil
	}
	if n > uint64(r.Len()) {
		r.err = fmt.Errorf("wire: blob length %d exceeds %d remaining bytes", n, r.Len())
		return nil
	}
	b := r.take(int(n))
	if len(b) == 0 {
		return nil
	}
	return append([]byte(nil), b...)
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.Blob()) }
