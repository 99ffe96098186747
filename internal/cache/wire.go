package cache

import (
	"fmt"

	"mbusim/internal/wire"
)

// EncodeWire appends the snapshot's complete state to w in the artifact
// wire format (field order versioned by sim.SnapshotFormat).
func (s *Snapshot) EncodeWire(w *wire.Writer) {
	w.Int(len(s.tags))
	for _, t := range s.tags {
		w.U32(t)
	}
	w.Blob(s.flags)
	for _, u := range s.lastUse {
		w.U64(u)
	}
	w.Blob(s.data)
	w.U64(s.useClock)
	w.U64(s.hits)
	w.U64(s.misses)
	w.U64(s.writebacks)
}

// maxWireLines bounds the line count a decoded cache snapshot may claim,
// far above any simulated geometry, so a corrupt length cannot drive a
// giant allocation before the structural checks run.
const maxWireLines = 1 << 20

// DecodeSnapshotWire reads a snapshot encoded by EncodeWire.
func DecodeSnapshotWire(r *wire.Reader) (*Snapshot, error) {
	n := r.Int()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if n < 0 || n > maxWireLines || !r.Fits(n, 12) { // tag + last use per line
		return nil, fmt.Errorf("cache: snapshot line count %d out of range", n)
	}
	s := &Snapshot{
		tags:    make([]uint32, n),
		lastUse: make([]uint64, n),
	}
	for i := range s.tags {
		s.tags[i] = r.U32()
	}
	s.flags = r.Blob()
	for i := range s.lastUse {
		s.lastUse[i] = r.U64()
	}
	s.data = r.Blob()
	s.useClock = r.U64()
	s.hits = r.U64()
	s.misses = r.U64()
	s.writebacks = r.U64()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if len(s.flags) != n {
		return nil, fmt.Errorf("cache: snapshot flags length %d, want %d", len(s.flags), n)
	}
	if n > 0 && len(s.data)%n != 0 {
		return nil, fmt.Errorf("cache: snapshot data length %d not a multiple of %d lines", len(s.data), n)
	}
	return s, nil
}
