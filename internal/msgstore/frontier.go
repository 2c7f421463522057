package msgstore

import (
	"math/bits"
	"sync/atomic"
)

// Bits is a fixed-size bitset over a worker's local vertex indices, safe
// for concurrent use. The engine's frontier is the union of two of them —
// a store's unread-message bits and the worker's unhalted bits — and
// because the owned-vertex order concatenates partitions, a partition is a
// contiguous index range, hence a contiguous word range, of both
// (DESIGN.md §9).
type Bits []atomic.Uint64

// NewBits returns an all-zero bitset over n indices.
func NewBits(n int) Bits { return make(Bits, (n+63)/64) }

// Test reports whether bit i is set.
func (b Bits) Test(i int32) bool { return b[i>>6].Load()&(1<<(i&63)) != 0 }

// Set sets bit i and reports whether it was clear. Re-sets — the common
// case on a dense frontier — return after the load, off the write path.
// (A CAS loop, not Uint64.Or: go1.24.0 miscompiles Or/And on amd64 when
// the old value is used.)
func (b Bits) Set(i int32) bool {
	w, m := &b[i>>6], uint64(1)<<(i&63)
	for {
		old := w.Load()
		if old&m != 0 {
			return false
		}
		if w.CompareAndSwap(old, old|m) {
			return true
		}
	}
}

// Clear clears bit i and reports whether it was set.
func (b Bits) Clear(i int32) bool {
	w, m := &b[i>>6], uint64(1)<<(i&63)
	for {
		old := w.Load()
		if old&m == 0 {
			return false
		}
		if w.CompareAndSwap(old, old&^m) {
			return true
		}
	}
}

// Count returns the number of set bits.
func (b Bits) Count() int64 {
	var n int
	for i := range b {
		n += bits.OnesCount64(b[i].Load())
	}
	return int64(n)
}

// NextEither returns the smallest index in [from, end) set in a or in b, or
// end when there is none. Words are loaded live on every call, so a scan
// that calls it once per member sees bits set ahead of its position while
// it runs — what an asynchronous sequential pass over a partition needs.
// a and b must have the same length.
func NextEither(a, b Bits, from, end int32) int32 {
	for from < end {
		wi := from >> 6
		if w := (a[wi].Load() | b[wi].Load()) >> (from & 63); w != 0 {
			return min(from+int32(bits.TrailingZeros64(w)), end)
		}
		from = (wi + 1) << 6
	}
	return end
}
