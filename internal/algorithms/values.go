// Package algorithms implements the eight graph algorithms of the
// paper's Table II — BFS, BC, CC, PR, PRDelta, SPMV, BF and BP — written
// once against the engine-neutral api.System interface so every
// experiment can run them unchanged on Ligra, Polymer, GraphGrind-v1 and
// GraphGrind-v2. Serial reference implementations used as test oracles
// live in reference.go.
package algorithms

import (
	"math"
	"sync/atomic"

	"repro/internal/graph"
)

// F64s is a float64 array supporting both plain and atomic accumulation.
// Values are stored as IEEE-754 bit patterns in uint64 so atomic updates
// are CAS loops on the bits. Get is an atomic load, which compiles to a
// plain MOV on amd64; Set and Add are plain stores, because a locked
// store (XCHG on amd64) costs about 10 ns against well under 1 for a
// MOV, and they serve the engines' destination-exclusive paths — a
// per-run gather, a per-edge non-atomic update, a vertex pass — where
// no other goroutine reads or writes the element meanwhile. Elements
// several goroutines update concurrently go through AtomicAdd.
type F64s struct{ bits []uint64 }

// NewF64s allocates an array of n values initialised to init.
func NewF64s(n int, init float64) *F64s {
	a := &F64s{bits: make([]uint64, n)}
	if init != 0 {
		b := math.Float64bits(init)
		for i := range a.bits {
			a.bits[i] = b
		}
	}
	return a
}

// Len returns the array length.
func (a *F64s) Len() int { return len(a.bits) }

// Get returns element i. The load uses the atomic primitive so that a
// read racing an AtomicAdd on another goroutine is well-defined and
// race-detector-clean; on amd64 this compiles to a plain MOV. A Get may
// not race a Set or an Add, which are plain stores.
func (a *F64s) Get(i graph.VID) float64 {
	return math.Float64frombits(atomic.LoadUint64(&a.bits[i]))
}

// Set stores element i with a plain store. The caller owns index i: no
// other goroutine reads or writes it until a barrier (an EdgeMap or
// VertexMap returning) orders the two.
func (a *F64s) Set(i graph.VID, v float64) {
	a.bits[i] = math.Float64bits(v)
}

// Add accumulates into element i with a plain read-modify-write, under
// Set's ownership rule (the engines' partition-exclusive paths
// guarantee it).
func (a *F64s) Add(i graph.VID, v float64) {
	p := &a.bits[i]
	*p = math.Float64bits(math.Float64frombits(*p) + v)
}

// AtomicAdd accumulates into element i with a CAS loop.
func (a *F64s) AtomicAdd(i graph.VID, v float64) {
	p := &a.bits[i]
	for {
		old := atomic.LoadUint64(p)
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if atomic.CompareAndSwapUint64(p, old, nw) {
			return
		}
	}
}

// Fill sets every element to v.
func (a *F64s) Fill(v float64) {
	b := math.Float64bits(v)
	for i := range a.bits {
		a.bits[i] = b
	}
}

// Slice copies the values out as []float64.
func (a *F64s) Slice() []float64 {
	out := make([]float64, len(a.bits))
	for i := range a.bits {
		out[i] = math.Float64frombits(a.bits[i])
	}
	return out
}

// F32s is a float32 array with plain and atomic min-update, used for
// shortest-path distances.
type F32s struct{ bits []uint32 }

// NewF32s allocates n values initialised to init.
func NewF32s(n int, init float32) *F32s {
	a := &F32s{bits: make([]uint32, n)}
	b := math.Float32bits(init)
	for i := range a.bits {
		a.bits[i] = b
	}
	return a
}

// Len returns the array length.
func (a *F32s) Len() int { return len(a.bits) }

// Get returns element i (atomic load primitive; see F64s.Get).
func (a *F32s) Get(i graph.VID) float32 {
	return math.Float32frombits(atomic.LoadUint32(&a.bits[i]))
}

// Set stores element i.
func (a *F32s) Set(i graph.VID, v float32) {
	atomic.StoreUint32(&a.bits[i], math.Float32bits(v))
}

// Min lowers element i to v if v is smaller; reports whether it changed.
// Single-writer version for destination-exclusive paths.
func (a *F32s) Min(i graph.VID, v float32) bool {
	if v < a.Get(i) {
		a.Set(i, v)
		return true
	}
	return false
}

// AtomicMin lowers element i to v atomically; reports whether this call
// lowered it.
func (a *F32s) AtomicMin(i graph.VID, v float32) bool {
	p := &a.bits[i]
	for {
		old := atomic.LoadUint32(p)
		if v >= math.Float32frombits(old) {
			return false
		}
		if atomic.CompareAndSwapUint32(p, old, math.Float32bits(v)) {
			return true
		}
	}
}

// Slice copies values out.
func (a *F32s) Slice() []float32 {
	out := make([]float32, len(a.bits))
	for i := range a.bits {
		out[i] = math.Float32frombits(a.bits[i])
	}
	return out
}

// I32s is an int32 array with plain and atomic compare-and-claim /
// min-update, used for BFS parents and CC labels.
type I32s struct{ vals []int32 }

// NewI32s allocates n values initialised to init.
func NewI32s(n int, init int32) *I32s {
	a := &I32s{vals: make([]int32, n)}
	if init != 0 {
		for i := range a.vals {
			a.vals[i] = init
		}
	}
	return a
}

// Len returns the array length.
func (a *I32s) Len() int { return len(a.vals) }

// Get returns element i (atomic load primitive; see F64s.Get).
func (a *I32s) Get(i graph.VID) int32 { return atomic.LoadInt32(&a.vals[i]) }

// Set stores element i.
func (a *I32s) Set(i graph.VID, v int32) { atomic.StoreInt32(&a.vals[i], v) }

// CompareAndSet claims element i: if it equals expect, store v.
// Single-writer version for destination-exclusive paths.
func (a *I32s) CompareAndSet(i graph.VID, expect, v int32) bool {
	if a.Get(i) == expect {
		a.Set(i, v)
		return true
	}
	return false
}

// AtomicCompareAndSet is the CAS version of CompareAndSet.
func (a *I32s) AtomicCompareAndSet(i graph.VID, expect, v int32) bool {
	return atomic.CompareAndSwapInt32(&a.vals[i], expect, v)
}

// Min lowers element i to v if smaller; reports change. Single-writer
// version for destination-exclusive paths.
func (a *I32s) Min(i graph.VID, v int32) bool {
	if v < a.Get(i) {
		a.Set(i, v)
		return true
	}
	return false
}

// AtomicMin lowers element i to v atomically; reports whether this call
// lowered it.
func (a *I32s) AtomicMin(i graph.VID, v int32) bool {
	p := &a.vals[i]
	for {
		old := atomic.LoadInt32(p)
		if v >= old {
			return false
		}
		if atomic.CompareAndSwapInt32(p, old, v) {
			return true
		}
	}
}

// Slice returns the backing slice (not a copy); callers treat it as
// read-only after the algorithm finishes.
func (a *I32s) Slice() []int32 { return a.vals }
