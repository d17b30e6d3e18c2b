package frontier

import (
	"fmt"

	"repro/internal/graph"
)

// Class is the paper's three-way frontier classification (§III.A).
type Class int

const (
	// Sparse frontiers (< |E|/20 active edge work) traverse the
	// unpartitioned CSR forward.
	Sparse Class = iota
	// Medium frontiers (between |E|/20 and |E|/2) traverse the
	// unpartitioned CSC backward over partitioned computation ranges.
	Medium
	// Dense frontiers (> |E|/2) traverse the partitioned COO.
	Dense
)

func (c Class) String() string {
	switch c {
	case Sparse:
		return "sparse"
	case Medium:
		return "medium"
	case Dense:
		return "dense"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Frontier is the set of active vertices. It keeps both representations
// lazily: a sparse list and/or a dense bitmap, converting on demand. The
// density statistic |F| + Σ_{v∈F} out-deg(v) is tracked so Algorithm 2
// can classify without an extra pass when the producer already knows it.
type Frontier struct {
	n                int
	list             []graph.VID // valid if hasList
	bitmap           *Bitmap     // valid if hasBits
	hasList, hasBits bool

	count  int64 // |F|
	outDeg int64 // Σ out-deg over F; -1 if unknown
}

// New returns an empty frontier over n vertices.
func New(n int) *Frontier {
	return &Frontier{n: n, hasList: true, outDeg: 0}
}

// FromVertex returns a frontier containing the single vertex v, with its
// out-degree statistic filled from g.
func FromVertex(g *graph.Graph, v graph.VID) *Frontier {
	return &Frontier{
		n: g.NumVertices(), list: []graph.VID{v}, hasList: true,
		count: 1, outDeg: g.OutDegree(v),
	}
}

// FromList returns a frontier over n vertices containing vs (must be
// sorted or at least duplicate-free; engines produce duplicate-free
// lists). The out-degree statistic is unknown until SetStats or
// ComputeStats is called.
func FromList(n int, vs []graph.VID) *Frontier {
	return &Frontier{n: n, list: vs, hasList: true, count: int64(len(vs)), outDeg: -1}
}

// FromBitmap wraps a dense bitmap; count is computed, out-degree unknown.
func FromBitmap(n int, b *Bitmap) *Frontier {
	return &Frontier{n: n, bitmap: b, hasBits: true, count: b.Count(), outDeg: -1}
}

// All returns a frontier with every vertex active, with statistics
// filled (|F| = n, Σ out-deg = |E|).
func All(g *graph.Graph) *Frontier {
	n := g.NumVertices()
	b := NewBitmap(n)
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	// Mask the tail so Count stays exact.
	if n%64 != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] = ^uint64(0) >> (64 - uint(n%64))
	}
	return &Frontier{n: n, bitmap: b, hasBits: true, count: int64(n), outDeg: g.NumEdges()}
}

// Len returns the number of vertices the frontier ranges over (not the
// active count).
func (f *Frontier) Len() int { return f.n }

// Count returns |F|, the number of active vertices.
func (f *Frontier) Count() int64 { return f.count }

// IsEmpty reports whether no vertex is active — the usual termination
// condition of the iteration loop.
func (f *Frontier) IsEmpty() bool { return f.count == 0 }

// SetStats records |F| and Σ out-deg when the producer tracked them.
func (f *Frontier) SetStats(count, outDeg int64) {
	f.count = count
	f.outDeg = outDeg
}

// OutDegree returns Σ out-deg over the active set, computing it from g if
// unknown. The result is cached.
func (f *Frontier) OutDegree(g *graph.Graph) int64 {
	if f.outDeg >= 0 {
		return f.outDeg
	}
	var s int64
	f.ForEach(func(v graph.VID) { s += g.OutDegree(v) })
	f.outDeg = s
	return s
}

// Classify applies Algorithm 2's thresholds: the frontier is Dense when
// |F| + Σ out-deg > m/denseDiv, Medium when > m/sparseDiv, else Sparse.
// The paper uses denseDiv=2 and sparseDiv=20.
func (f *Frontier) Classify(g *graph.Graph, sparseDiv, denseDiv int64) Class {
	m := g.NumEdges()
	work := f.count + f.OutDegree(g)
	if work > m/denseDiv {
		return Dense
	}
	if work > m/sparseDiv {
		return Medium
	}
	return Sparse
}

// Has reports whether v is active. A list-only frontier materialises
// its bitmap on the first call (as Bitmap does), so a pass of Has over
// every vertex costs O(n + |F|), not O(n·|F|).
func (f *Frontier) Has(v graph.VID) bool { return f.Bitmap().Get(v) }

// List returns the sparse representation, materialising it if needed.
func (f *Frontier) List() []graph.VID {
	if !f.hasList {
		f.list = f.bitmap.ToList()
		f.hasList = true
	}
	return f.list
}

// Bitmap returns the dense representation, materialising it if needed.
func (f *Frontier) Bitmap() *Bitmap {
	if !f.hasBits {
		f.bitmap = NewBitmap(f.n)
		for _, v := range f.list {
			f.bitmap.Set(v)
		}
		f.hasBits = true
	}
	return f.bitmap
}

// ForEach visits every active vertex. Order is ascending when the dense
// form exists, insertion order otherwise.
func (f *Frontier) ForEach(fn func(graph.VID)) {
	if f.hasBits {
		f.bitmap.ForEach(fn)
		return
	}
	for _, v := range f.list {
		fn(v)
	}
}
