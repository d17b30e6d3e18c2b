// Package graph provides the core graph representations shared by every
// engine in this repository: a dual CSR/CSC indexed form and a COO edge
// list, together with builders, degree queries and validation.
//
// Vertex identifiers are 32-bit (VID). Edge counts are int64 so that the
// arithmetic matches the storage-size model of the paper even for graphs
// larger than 2^31 edges.
package graph

import (
	"errors"
	"fmt"
	"sort"
)

// VID is a vertex identifier.
type VID = uint32

// Edge is a directed edge from Src to Dst.
type Edge struct {
	Src, Dst VID
}

// ErrNoAdjacency is what the adjacency accessors of a degree-only graph
// (DegreeOnly) panic with, wrapped with the accessor's name: a caller
// that needs neighbour lists gets a typed refusal, never an index error
// and never a silently built CSR. Test with errors.Is on the recovered
// value.
var ErrNoAdjacency = errors.New("graph: degree-only graph has no adjacency")

// Graph is a directed graph stored simultaneously in CSR (out-edges) and
// CSC (in-edges) form. Both views are built once at construction; all
// engines share the same Graph value. A degree-only graph (DegreeOnly)
// carries the two offset arrays and no neighbour arrays: n, m and
// degrees answer, the adjacency accessors panic with ErrNoAdjacency.
//
// CSR: out-edges of v are OutDst[OutOff[v]:OutOff[v+1]], sorted by
// destination. CSC: in-edges of v are InSrc[InOff[v]:InOff[v+1]], sorted by
// source. Edge weights are not stored; they are a deterministic function
// of (src,dst) — see WeightOf — so all layouts agree without replication.
type Graph struct {
	n      int
	m      int64
	outOff []int64
	outDst []VID
	inOff  []int64
	inSrc  []VID
}

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return g.n }

// NumEdges returns |E| (directed edge count).
func (g *Graph) NumEdges() int64 { return g.m }

// OutDegree returns the out-degree of v.
func (g *Graph) OutDegree(v VID) int64 { return g.outOff[v+1] - g.outOff[v] }

// InDegree returns the in-degree of v.
func (g *Graph) InDegree(v VID) int64 { return g.inOff[v+1] - g.inOff[v] }

// OutNeighbors returns the out-neighbour slice of v. The slice aliases the
// graph's storage and must not be modified.
func (g *Graph) OutNeighbors(v VID) []VID {
	if g.outDst == nil {
		noAdjacency("OutNeighbors")
	}
	return g.outDst[g.outOff[v]:g.outOff[v+1]]
}

// InNeighbors returns the in-neighbour slice of v (sources of in-edges).
// The slice aliases the graph's storage and must not be modified.
func (g *Graph) InNeighbors(v VID) []VID {
	if g.inSrc == nil {
		noAdjacency("InNeighbors")
	}
	return g.inSrc[g.inOff[v]:g.inOff[v+1]]
}

// OutOffsets exposes the CSR index array (length NumVertices+1).
func (g *Graph) OutOffsets() []int64 { return g.outOff }

// OutTargets exposes the CSR destination array (length NumEdges).
func (g *Graph) OutTargets() []VID {
	if g.outDst == nil {
		noAdjacency("OutTargets")
	}
	return g.outDst
}

// InOffsets exposes the CSC index array (length NumVertices+1).
func (g *Graph) InOffsets() []int64 { return g.inOff }

// InSources exposes the CSC source array (length NumEdges).
func (g *Graph) InSources() []VID {
	if g.inSrc == nil {
		noAdjacency("InSources")
	}
	return g.inSrc
}

func noAdjacency(accessor string) {
	panic(fmt.Errorf("graph: %s: %w", accessor, ErrNoAdjacency))
}

// DegreeOnly returns a graph with the given CSR and CSC offset arrays
// and no neighbour arrays: NumVertices, NumEdges and the degree
// queries answer, the adjacency accessors panic with ErrNoAdjacency.
// The arrays are aliased, not copied, and must not be modified. Panics
// if the two arrays disagree on |V| or |E|, or do not start at 0.
func DegreeOnly(outOff, inOff []int64) *Graph {
	n := len(outOff) - 1
	if n < 0 || len(inOff) != n+1 || outOff[0] != 0 || inOff[0] != 0 || outOff[n] != inOff[n] {
		panic("graph: DegreeOnly offsets disagree")
	}
	return &Graph{n: n, m: outOff[n], outOff: outOff, inOff: inOff}
}

// FromEdges builds a Graph with n vertices from a directed edge list.
// Duplicate edges and self-loops are kept as supplied. Panics if an
// endpoint is out of range, since that is a programming error in the
// caller (generators always produce in-range endpoints).
func FromEdges(n int, edges []Edge) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	for _, e := range edges {
		if int(e.Src) >= n || int(e.Dst) >= n {
			panic(fmt.Sprintf("graph: edge (%d,%d) out of range for n=%d", e.Src, e.Dst, n))
		}
	}
	g := &Graph{n: n, m: int64(len(edges))}
	g.outOff, g.outDst = buildAdjacency(n, edges, func(e Edge) (VID, VID) { return e.Src, e.Dst })
	g.inOff, g.inSrc = buildAdjacency(n, edges, func(e Edge) (VID, VID) { return e.Dst, e.Src })
	return g
}

// buildAdjacency performs a counting sort of edges by key(e) and returns
// the offset and value arrays. Values within a bucket are sorted so that
// neighbour lists are ordered, which some algorithms and tests rely on.
func buildAdjacency(n int, edges []Edge, key func(Edge) (VID, VID)) ([]int64, []VID) {
	off := make([]int64, n+1)
	for _, e := range edges {
		k, _ := key(e)
		off[k+1]++
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	vals := make([]VID, len(edges))
	cursor := make([]int64, n)
	for _, e := range edges {
		k, v := key(e)
		vals[off[k]+cursor[k]] = v
		cursor[k]++
	}
	for v := 0; v < n; v++ {
		seg := vals[off[v]:off[v+1]]
		if len(seg) > 1 {
			sort.Slice(seg, func(i, j int) bool { return seg[i] < seg[j] })
		}
	}
	return off, vals
}

// Edges materialises the edge list in CSR order (sorted by source, then
// destination). The result is freshly allocated.
func (g *Graph) Edges() []Edge {
	if g.outDst == nil {
		noAdjacency("Edges")
	}
	out := make([]Edge, 0, g.m)
	for v := 0; v < g.n; v++ {
		for _, d := range g.OutNeighbors(VID(v)) {
			out = append(out, Edge{Src: VID(v), Dst: d})
		}
	}
	return out
}

// Reverse returns a new graph with every edge direction flipped. The CSR
// of the result is the CSC of the receiver and vice versa, so this is a
// cheap pointer swap plus copy of the small header.
func (g *Graph) Reverse() *Graph {
	return &Graph{
		n: g.n, m: g.m,
		outOff: g.inOff, outDst: g.inSrc,
		inOff: g.outOff, inSrc: g.outDst,
	}
}

// Validate checks the structural invariants of both views: offsets are
// monotone and span [0,m]; every stored endpoint is in range; the CSR and
// CSC views describe the same multiset of edges.
func (g *Graph) Validate() error {
	if err := validateView(g.n, g.m, g.outOff, g.outDst, "CSR"); err != nil {
		return err
	}
	if err := validateView(g.n, g.m, g.inOff, g.inSrc, "CSC"); err != nil {
		return err
	}
	// Compare the multiset of edges between views via a canonical sort.
	fwd := g.Edges()
	bwd := make([]Edge, 0, g.m)
	for v := 0; v < g.n; v++ {
		for _, s := range g.InNeighbors(VID(v)) {
			bwd = append(bwd, Edge{Src: s, Dst: VID(v)})
		}
	}
	sortEdges(fwd)
	sortEdges(bwd)
	for i := range fwd {
		if fwd[i] != bwd[i] {
			return fmt.Errorf("graph: CSR/CSC disagree at edge %d: %v vs %v", i, fwd[i], bwd[i])
		}
	}
	return nil
}

func validateView(n int, m int64, off []int64, vals []VID, name string) error {
	if len(off) != n+1 {
		return fmt.Errorf("graph: %s offsets length %d, want %d", name, len(off), n+1)
	}
	if off[0] != 0 || off[n] != m {
		return fmt.Errorf("graph: %s offsets span [%d,%d], want [0,%d]", name, off[0], off[n], m)
	}
	for i := 0; i < n; i++ {
		if off[i] > off[i+1] {
			return fmt.Errorf("graph: %s offsets not monotone at %d", name, i)
		}
	}
	if int64(len(vals)) != m {
		return fmt.Errorf("graph: %s values length %d, want %d", name, len(vals), m)
	}
	for i, v := range vals {
		if int(v) >= n {
			return fmt.Errorf("graph: %s value %d out of range at %d", name, v, i)
		}
	}
	return nil
}

func sortEdges(es []Edge) {
	sort.Slice(es, func(i, j int) bool {
		if es[i].Src != es[j].Src {
			return es[i].Src < es[j].Src
		}
		return es[i].Dst < es[j].Dst
	})
}

// SortEdges sorts an edge list in CSR order (by source, then destination).
func SortEdges(es []Edge) { sortEdges(es) }

// MaxOutDegree returns the largest out-degree in the graph, or 0 for an
// empty graph.
func (g *Graph) MaxOutDegree() int64 {
	var max int64
	for v := 0; v < g.n; v++ {
		if d := g.OutDegree(VID(v)); d > max {
			max = d
		}
	}
	return max
}

// MaxInDegree returns the largest in-degree in the graph.
func (g *Graph) MaxInDegree() int64 {
	var max int64
	for v := 0; v < g.n; v++ {
		if d := g.InDegree(VID(v)); d > max {
			max = d
		}
	}
	return max
}
