package api

import (
	"fmt"
	"sync/atomic"

	"repro/internal/frontier"
	"repro/internal/graph"
)

// CheckSystem verifies the System contract on the engine's own graph and
// returns the first violation found, or nil. It is engine-neutral: every
// System implementation — in-memory or out-of-core — must pass it, and
// engine test suites run it as a conformance gate before the per-
// algorithm differential tests.
//
// The checks pin down the parts of the contract algorithms rely on:
//
//   - EdgeMap applies the operator to every active edge exactly once,
//     for each direction hint, and honours Cond as a destination gate.
//   - The returned frontier contains exactly the destinations whose
//     update returned true, deduplicated, with a consistent count.
//   - An update that returns false keeps the destination out of the
//     next frontier even though the edge was applied.
//   - VertexMap visits each active vertex exactly once; VertexFilter
//     returns exactly the predicate-satisfying subset.
//
// Operators passed to the engine use the atomic update on the
// UpdateAtomic path, so the check is race-free on every legal engine
// schedule; a non-atomic engine bug surfaces as a count mismatch (or a
// race-detector report under -race).
func CheckSystem(sys System) error {
	g := sys.Graph()
	if g == nil {
		return fmt.Errorf("%s: Graph() returned nil", sys.Name())
	}
	return CheckSystemAgainst(sys, g)
}

// CheckSystemAgainst is CheckSystem with the expectations taken from g,
// the graph the system's data was written from, instead of from
// sys.Graph(). It is the check for a system whose Graph is degree-only
// (an out-of-core host built from a store's per-vertex metadata, whose
// adjacency accessors refuse): the contract is the same, and the
// system's Graph must agree with g on |V|, |E| and every degree.
func CheckSystemAgainst(sys System, g *graph.Graph) error {
	own := sys.Graph()
	if own == nil {
		return fmt.Errorf("%s: Graph() returned nil", sys.Name())
	}
	if sys.Threads() < 1 {
		return fmt.Errorf("%s: Threads() = %d, want >= 1", sys.Name(), sys.Threads())
	}
	n := g.NumVertices()
	if own.NumVertices() != n || own.NumEdges() != g.NumEdges() {
		return fmt.Errorf("%s: Graph() is %dv/%de, want %dv/%de",
			sys.Name(), own.NumVertices(), own.NumEdges(), n, g.NumEdges())
	}
	for v := graph.VID(0); int(v) < n; v++ {
		if own.OutDegree(v) != g.OutDegree(v) || own.InDegree(v) != g.InDegree(v) {
			return fmt.Errorf("%s: Graph() gives vertex %d degrees out %d / in %d, want %d / %d",
				sys.Name(), v, own.OutDegree(v), own.InDegree(v), g.OutDegree(v), g.InDegree(v))
		}
	}
	if n == 0 {
		return nil
	}
	for _, dir := range []Direction{DirAuto, DirForward, DirBackward} {
		if err := checkFullEdgeMap(sys, g, dir); err != nil {
			return err
		}
	}
	if err := checkCondGate(sys, g); err != nil {
		return err
	}
	if err := checkSingleSource(sys, g); err != nil {
		return err
	}
	if err := checkRejectedUpdates(sys, g); err != nil {
		return err
	}
	if err := checkEmptyFrontier(sys, g); err != nil {
		return err
	}
	if err := checkVertexOps(sys, g); err != nil {
		return err
	}
	return nil
}

// countingOp returns an operator that tallies per-destination
// applications and a handle to read the tallies back.
func countingOp(n int, ret bool) (EdgeOp, []int64) {
	counts := make([]int64, n)
	return EdgeOp{
		Update: func(u, v graph.VID) bool {
			counts[v]++ // engine guarantees destination exclusivity here
			return ret
		},
		UpdateAtomic: func(u, v graph.VID) bool {
			atomic.AddInt64(&counts[v], 1)
			return ret
		},
	}, counts
}

// checkFullEdgeMap: over the all-vertices frontier, every edge is
// applied exactly once and the next frontier is exactly the set of
// vertices with in-edges.
func checkFullEdgeMap(sys System, g *graph.Graph, dir Direction) error {
	n := g.NumVertices()
	op, counts := countingOp(n, true)
	nf := sys.EdgeMap(frontier.All(g), op, dir)
	if nf == nil {
		return fmt.Errorf("%s: EdgeMap(%v) returned nil frontier", sys.Name(), dir)
	}
	var want int64
	for v := 0; v < n; v++ {
		indeg := g.InDegree(graph.VID(v))
		if counts[v] != indeg {
			return fmt.Errorf("%s: EdgeMap(%v) applied %d updates to vertex %d, want in-degree %d",
				sys.Name(), dir, counts[v], v, indeg)
		}
		if active := nf.Has(graph.VID(v)); active != (indeg > 0) {
			return fmt.Errorf("%s: EdgeMap(%v) next frontier has vertex %d = %v, want %v",
				sys.Name(), dir, v, active, indeg > 0)
		}
		if indeg > 0 {
			want++
		}
	}
	if nf.Count() != want {
		return fmt.Errorf("%s: EdgeMap(%v) next frontier count %d, want %d", sys.Name(), dir, nf.Count(), want)
	}
	return nil
}

// checkCondGate: a false Cond keeps a destination untouched and out of
// the next frontier.
func checkCondGate(sys System, g *graph.Graph) error {
	n := g.NumVertices()
	op, counts := countingOp(n, true)
	op.Cond = func(v graph.VID) bool { return v%2 == 0 }
	nf := sys.EdgeMap(frontier.All(g), op, DirAuto)
	for v := 0; v < n; v++ {
		if v%2 == 1 {
			if counts[v] != 0 {
				return fmt.Errorf("%s: Cond=false destination %d received %d updates", sys.Name(), v, counts[v])
			}
			if nf.Has(graph.VID(v)) {
				return fmt.Errorf("%s: Cond=false destination %d joined the next frontier", sys.Name(), v)
			}
			continue
		}
		if indeg := g.InDegree(graph.VID(v)); counts[v] != indeg {
			return fmt.Errorf("%s: Cond=true destination %d received %d updates, want %d",
				sys.Name(), v, counts[v], indeg)
		}
	}
	return nil
}

// checkSingleSource: from a one-vertex frontier, exactly that vertex's
// out-edges are applied and its distinct out-neighbours activate.
func checkSingleSource(sys System, g *graph.Graph) error {
	n := g.NumVertices()
	src := maxOutDegreeVertex(g)
	if g.OutDegree(src) == 0 {
		return nil // edgeless graph; full-frontier checks covered it
	}
	op, counts := countingOp(n, true)
	nf := sys.EdgeMap(frontier.FromVertex(g, src), op, DirAuto)
	wantCounts := make([]int64, n)
	for _, v := range g.OutNeighbors(src) {
		wantCounts[v]++
	}
	var want int64
	for v := 0; v < n; v++ {
		if counts[v] != wantCounts[v] {
			return fmt.Errorf("%s: single-source EdgeMap applied %d updates to vertex %d, want %d",
				sys.Name(), counts[v], v, wantCounts[v])
		}
		if active := nf.Has(graph.VID(v)); active != (wantCounts[v] > 0) {
			return fmt.Errorf("%s: single-source next frontier has vertex %d = %v, want %v",
				sys.Name(), v, active, wantCounts[v] > 0)
		}
		if wantCounts[v] > 0 {
			want++
		}
	}
	if nf.Count() != want {
		return fmt.Errorf("%s: single-source next frontier count %d, want %d", sys.Name(), nf.Count(), want)
	}
	return nil
}

// checkRejectedUpdates: updates that return false are still applied but
// activate nothing.
func checkRejectedUpdates(sys System, g *graph.Graph) error {
	n := g.NumVertices()
	op, counts := countingOp(n, false)
	nf := sys.EdgeMap(frontier.All(g), op, DirAuto)
	if nf.Count() != 0 {
		return fmt.Errorf("%s: all updates returned false but next frontier has %d vertices",
			sys.Name(), nf.Count())
	}
	for v := 0; v < n; v++ {
		if indeg := g.InDegree(graph.VID(v)); counts[v] != indeg {
			return fmt.Errorf("%s: rejected-update EdgeMap applied %d updates to vertex %d, want %d",
				sys.Name(), counts[v], v, indeg)
		}
	}
	return nil
}

// checkEmptyFrontier: an empty frontier maps to an empty frontier with
// no operator calls.
func checkEmptyFrontier(sys System, g *graph.Graph) error {
	op, counts := countingOp(g.NumVertices(), true)
	nf := sys.EdgeMap(frontier.New(g.NumVertices()), op, DirAuto)
	if nf == nil || nf.Count() != 0 {
		return fmt.Errorf("%s: empty-frontier EdgeMap returned a non-empty frontier", sys.Name())
	}
	for v, c := range counts {
		if c != 0 {
			return fmt.Errorf("%s: empty-frontier EdgeMap applied %d updates to vertex %d", sys.Name(), c, v)
		}
	}
	return nil
}

// checkVertexOps: VertexMap visits each active vertex exactly once and
// VertexFilter selects exactly the predicate-satisfying subset.
func checkVertexOps(sys System, g *graph.Graph) error {
	n := g.NumVertices()
	visits := make([]int64, n)
	sys.VertexMap(frontier.All(g), func(v graph.VID) {
		atomic.AddInt64(&visits[v], 1)
	})
	for v := 0; v < n; v++ {
		if visits[v] != 1 {
			return fmt.Errorf("%s: VertexMap visited vertex %d %d times", sys.Name(), v, visits[v])
		}
	}
	pred := func(v graph.VID) bool { return v%3 == 0 }
	sub := sys.VertexFilter(frontier.All(g), pred)
	var want int64
	for v := 0; v < n; v++ {
		if keep := pred(graph.VID(v)); sub.Has(graph.VID(v)) != keep {
			return fmt.Errorf("%s: VertexFilter has vertex %d = %v, want %v",
				sys.Name(), v, sub.Has(graph.VID(v)), keep)
		} else if keep {
			want++
		}
	}
	if sub.Count() != want {
		return fmt.Errorf("%s: VertexFilter count %d, want %d", sys.Name(), sub.Count(), want)
	}
	return nil
}

func maxOutDegreeVertex(g *graph.Graph) graph.VID {
	var best graph.VID
	var bestDeg int64 = -1
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.OutDegree(graph.VID(v)); d > bestDeg {
			bestDeg, best = d, graph.VID(v)
		}
	}
	return best
}
