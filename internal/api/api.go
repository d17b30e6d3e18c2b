// Package api defines the engine-neutral programming interface shared by
// the GraphGrind-v2 engine (internal/core) and the Ligra / Polymer /
// GraphGrind-v1 baselines: the EdgeMap operator contract and the System
// interface the algorithms in internal/algorithms are written against.
//
// The interface is deliberately Ligra-shaped (the paper's framework "is
// fully compatible with the Ligra API"). The one divergence the paper
// introduces is that GraphGrind-v2 ignores the programmer's traversal
// direction hint: Algorithm 2 decides from frontier density instead.
package api

import (
	"repro/internal/frontier"
	"repro/internal/graph"
)

// EdgeOp is the per-edge operator passed to EdgeMap.
//
// Update is invoked when the engine guarantees the destination is written
// by exactly one goroutine (backward CSC ranges, per-partition COO); it
// may use plain loads/stores. UpdateAtomic is invoked on paths where
// multiple workers may target the same destination (forward CSR) and must
// synchronise, typically with CAS. Both return true when the destination
// value changed and the destination should join the next frontier.
//
// Cond filters destinations before edges are applied (e.g. "parent not
// yet set" for BFS); traversals skip or early-exit a destination whose
// Cond is false. A nil Cond means "always true".
//
// UpdateRun is optional: the gather form of Update over one
// destination's in-edges. UpdateRun(v, srcs) must have the same effect,
// in the same floating-point order, as calling Update(u, v) for each u
// in srcs in order, and report whether any of those calls would have
// returned true. A destination-run sweep (DenseRuns) calls it only when
// every vertex is active and Cond is nil, so an operator like PageRank
// can sum a run's sources into a local and write the destination once.
type EdgeOp struct {
	Update       func(src, dst graph.VID) bool
	UpdateAtomic func(src, dst graph.VID) bool
	Cond         func(dst graph.VID) bool
	UpdateRun    func(dst graph.VID, srcs []graph.VID) bool
}

// CondOf returns the operator's condition, defaulting to always-true.
func (op EdgeOp) CondOf() func(graph.VID) bool {
	if op.Cond != nil {
		return op.Cond
	}
	return func(graph.VID) bool { return true }
}

// Direction is the traversal-direction hint that Ligra-era systems
// require the programmer to supply (Table II). GraphGrind-v2 ignores it.
type Direction int

const (
	// DirAuto lets the engine decide (only GG-v2 honours density-based
	// auto selection; baselines treat it as forward).
	DirAuto Direction = iota
	// DirForward requests traversal over out-edges of active vertices.
	DirForward
	// DirBackward requests traversal over in-edges of condition-passing
	// destinations.
	DirBackward
)

func (d Direction) String() string {
	switch d {
	case DirForward:
		return "forward"
	case DirBackward:
		return "backward"
	default:
		return "auto"
	}
}

// System is the engine interface the algorithms run on.
type System interface {
	// Name identifies the engine in experiment output ("L", "P",
	// "GG-v1", "GG-v2").
	Name() string
	// Graph returns the underlying graph.
	Graph() *graph.Graph
	// EdgeMap applies op over the active edges of f and returns the new
	// frontier (vertices whose update returned true, deduplicated).
	EdgeMap(f *frontier.Frontier, op EdgeOp, dir Direction) *frontier.Frontier
	// VertexMap applies fn to every active vertex of f in parallel.
	VertexMap(f *frontier.Frontier, fn func(v graph.VID))
	// VertexFilter returns the sub-frontier of f where pred holds.
	VertexFilter(f *frontier.Frontier, pred func(v graph.VID) bool) *frontier.Frontier
	// Threads returns the engine's parallelism (algorithms use it to
	// size per-worker scratch).
	Threads() int
}
