// Package ligra is the Ligra baseline (Shun & Blelloch, PPoPP'13) the
// paper compares against: an unpartitioned CSR+CSC engine with the
// classic two-way sparse/dense frontier switch at |F|+Σout-deg > |E|/20
// and a *programmer-supplied* traversal direction for dense frontiers
// (Table II's forward/backward column). There is no partitioning, no
// medium-dense class and no COO layout.
package ligra

import (
	"repro/internal/api"
	"repro/internal/frontier"
	"repro/internal/graph"
	"repro/internal/sched"
)

// Engine is the Ligra-style system.
type Engine struct {
	g         *graph.Graph
	pool      *sched.Pool
	sparseDiv int64
}

var _ api.System = (*Engine)(nil)

// New builds a Ligra engine on g with the given parallelism (0 =
// GOMAXPROCS).
func New(g *graph.Graph, threads int) *Engine {
	return &Engine{g: g, pool: sched.NewPool(threads), sparseDiv: 20}
}

// Name implements api.System.
func (e *Engine) Name() string { return "Ligra" }

// Graph implements api.System.
func (e *Engine) Graph() *graph.Graph { return e.g }

// Threads implements api.System.
func (e *Engine) Threads() int { return e.pool.Threads() }

// VertexMap implements api.System.
func (e *Engine) VertexMap(f *frontier.Frontier, fn func(graph.VID)) {
	api.VertexMap(e.pool, f, fn)
}

// VertexFilter implements api.System.
func (e *Engine) VertexFilter(f *frontier.Frontier, pred func(graph.VID) bool) *frontier.Frontier {
	return api.VertexFilter(e.pool, e.g, f, pred)
}

// EdgeMap dispatches on the two-way density test; dense traversal honours
// the programmer's direction hint (DirAuto falls back to forward, which
// is Ligra's default when no direction flag is given).
func (e *Engine) EdgeMap(f *frontier.Frontier, op api.EdgeOp, dir api.Direction) *frontier.Frontier {
	if f.Count() == 0 {
		return frontier.New(e.g.NumVertices())
	}
	work := f.Count() + f.OutDegree(e.g)
	if work <= e.g.NumEdges()/e.sparseDiv {
		return e.sparse(f, op)
	}
	if dir == api.DirBackward {
		return e.denseBackward(f, op)
	}
	return e.denseForward(f, op)
}

// sparse is edgeMapSparse: forward over the active list with atomic
// updates and test-and-set deduplication.
func (e *Engine) sparse(f *frontier.Frontier, op api.EdgeOp) *frontier.Frontier {
	g := e.g
	cond := op.CondOf()
	active := f.List()
	claimed := frontier.NewBitmap(g.NumVertices())

	type out struct {
		verts  []graph.VID
		outDeg int64
		_      [7]int64
	}
	outs := make([]out, e.pool.Threads())
	e.pool.ParallelForChunks(len(active), 16, func(w, lo, hi int) {
		o := &outs[w]
		for i := lo; i < hi; i++ {
			u := active[i]
			for _, v := range g.OutNeighbors(u) {
				if cond(v) && op.UpdateAtomic(u, v) && claimed.TestAndSet(v) {
					o.verts = append(o.verts, v)
					o.outDeg += g.OutDegree(v)
				}
			}
		}
	})
	var total int
	var outDeg int64
	for i := range outs {
		total += len(outs[i].verts)
		outDeg += outs[i].outDeg
	}
	merged := make([]graph.VID, 0, total)
	for i := range outs {
		merged = append(merged, outs[i].verts...)
	}
	nf := frontier.FromList(g.NumVertices(), merged)
	nf.SetStats(int64(total), outDeg)
	return nf
}

// denseForward is edgeMapDense in forward direction: every vertex is
// checked for membership; active vertices push along out-edges with
// atomics. Work is divided by vertex count, which is the load-imbalance
// behaviour §IV.A attributes to unpartitioned layouts.
func (e *Engine) denseForward(f *frontier.Frontier, op api.EdgeOp) *frontier.Frontier {
	g := e.g
	cond := op.CondOf()
	cur := f.Bitmap()
	next := frontier.NewBitmap(g.NumVertices())
	accs := make([]api.Accum, e.pool.Threads())
	e.pool.ParallelForChunks(g.NumVertices(), sched.DefaultChunk, func(w, lo, hi int) {
		a := &accs[w]
		for vi := lo; vi < hi; vi++ {
			u := graph.VID(vi)
			if !cur.Get(u) {
				continue
			}
			for _, v := range g.OutNeighbors(u) {
				if cond(v) && op.UpdateAtomic(u, v) && next.TestAndSet(v) {
					a.Count++
					a.OutDeg += g.OutDegree(v)
				}
			}
		}
	})
	return api.NextFrontier(g.NumVertices(), next, accs)
}

// denseBackward is edgeMapDense in backward direction: every destination
// whose Cond holds pulls from in-edges with active sources. Each
// destination is written by exactly one worker, so plain updates suffice,
// and the scan exits as soon as Cond(v) turns false.
func (e *Engine) denseBackward(f *frontier.Frontier, op api.EdgeOp) *frontier.Frontier {
	g := e.g
	cond := op.CondOf()
	cur := f.Bitmap()
	next := frontier.NewBitmap(g.NumVertices())
	accs := make([]api.Accum, e.pool.Threads())
	e.pool.ParallelForChunks(g.NumVertices(), sched.DefaultChunk, func(w, lo, hi int) {
		a := &accs[w]
		for vi := lo; vi < hi; vi++ {
			v := graph.VID(vi)
			if !cond(v) {
				continue
			}
			added := false
			for _, u := range g.InNeighbors(v) {
				if !cur.Get(u) {
					continue
				}
				if op.Update(u, v) {
					if !added {
						next.Set(v)
						a.Count++
						a.OutDeg += g.OutDegree(v)
						added = true
					}
					if !cond(v) {
						break
					}
				}
			}
		}
	})
	return api.NextFrontier(g.NumVertices(), next, accs)
}
