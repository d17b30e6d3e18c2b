// Package polymer implements the two NUMA-partitioned baselines of the
// paper's Figure 9: Polymer (Zhang, Chen & Chen, PPoPP'15) and
// GraphGrind-v1 (Sun et al., ICS'17). Both partition the graph into as
// many pieces as there are NUMA domains (4 on the paper's machine) and
// keep only CSR/CSC layouts; they differ in the balancing criterion and
// in whether zero-degree vertices are pruned from the partitioned CSR.
//
// Like Ligra, both use a two-way sparse/dense switch and a
// programmer-supplied dense direction. Unlike Ligra, the sparse and
// dense-forward paths run over the *partitioned* CSR, so every active
// vertex is touched once per partition it is replicated in — the work
// increase of §II.F that GraphGrind-v2's unpartitioned sparse path
// avoids.
package polymer

import (
	"repro/internal/api"
	"repro/internal/frontier"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/sched"
)

// Config selects between the Polymer and GraphGrind-v1 variants.
type Config struct {
	// SystemName labels experiment output.
	SystemName string
	// Partitions; 0 means one per modelled NUMA domain.
	Partitions int
	// Criterion: Polymer balances vertices, GG-v1 balances edges (its
	// contribution was load balance of graph partitioning).
	Criterion partition.Criterion
	// Topology models the NUMA domains.
	Topology sched.Topology
}

// Polymer returns the configuration of the Polymer baseline.
func Polymer() Config {
	return Config{SystemName: "Polymer", Criterion: partition.BalanceVertices}
}

// GGv1 returns the configuration of the GraphGrind-v1 baseline.
func GGv1() Config {
	return Config{SystemName: "GG-v1", Criterion: partition.BalanceEdges}
}

// Engine is a NUMA-partitioned CSR/CSC system.
type Engine struct {
	g         *graph.Graph
	cfg       Config
	pool      *sched.Pool
	pt        *partition.Partitioning
	pcsr      *partition.PCSR
	sparseDiv int64
}

var _ api.System = (*Engine)(nil)

// New builds the baseline engine on g with the given parallelism.
func New(g *graph.Graph, cfg Config, threads int) *Engine {
	if cfg.Topology.Domains <= 0 {
		cfg.Topology = sched.DefaultTopology()
	}
	if cfg.Partitions <= 0 {
		cfg.Partitions = cfg.Topology.Domains
	}
	e := &Engine{
		g:         g,
		cfg:       cfg,
		pool:      sched.NewPool(threads),
		pt:        partition.ByDestination(g, cfg.Partitions, cfg.Criterion),
		sparseDiv: 20,
	}
	e.pcsr = partition.NewPCSR(g, e.pt)
	return e
}

// Name implements api.System.
func (e *Engine) Name() string { return e.cfg.SystemName }

// Graph implements api.System.
func (e *Engine) Graph() *graph.Graph { return e.g }

// Threads implements api.System.
func (e *Engine) Threads() int { return e.pool.Threads() }

// Partitioning exposes the engine's partitioning for experiments.
func (e *Engine) Partitioning() *partition.Partitioning { return e.pt }

// VertexMap implements api.System.
func (e *Engine) VertexMap(f *frontier.Frontier, fn func(graph.VID)) {
	api.VertexMap(e.pool, f, fn)
}

// VertexFilter implements api.System.
func (e *Engine) VertexFilter(f *frontier.Frontier, pred func(graph.VID) bool) *frontier.Frontier {
	return api.VertexFilter(e.pool, e.g, f, pred)
}

// EdgeMap dispatches on the two-way density test with a programmer-
// supplied dense direction, over the partitioned layouts.
func (e *Engine) EdgeMap(f *frontier.Frontier, op api.EdgeOp, dir api.Direction) *frontier.Frontier {
	if f.Count() == 0 {
		return frontier.New(e.g.NumVertices())
	}
	work := f.Count() + f.OutDegree(e.g)
	if work <= e.g.NumEdges()/e.sparseDiv {
		return e.sparsePartitioned(f, op)
	}
	if dir == api.DirBackward {
		return e.denseBackward(f, op)
	}
	return e.denseForwardPCSR(f, op)
}

// sparsePartitioned applies a sparse frontier against the partitioned
// CSR: each partition task scans the whole active list and applies the
// slice of each vertex's out-edges that lands in its range. Because one
// worker owns each destination range, no atomics are needed, but the
// active list is scanned once per partition — the control overhead
// GraphGrind-v2 removes by keeping an unpartitioned CSR for this case.
func (e *Engine) sparsePartitioned(f *frontier.Frontier, op api.EdgeOp) *frontier.Frontier {
	g := e.g
	cond := op.CondOf()
	active := f.List()
	next := frontier.NewBitmap(g.NumVertices())
	accs := make([]api.Accum, e.pool.Threads())
	e.pool.ParallelTasks(e.pt.P, func(task, worker int) {
		lo, hi := e.pt.Range(task)
		if lo == hi {
			return
		}
		a := &accs[worker]
		for _, u := range active {
			ns := g.OutNeighbors(u)
			// Narrow to the neighbours inside this partition's range
			// (neighbour lists are sorted by destination).
			start := lowerBound(ns, lo)
			for _, v := range ns[start:] {
				if v >= hi {
					break
				}
				if cond(v) && op.Update(u, v) && !next.Get(v) {
					next.Set(v)
					a.Count++
					a.OutDeg += g.OutDegree(v)
				}
			}
		}
	})
	return api.NextFrontier(g.NumVertices(), next, accs)
}

func lowerBound(ns []graph.VID, v graph.VID) int {
	lo, hi := 0, len(ns)
	for lo < hi {
		mid := (lo + hi) / 2
		if ns[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// denseForwardPCSR traverses the partitioned pruned CSR forward. Threads
// parallelise over the replicated sources within each partition, so
// multiple workers can update one destination: atomics are required.
func (e *Engine) denseForwardPCSR(f *frontier.Frontier, op api.EdgeOp) *frontier.Frontier {
	g := e.g
	cond := op.CondOf()
	cur := f.Bitmap()
	next := frontier.NewBitmap(g.NumVertices())
	accs := make([]api.Accum, e.pool.Threads())
	for _, part := range e.pcsr.Parts {
		verts, off, dsts := part.Verts, part.Off, part.Dst
		e.pool.ParallelForChunks(len(verts), sched.DefaultChunk, func(w, lo, hi int) {
			a := &accs[w]
			for k := lo; k < hi; k++ {
				u := verts[k]
				if !cur.Get(u) {
					continue
				}
				for _, v := range dsts[off[k]:off[k+1]] {
					if cond(v) && op.UpdateAtomic(u, v) && next.TestAndSet(v) {
						a.Count++
						a.OutDeg += g.OutDegree(v)
					}
				}
			}
		})
	}
	return api.NextFrontier(g.NumVertices(), next, accs)
}

// denseBackward traverses the whole-graph CSC over the partitioning's
// vertex ranges (one worker per partition; with only ~4 partitions this
// is the limited parallelism the paper's 384-range CSC chunking fixes).
func (e *Engine) denseBackward(f *frontier.Frontier, op api.EdgeOp) *frontier.Frontier {
	g := e.g
	cond := op.CondOf()
	cur := f.Bitmap()
	next := frontier.NewBitmap(g.NumVertices())
	accs := make([]api.Accum, e.pool.Threads())
	e.pool.ParallelTasks(e.pt.P, func(task, worker int) {
		lo, hi := e.pt.Range(task)
		a := &accs[worker]
		for v := lo; v < hi; v++ {
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
