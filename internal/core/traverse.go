package core

import (
	"repro/internal/api"
	"repro/internal/frontier"
	"repro/internal/graph"
	"repro/internal/sched"
)

// sparseCSR is the sparse-frontier path (§III.A.1): a forward traversal
// of the *unpartitioned* CSR over only the active vertices. There is too
// little work to benefit from partition locality, so the whole-graph
// index is used. Destinations may be hit by several workers, so the
// atomic update runs and the next frontier is claimed with test-and-set.
func (e *Engine) sparseCSR(f *frontier.Frontier, op api.EdgeOp) *frontier.Frontier {
	g := e.g
	cond := op.CondOf()
	active := f.List()
	next := frontier.NewBitmap(g.NumVertices())

	type out struct {
		verts  []graph.VID
		outDeg int64
		_      [7]int64
	}
	outs := make([]out, e.pool.Threads())
	// Chunk small: sparse lists are short but degrees are skewed.
	e.pool.ParallelForChunks(len(active), 16, func(w, lo, hi int) {
		o := &outs[w]
		for i := lo; i < hi; i++ {
			u := active[i]
			for _, v := range g.OutNeighbors(u) {
				if cond(v) && op.UpdateAtomic(u, v) && next.TestAndSet(v) {
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

// backwardCSC is the medium-dense path (§III.A.3): a backward traversal
// of the *whole-graph* CSC, parallelised over the partitioning's vertex
// ranges ("partitioned computation chunk"). Partitioning-by-destination
// leaves CSC edge order unchanged, so the unpartitioned layout is used;
// each range is owned by one worker, so updates need no atomics, and a
// destination whose Cond turns false is abandoned early (direction-
// optimising early exit).
func (e *Engine) backwardCSC(f *frontier.Frontier, op api.EdgeOp) *frontier.Frontier {
	g := e.g
	cond := op.CondOf()
	cur := f.Bitmap()
	next := frontier.NewBitmap(g.NumVertices())
	accs := e.newAccums()

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
						break // destination saturated (e.g. BFS parent set)
					}
				}
			}
		}
	})
	return api.NextFrontier(g.NumVertices(), next, accs)
}

// denseCOO is the dense-frontier path (§III.A.2): traversal of the
// partitioned COO. In the paper's configuration each partition is
// processed sequentially by one worker — update sets are disjoint by
// partitioning-by-destination, so no atomics are needed ("COO + na").
// The partitions keep their edges in source order by default (Figure
// 7; Options.EdgeOrder may re-sort them), so a destination's in-edges
// are not contiguous: the loop is the per-edge api.DenseCOO in every
// order, not the out-of-core engine's run loop, and an operator's
// UpdateRun is never called here.
// With Options.ForceAtomics the partitions are instead split into edge
// chunks processed by any worker using atomic updates ("COO + a"),
// reproducing the 6.1%–23.7% atomics penalty.
func (e *Engine) denseCOO(f *frontier.Frontier, op api.EdgeOp) *frontier.Frontier {
	if e.opts.ForceAtomics {
		return e.denseCOOAtomic(f, op)
	}
	g := e.g
	cond := op.CondOf()
	cur := f.Bitmap()
	next := frontier.NewBitmap(g.NumVertices())
	accs := e.newAccums()

	e.pool.ParallelTasks(len(e.pcoo.Parts), func(task, worker int) {
		part := e.pcoo.Parts[task]
		count, outDeg := api.DenseCOO(part.Src, part.Dst, cur, cond, op.Update, next, g)
		accs[worker].Count += count
		accs[worker].OutDeg += outDeg
	})
	return api.NextFrontier(g.NumVertices(), next, accs)
}

// denseCOOAtomic is the "+a" variant: edge chunks are self-scheduled
// across workers regardless of partition ownership, so updates go through
// UpdateAtomic and next-frontier membership through test-and-set. All
// partitions are covered by a single task pool (one barrier per EdgeMap,
// like the "+na" path) so the measured difference is the atomics cost,
// not scheduling overhead.
func (e *Engine) denseCOOAtomic(f *frontier.Frontier, op api.EdgeOp) *frontier.Frontier {
	g := e.g
	cond := op.CondOf()
	cur := f.Bitmap()
	next := frontier.NewBitmap(g.NumVertices())
	accs := e.newAccums()

	chunks := e.cooChunks()
	e.pool.ParallelTasks(len(chunks), func(task, worker int) {
		c := chunks[task]
		part := e.pcoo.Parts[c.part]
		src, dst := part.Src[c.lo:c.hi], part.Dst[c.lo:c.hi]
		a := &accs[worker]
		for i := range src {
			u, v := src[i], dst[i]
			if !cur.Get(u) || !cond(v) {
				continue
			}
			if op.UpdateAtomic(u, v) && next.TestAndSet(v) {
				a.Count++
				a.OutDeg += g.OutDegree(v)
			}
		}
	})
	return api.NextFrontier(g.NumVertices(), next, accs)
}

// edgeChunk addresses a contiguous run of one COO partition's edges.
type edgeChunk struct {
	part   int
	lo, hi int
}

// cooChunks lazily splits every COO partition into ~4K-edge chunks for
// the atomics-forced traversal; computed once per engine.
func (e *Engine) cooChunks() []edgeChunk {
	e.chunksOnce.Do(func() {
		const grain = 4 * sched.DefaultChunk
		for p, part := range e.pcoo.Parts {
			n := len(part.Src)
			for lo := 0; lo < n; lo += grain {
				hi := lo + grain
				if hi > n {
					hi = n
				}
				e.chunks = append(e.chunks, edgeChunk{part: p, lo: lo, hi: hi})
			}
		}
	})
	return e.chunks
}

// denseCSR is the forced partitioned-CSR forward traversal ("CSR + a",
// Figures 5/6). The layout is partitioned by destination, but traversal
// parallelism is over the replicated source vertices inside each
// partition, so several workers can update one destination: atomics are
// unavoidable (§IV.A). The work increase with P comes from visiting each
// source once per partition it is replicated in (§II.F).
func (e *Engine) denseCSR(f *frontier.Frontier, op api.EdgeOp) *frontier.Frontier {
	g := e.g
	cond := op.CondOf()
	cur := f.Bitmap()
	next := frontier.NewBitmap(g.NumVertices())
	accs := e.newAccums()

	chunks := e.csrChunks()
	e.pool.ParallelTasks(len(chunks), func(task, worker int) {
		c := chunks[task]
		part := e.pcsr.Parts[c.part]
		a := &accs[worker]
		for k := c.lo; k < c.hi; k++ {
			u := part.Verts[k]
			if !cur.Get(u) {
				continue
			}
			for _, v := range part.Dst[part.Off[k]:part.Off[k+1]] {
				if cond(v) && op.UpdateAtomic(u, v) && next.TestAndSet(v) {
					a.Count++
					a.OutDeg += g.OutDegree(v)
				}
			}
		}
	})
	return api.NextFrontier(g.NumVertices(), next, accs)
}

// csrChunks splits each CSR partition's replicated vertex list into
// fixed-size runs; computed once per engine.
func (e *Engine) csrChunks() []edgeChunk {
	e.csrChunksOnce.Do(func() {
		for p, part := range e.pcsr.Parts {
			n := len(part.Verts)
			for lo := 0; lo < n; lo += sched.DefaultChunk {
				hi := lo + sched.DefaultChunk
				if hi > n {
					hi = n
				}
				e.csrChunksV = append(e.csrChunksV, edgeChunk{part: p, lo: lo, hi: hi})
			}
		}
	})
	return e.csrChunksV
}
