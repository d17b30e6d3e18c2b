package api

import (
	"repro/internal/frontier"
	"repro/internal/graph"
	"repro/internal/sched"
)

// Shared VertexMap / VertexFilter implementations. All four engines use
// identical vertex-wise operators; only EdgeMap differs between systems,
// so the baselines and core both delegate here. EdgeMap's bookkeeping is
// shared too: the per-worker Accum and NextFrontier, and the two "COO +
// na" loops — DenseCOO, the per-edge loop the in-memory engine runs over
// its source-ordered partitions, and DenseRuns, the destination-run loop
// the out-of-core engine runs over its destination-sorted shards.

// VertexMap applies fn to every active vertex of f using the pool.
func VertexMap(pool *sched.Pool, f *frontier.Frontier, fn func(graph.VID)) {
	if f.Count() == 0 {
		return
	}
	// Dense frontiers iterate the bitmap by 64-vertex words to avoid
	// materialising a list; sparse frontiers iterate the list directly.
	list := f.List()
	pool.ParallelFor(len(list), sched.DefaultChunk, func(i int) {
		fn(list[i])
	})
}

// VertexFilter returns the sub-frontier of f satisfying pred, with |F|
// and Σ out-deg statistics filled from g.
func VertexFilter(pool *sched.Pool, g *graph.Graph, f *frontier.Frontier, pred func(graph.VID) bool) *frontier.Frontier {
	list := f.List()
	if len(list) == 0 {
		return frontier.New(g.NumVertices())
	}
	type acc struct {
		verts  []graph.VID
		outDeg int64
	}
	accs := make([]acc, pool.Threads())
	pool.ParallelRange(len(list), func(w, lo, hi int) {
		a := &accs[w]
		for i := lo; i < hi; i++ {
			v := list[i]
			if pred(v) {
				a.verts = append(a.verts, v)
				a.outDeg += g.OutDegree(v)
			}
		}
	})
	var total int
	var outDeg int64
	for i := range accs {
		total += len(accs[i].verts)
		outDeg += accs[i].outDeg
	}
	merged := make([]graph.VID, 0, total)
	for i := range accs {
		merged = append(merged, accs[i].verts...)
	}
	nf := frontier.FromList(g.NumVertices(), merged)
	nf.SetStats(int64(total), outDeg)
	return nf
}

// Accum collects one worker's next-frontier statistics: how many
// vertices it added and their summed out-degree, padded to a cache line
// so workers never share one.
type Accum struct {
	Count, OutDeg int64
	_             [6]int64
}

// NextFrontier publishes next as an n-vertex frontier carrying the
// statistics the workers' accumulators sum to.
func NextFrontier(n int, next *frontier.Bitmap, accs []Accum) *frontier.Frontier {
	var count, outDeg int64
	for i := range accs {
		count += accs[i].Count
		outDeg += accs[i].OutDeg
	}
	nf := frontier.FromBitmap(n, next)
	nf.SetStats(count, outDeg)
	return nf
}

// DenseCOO is the paper's "COO + na" edge loop over one partition's
// edges (src[i] -> dst[i]), in any order: each edge whose source is in
// cur and whose destination passes cond is applied through the
// non-atomic update, and a destination an update changes joins next.
// The in-memory engine (internal/core) runs it over partitions kept in
// source order by default (the paper's Figure 7), which have no
// destination runs to exploit; the out-of-core engine runs DenseRuns.
// The caller guarantees that no concurrent call writes any destination
// in dst, nor any next-frontier bitmap word holding one. It returns how
// many vertices joined next and their summed out-degree in g.
func DenseCOO(src, dst []graph.VID, cur *frontier.Bitmap, cond func(graph.VID) bool, update func(u, v graph.VID) bool, next *frontier.Bitmap, g *graph.Graph) (count, outDeg int64) {
	for i := range src {
		u, v := src[i], dst[i]
		if !cur.Get(u) || !cond(v) {
			continue
		}
		if update(u, v) && !next.Get(v) {
			next.Set(v)
			count++
			outDeg += g.OutDegree(v)
		}
	}
	return count, outDeg
}

// DenseRuns is the "COO + na" loop over destination runs, the paper's
// backward sweep (Algorithm 2) with each destination's in-edges applied
// together: run r is destination dst[r] with sources src[end[r-1]:end[r]]
// (src[begin:end[0]] for the first run). A run whose destination fails
// op.Cond is skipped whole. Otherwise each source in cur is applied
// through op.Update, and the run is left as soon as Cond turns false —
// the pull direction's early exit. When the frontier is full (every
// vertex in cur), op.Cond is nil and op.UpdateRun is set, the run is
// applied by one UpdateRun call instead. Since operators write
// destination state only, this is bit-identical to DenseCOO over the
// expanded runs. A destination joins next once, if any update changed
// it. The caller guarantees that no concurrent call writes any
// destination in dst, nor any next-frontier bitmap word holding one. It
// returns how many vertices joined next and their summed out-degree in
// g.
func DenseRuns(src []graph.VID, begin uint32, dst []graph.VID, end []uint32, cur *frontier.Bitmap, full bool, op EdgeOp, next *frontier.Bitmap, g *graph.Graph) (count, outDeg int64) {
	cond, update, gather := op.Cond, op.Update, op.UpdateRun
	if !full || cond != nil {
		gather = nil
	}
	for r, v := range dst {
		srcs := src[begin:end[r]]
		begin = end[r]
		changed := false
		switch {
		case gather != nil:
			changed = gather(v, srcs)
		case cond != nil && !cond(v):
			continue
		default:
			for _, u := range srcs {
				if !full && !cur.Get(u) {
					continue
				}
				if update(u, v) {
					changed = true
				}
				if cond != nil && !cond(v) {
					break
				}
			}
		}
		if changed && !next.Get(v) {
			next.Set(v)
			count++
			outDeg += g.OutDegree(v)
		}
	}
	return count, outDeg
}
