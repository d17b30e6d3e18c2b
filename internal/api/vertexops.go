package api

import (
	"repro/internal/frontier"
	"repro/internal/graph"
	"repro/internal/sched"
)

// Shared VertexMap / VertexFilter implementations. All four engines use
// identical vertex-wise operators; only EdgeMap differs between systems,
// so the baselines and core both delegate here. EdgeMap's bookkeeping is
// shared too: the per-worker Accum and NextFrontier, and the "COO + na"
// loop DenseCOO that the in-memory and out-of-core dense paths both run.

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

// DenseCOO is the paper's "COO + na" edge loop over one run of
// destination-grouped edges (src[i] -> dst[i]): each edge whose source
// is in cur and whose destination passes cond is applied through the
// non-atomic update, and a destination an update changes joins next.
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
