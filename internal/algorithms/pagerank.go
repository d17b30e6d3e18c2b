package algorithms

import (
	"math"

	"repro/internal/api"
	"repro/internal/frontier"
	"repro/internal/graph"
)

// Damping is the PageRank damping factor used throughout (the standard
// 0.85).
const Damping = 0.85

// PRResult holds PageRank scores and the iteration count executed.
type PRResult struct {
	Ranks []float64
	Iters int
}

// PR is the simple power-method PageRank of Table II (edge-oriented,
// backward preference), run for a fixed number of iterations (the paper
// uses 10). Every iteration is dense: the full edge set participates.
//
// Dangling vertices (out-degree 0) have their mass redistributed
// uniformly, keeping Σ ranks = 1 so results are comparable with the
// serial oracle. The dangling mass is summed serially in ascending
// vertex order, over a list of the dangling vertices built once per
// call, so every iteration makes the same additions in the same order.
//
// ranks and contrib are plain arrays: no EdgeMap writes them, and the
// one parallel vertex pass that does — after each EdgeMap, writing
// ranks[v], the next iteration's contrib[v] = ranks[v]/outdeg(v) and a
// zeroed acc[v] — owns each v. A dangling vertex's contrib (r/0 = +Inf)
// is never read, since no edge leaves it, so the pass has no branch.
// Only acc, which the atomic engine paths accumulate into, is an F64s.
func PR(sys api.System, iters int) PRResult {
	g := sys.Graph()
	n := g.NumVertices()
	if n == 0 {
		return PRResult{Ranks: nil, Iters: 0}
	}
	ranks := make([]float64, n)
	contrib := make([]float64, n) // per-vertex rank[u]/outdeg[u], frozen per iteration
	acc := NewF64s(n, 0)
	dangling := danglingVertices(g)

	op := api.EdgeOp{
		Update: func(u, v graph.VID) bool {
			acc.Add(v, contrib[u])
			return true
		},
		UpdateAtomic: func(u, v graph.VID) bool {
			acc.AtomicAdd(v, contrib[u])
			return true
		},
		// The gather: the same additions in the same order, with acc[v]
		// read and written once per run.
		UpdateRun: func(v graph.VID, srcs []graph.VID) bool {
			s := acc.Get(v)
			for _, u := range srcs {
				s += contrib[u]
			}
			acc.Set(v, s)
			return len(srcs) > 0
		},
	}

	all := frontier.All(g)
	r0 := 1 / float64(n)
	sys.VertexMap(all, func(v graph.VID) {
		ranks[v] = r0
		contrib[v] = r0 / float64(g.OutDegree(v))
	})
	for it := 0; it < iters; it++ {
		var mass float64
		for _, v := range dangling {
			mass += ranks[v]
		}
		sys.EdgeMap(all, op, api.DirBackward)
		base := (1-Damping)/float64(n) + Damping*mass/float64(n)
		sys.VertexMap(all, func(v graph.VID) {
			r := base + Damping*acc.Get(v)
			ranks[v] = r
			contrib[v] = r / float64(g.OutDegree(v))
			acc.Set(v, 0)
		})
	}
	return PRResult{Ranks: ranks, Iters: iters}
}

// danglingVertices lists g's out-degree-0 vertices in ascending order.
// Every vertex is written and only a dangling one advances the end — a
// conditional move, not a branch that RMAT's mix of dangling and
// non-dangling vertices would mispredict.
func danglingVertices(g *graph.Graph) []graph.VID {
	out := make([]graph.VID, g.NumVertices())
	k := 0
	for v := range out {
		out[k] = graph.VID(v)
		if g.OutDegree(graph.VID(v)) == 0 {
			k++
		}
	}
	return out[:k]
}

// PRDeltaResult holds the converged ranks, the iteration count, and the
// per-iteration active-vertex counts (whose decay produces the paper's
// dense → medium → sparse frontier progression).
type PRDeltaResult struct {
	Ranks        []float64
	Iters        int
	ActiveCounts []int64
}

// PRDeltaEps and PRDeltaEps2 are Ligra's PageRankDelta thresholds: a
// vertex stays active while the magnitude of its rank change exceeds
// Eps2 times its rank; Eps bounds total residual for termination.
const (
	PRDeltaEps  = 1e-9
	PRDeltaEps2 = 0.01
)

// PRDelta is the delta-forwarding PageRank of Table II (edge-oriented,
// forward preference): only vertices whose rank changed materially
// propagate their delta. Early iterations are dense, later ones sparse —
// the workload the paper uses to demonstrate the three frontier classes
// (on Twitter: 8 dense, 3 medium-dense, 22 sparse).
//
// As in PR, ranks, delta and contrib are plain arrays that only the
// parallel vertex pass after each EdgeMap writes; that pass also
// freezes the next round's contrib[v] = delta[v]/outdeg(v) for every
// vertex (only the active ones are read) and zeroes acc. The active
// dangling vertices' delta mass is summed serially in the frontier's
// list order.
func PRDelta(sys api.System, maxIters int) PRDeltaResult {
	g := sys.Graph()
	n := g.NumVertices()
	if n == 0 {
		return PRDeltaResult{}
	}
	// The rank vector starts at the uniform distribution r₀ = 1/n; each
	// round adds the change delta_k = r_k − r_{k−1}, so the first delta
	// subtracts the starting mass (Ligra's PageRankDelta does the same).
	ranks := make([]float64, n)
	delta := make([]float64, n) // mass being forwarded this round
	contrib := make([]float64, n)
	acc := NewF64s(n, 0)

	op := api.EdgeOp{
		Update: func(u, v graph.VID) bool {
			acc.Add(v, contrib[u])
			return true
		},
		UpdateAtomic: func(u, v graph.VID) bool {
			acc.AtomicAdd(v, contrib[u])
			return true
		},
	}

	f := frontier.All(g)
	all := frontier.All(g)
	r0 := 1 / float64(n)
	sys.VertexMap(all, func(v graph.VID) {
		ranks[v], delta[v] = r0, r0
		contrib[v] = r0 / float64(g.OutDegree(v))
	})
	res := PRDeltaResult{}
	for it := 0; it < maxIters && !f.IsEmpty(); it++ {
		res.ActiveCounts = append(res.ActiveCounts, f.Count())
		// Active dangling vertices (out-degree 0) contribute their delta
		// uniformly, exactly as the power method redistributes dangling
		// mass — without this, star-like graphs leak rank.
		var dangling float64
		for _, u := range f.List() {
			if g.OutDegree(u) == 0 {
				dangling += delta[u]
			}
		}
		sys.EdgeMap(f, op, api.DirForward)

		// New deltas: δ_k = d·M·δ_{k−1} + d·D/n, where D is the dangling
		// delta mass; round one additionally carries the teleport term
		// r₁ − r₀ = (1−d)/n − 1/n.
		uniform := Damping * dangling / float64(n)
		if it == 0 {
			uniform += (1-Damping)/float64(n) - 1/float64(n)
		}
		sys.VertexMap(all, func(v graph.VID) {
			nd := Damping*acc.Get(v) + uniform
			ranks[v] += nd
			delta[v] = nd
			contrib[v] = nd / float64(g.OutDegree(v))
			acc.Set(v, 0)
		})
		f = sys.VertexFilter(all, func(v graph.VID) bool {
			d := math.Abs(delta[v])
			return d > PRDeltaEps2*ranks[v] && d > PRDeltaEps
		})
		res.Iters++
	}
	res.Ranks = ranks
	return res
}
