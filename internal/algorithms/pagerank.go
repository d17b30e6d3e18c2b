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
// serial oracle.
func PR(sys api.System, iters int) PRResult {
	g := sys.Graph()
	n := g.NumVertices()
	if n == 0 {
		return PRResult{Ranks: nil, Iters: 0}
	}
	ranks := NewF64s(n, 1/float64(n))
	contrib := NewF64s(n, 0) // per-vertex rank[u]/outdeg[u], frozen per iteration
	acc := NewF64s(n, 0)

	op := api.EdgeOp{
		Update: func(u, v graph.VID) bool {
			acc.Add(v, contrib.Get(u))
			return true
		},
		UpdateAtomic: func(u, v graph.VID) bool {
			acc.AtomicAdd(v, contrib.Get(u))
			return true
		},
		// The gather: the same additions in the same order, with acc[v]
		// read and written once per run.
		UpdateRun: func(v graph.VID, srcs []graph.VID) bool {
			s := acc.Get(v)
			for _, u := range srcs {
				s += contrib.Get(u)
			}
			acc.Set(v, s)
			return len(srcs) > 0
		},
	}

	all := frontier.All(g)
	for it := 0; it < iters; it++ {
		var dangling float64
		for v := 0; v < n; v++ {
			d := g.OutDegree(graph.VID(v))
			r := ranks.Get(graph.VID(v))
			if d == 0 {
				dangling += r
				contrib.Set(graph.VID(v), 0)
			} else {
				contrib.Set(graph.VID(v), r/float64(d))
			}
		}
		acc.Fill(0)
		sys.EdgeMap(all, op, api.DirBackward)
		base := (1-Damping)/float64(n) + Damping*dangling/float64(n)
		sys.VertexMap(all, func(v graph.VID) {
			ranks.Set(v, base+Damping*acc.Get(v))
		})
	}
	return PRResult{Ranks: ranks.Slice(), Iters: iters}
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
func PRDelta(sys api.System, maxIters int) PRDeltaResult {
	g := sys.Graph()
	n := g.NumVertices()
	if n == 0 {
		return PRDeltaResult{}
	}
	// The rank vector starts at the uniform distribution r₀ = 1/n; each
	// round adds the change delta_k = r_k − r_{k−1}, so the first delta
	// subtracts the starting mass (Ligra's PageRankDelta does the same).
	ranks := NewF64s(n, 1/float64(n))
	delta := NewF64s(n, 1/float64(n)) // mass being forwarded this round
	contrib := NewF64s(n, 0)
	acc := NewF64s(n, 0)

	op := api.EdgeOp{
		Update: func(u, v graph.VID) bool {
			acc.Add(v, contrib.Get(u))
			return true
		},
		UpdateAtomic: func(u, v graph.VID) bool {
			acc.AtomicAdd(v, contrib.Get(u))
			return true
		},
	}

	f := frontier.All(g)
	all := frontier.All(g)
	res := PRDeltaResult{}
	for it := 0; it < maxIters && !f.IsEmpty(); it++ {
		res.ActiveCounts = append(res.ActiveCounts, f.Count())
		// Freeze contributions of the active set, then accumulate fresh.
		// Active dangling vertices (out-degree 0) contribute their delta
		// uniformly, exactly as the power method redistributes dangling
		// mass — without this, star-like graphs leak rank.
		var dangling float64
		for _, u := range f.List() {
			if d := g.OutDegree(u); d > 0 {
				contrib.Set(u, delta.Get(u)/float64(d))
			} else {
				contrib.Set(u, 0)
				dangling += delta.Get(u)
			}
		}
		acc.Fill(0)
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
			ranks.Add(v, nd)
			delta.Set(v, nd)
		})
		f = sys.VertexFilter(all, func(v graph.VID) bool {
			d := math.Abs(delta.Get(v))
			return d > PRDeltaEps2*ranks.Get(v) && d > PRDeltaEps
		})
		res.Iters++
	}
	res.Ranks = ranks.Slice()
	return res
}
