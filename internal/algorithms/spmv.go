package algorithms

import (
	"repro/internal/api"
	"repro/internal/frontier"
	"repro/internal/graph"
)

// SPMVResult holds y = Aᵀx where A's nonzeros are the graph's edges with
// the deterministic weights of graph.WeightOf (y[v] = Σ_{u→v} w(u,v)·x[u]).
type SPMVResult struct {
	Y []float64
}

// SPMV performs one sparse matrix-vector multiplication over the full
// edge set (Table II: edge-oriented, forward preference, 1 iteration).
// The input vector is x[u] = 1 + (u mod 7), a fixed pattern shared with
// the serial oracle.
func SPMV(sys api.System) SPMVResult {
	g := sys.Graph()
	n := g.NumVertices()
	y := NewF64s(n, 0)

	op := api.EdgeOp{
		Update: func(u, v graph.VID) bool {
			y.Add(v, spmvTerm(u, v))
			return true
		},
		UpdateAtomic: func(u, v graph.VID) bool {
			y.AtomicAdd(v, spmvTerm(u, v))
			return true
		},
		UpdateRun: func(v graph.VID, srcs []graph.VID) bool {
			s := y.Get(v)
			for _, u := range srcs {
				s += spmvTerm(u, v)
			}
			y.Set(v, s)
			return len(srcs) > 0
		},
	}
	sys.EdgeMap(frontier.All(g), op, api.DirForward)
	return SPMVResult{Y: y.Slice()}
}

// spmvTerm is edge (u,v)'s term of y[v]. The conversion rounds the
// product, so no platform fuses it into the sum it is added to: Update
// and UpdateRun add the same terms.
func spmvTerm(u, v graph.VID) float64 {
	return float64(float64(graph.WeightOf(u, v)) * SPMVInput(u))
}

// SPMVInput is the fixed input vector element for u.
func SPMVInput(u graph.VID) float64 { return float64(1 + u%7) }
