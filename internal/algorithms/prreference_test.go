package algorithms

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/frontier"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/ligra"
	"repro/internal/polymer"
)

// referencePR is PR as it was written before its vertex work became one
// parallel pass: F64s ranks and contributions, a serial O(V) loop that
// sums the dangling mass and freezes the contributions before each
// EdgeMap, and a serial Fill of the accumulator. PR must equal it bit
// for bit.
func referencePR(sys api.System, iters int) PRResult {
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

// referencePRDelta is PRDelta as it was written before its vertex work
// became one parallel pass: contributions frozen by a serial loop over
// the frontier's list, and a serial Fill of the accumulator. PRDelta
// must equal it bit for bit.
func referencePRDelta(sys api.System, maxIters int) PRDeltaResult {
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

// sameBits reports the first index where a and b differ bit for bit.
func sameBits(a, b []float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("length %d, want %d", len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return fmt.Errorf("element %d = %v, want %v", i, a[i], b[i])
		}
	}
	return nil
}

// TestPRReferenceBitIdentical holds PR and PRDelta to their reference
// bodies above, bit for bit, on the in-memory engine, a resident and a
// tight-budget streaming out-of-core engine, an out-of-core engine over
// a store with an uncompacted ApplyBatch pending, Ligra and Polymer,
// over a small social graph, an RMAT graph most of whose vertices are
// dangling and a graph with isolated vertices, at 1, 5 and 10
// iterations.
func TestPRReferenceBitIdentical(t *testing.T) {
	isolated := func() *graph.Graph {
		// Vertices 0..39 form a ring with chords; 40..59 have no edge.
		var edges []graph.Edge
		for v := 0; v < 40; v++ {
			edges = append(edges, graph.Edge{Src: graph.VID(v), Dst: graph.VID((v + 1) % 40)})
			if v%3 == 0 {
				edges = append(edges, graph.Edge{Src: graph.VID(v), Dst: graph.VID((v * 7) % 40)})
			}
		}
		return graph.FromEdges(60, edges)
	}()
	graphs := map[string]*graph.Graph{
		"social":   gen.TinySocial(),
		"rmat":     gen.RMAT(10, 4, 0.57, 0.19, 0.19, 3),
		"isolated": isolated,
	}
	if g := graphs["rmat"]; len(danglingVertices(g)) < g.NumVertices()/4 {
		t.Fatalf("fixture: rmat has %d dangling vertices of %d, want a quarter at least", len(danglingVertices(g)), g.NumVertices())
	}
	for gname, g := range graphs {
		engines := map[string]api.System{
			"core":         core.NewEngine(g, core.Options{}),
			"ooc-resident": oocResidentEngine(t, g, true),
			"ooc-stream":   oocTightWindowEngine(t, g),
			"ooc-mutated":  oocMutatedStoreEngine(t, g, false),
			"ligra":        ligra.New(g, 0),
			"polymer":      polymer.New(g, polymer.Polymer(), 0),
		}
		for ename, sys := range engines {
			for _, iters := range []int{1, 5, 10} {
				label := fmt.Sprintf("%s/%s/%d", gname, ename, iters)
				got, want := PR(sys, iters), referencePR(sys, iters)
				if err := sameBits(got.Ranks, want.Ranks); err != nil || got.Iters != want.Iters {
					t.Fatalf("%s: PR ranks: %v (iters %d, want %d)", label, err, got.Iters, want.Iters)
				}
				gotD, wantD := PRDelta(sys, iters), referencePRDelta(sys, iters)
				if err := sameBits(gotD.Ranks, wantD.Ranks); err != nil {
					t.Fatalf("%s: PRDelta ranks: %v", label, err)
				}
				if gotD.Iters != wantD.Iters || fmt.Sprint(gotD.ActiveCounts) != fmt.Sprint(wantD.ActiveCounts) {
					t.Fatalf("%s: PRDelta ran %d rounds with active counts %v, want %d and %v",
						label, gotD.Iters, gotD.ActiveCounts, wantD.Iters, wantD.ActiveCounts)
				}
			}
		}
	}
}
