package algorithms

import (
	"repro/internal/api"
	"repro/internal/frontier"
	"repro/internal/graph"
)

// CCResult holds per-vertex component labels: the minimum vertex ID
// reachable in the label-propagation closure. Rounds counts EdgeMap
// iterations until the frontier emptied.
type CCResult struct {
	Labels []int32
	Rounds int
}

// CC computes connected components by label propagation (Table II:
// edge-oriented, backward preference). Labels start as vertex IDs and
// the minimum label propagates along edges until no label changes.
//
// Propagation is synchronous: each round reads the previous round's
// labels and writes the next round's. This keeps the non-atomic engine
// paths free of read/write races (source labels are never written while
// an EdgeMap is in flight) at the cost of a per-round label copy — the
// trade Ligra's synchronous Components makes as well. On directed graphs
// this computes the fixpoint along edge direction; tests use symmetric
// graphs where this equals undirected components.
func CC(sys api.System) CCResult {
	g := sys.Graph()
	n := g.NumVertices()
	// The labels are built plainly before any goroutine sees them.
	labels := NewI32s(n, 0)
	for v := range labels.vals {
		labels.vals[v] = int32(v)
	}
	prev := make([]int32, n)

	op := api.EdgeOp{
		Update: func(u, v graph.VID) bool {
			return labels.Min(v, prev[u])
		},
		UpdateAtomic: func(u, v graph.VID) bool {
			return labels.AtomicMin(v, prev[u])
		},
	}

	f := frontier.All(g)
	rounds := 0
	for !f.IsEmpty() {
		sys.VertexMap(f, func(u graph.VID) { prev[u] = labels.Get(u) })
		f = sys.EdgeMap(f, op, api.DirBackward)
		rounds++
		if rounds > n+1 {
			panic("algorithms: CC failed to converge") // monotone labels must settle
		}
	}
	return CCResult{Labels: labels.Slice(), Rounds: rounds}
}

// NumComponents counts distinct labels in a CC result.
func NumComponents(labels []int32) int {
	seen := make(map[int32]struct{})
	for _, l := range labels {
		seen[l] = struct{}{}
	}
	return len(seen)
}
