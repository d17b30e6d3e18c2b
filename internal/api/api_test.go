package api

import (
	"sync/atomic"
	"testing"

	"repro/internal/frontier"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/sched"
)

func TestCondOfDefaultsTrue(t *testing.T) {
	op := EdgeOp{}
	if !op.CondOf()(3) {
		t.Fatal("nil Cond should default to true")
	}
	op.Cond = func(v graph.VID) bool { return v == 1 }
	if op.CondOf()(2) || !op.CondOf()(1) {
		t.Fatal("explicit Cond not used")
	}
}

func TestDirectionStrings(t *testing.T) {
	if DirAuto.String() != "auto" || DirForward.String() != "forward" || DirBackward.String() != "backward" {
		t.Fatal("direction strings")
	}
}

func TestVertexMapVisitsExactlyActive(t *testing.T) {
	g := gen.TinySocial()
	pool := sched.NewPool(4)
	f := frontier.FromList(g.NumVertices(), []graph.VID{1, 5, 9})
	var count int64
	VertexMap(pool, f, func(v graph.VID) {
		if v != 1 && v != 5 && v != 9 {
			t.Errorf("unexpected vertex %d", v)
		}
		atomic.AddInt64(&count, 1)
	})
	if count != 3 {
		t.Fatalf("visited %d", count)
	}
	VertexMap(pool, frontier.New(10), func(graph.VID) { t.Error("visited empty frontier") })
}

func TestVertexFilterStats(t *testing.T) {
	g := gen.Star(10)
	pool := sched.NewPool(2)
	f := VertexFilter(pool, g, frontier.All(g), func(v graph.VID) bool { return v < 2 })
	if f.Count() != 2 {
		t.Fatalf("count = %d", f.Count())
	}
	if f.OutDegree(g) != 9 { // vertex 0 (deg 9) + vertex 1 (deg 0)
		t.Fatalf("outdeg = %d", f.OutDegree(g))
	}
	empty := VertexFilter(pool, g, frontier.All(g), func(graph.VID) bool { return false })
	if !empty.IsEmpty() {
		t.Fatal("filter-all-out not empty")
	}
}

// TestFullFrontierVertexOps: over a full frontier, VertexMap and
// VertexFilter visit every vertex exactly once — at sizes around the
// chunk and word boundaries — and walk [0, n) whatever form the
// frontier holds. A full frontier listed in descending order is
// therefore visited, and filtered, in ascending order, while the same
// list missing one vertex keeps its list order.
func TestFullFrontierVertexOps(t *testing.T) {
	descending := func(n int, skip int) []graph.VID {
		var vs []graph.VID
		for v := n - 1; v >= 0; v-- {
			if v != skip {
				vs = append(vs, graph.VID(v))
			}
		}
		return vs
	}
	for _, n := range []int{1, 63, 4095, 4096, 4097, 70001} {
		g := graph.FromEdges(n, []graph.Edge{{Src: 0, Dst: graph.VID(n - 1)}})
		for _, f := range []*frontier.Frontier{frontier.All(g), frontier.FromList(n, descending(n, -1))} {
			visits := make([]int32, n)
			VertexMap(sched.NewPool(4), f, func(v graph.VID) { atomic.AddInt32(&visits[v], 1) })
			for v, c := range visits {
				if c != 1 {
					t.Fatalf("n=%d: VertexMap visited %d %d times", n, v, c)
				}
			}
			clear(visits)
			sub := VertexFilter(sched.NewPool(4), g, f, func(v graph.VID) bool {
				atomic.AddInt32(&visits[v], 1)
				return v%2 == 0
			})
			for v, c := range visits {
				if c != 1 {
					t.Fatalf("n=%d: VertexFilter tested %d %d times", n, v, c)
				}
			}
			if want := int64((n + 1) / 2); sub.Count() != want || int64(len(sub.List())) != want {
				t.Fatalf("n=%d: VertexFilter kept %d (list %d), want %d", n, sub.Count(), len(sub.List()), want)
			}
			if want := int64(1); sub.OutDegree(g) != want {
				t.Fatalf("n=%d: VertexFilter out-degree %d, want %d", n, sub.OutDegree(g), want)
			}
		}

		// The order shows the path: one worker walks [0, n) ascending on
		// the full path and the list's own order otherwise.
		for _, missing := range []bool{false, true} {
			if missing && n == 1 {
				continue
			}
			skip := -1
			if missing {
				skip = n / 2
			}
			list := descending(n, skip)
			f := frontier.FromList(n, list)
			var order []graph.VID
			VertexMap(sched.NewPool(1), f, func(v graph.VID) { order = append(order, v) })
			kept := VertexFilter(sched.NewPool(4), g, f, func(graph.VID) bool { return true }).List()
			for i := range order {
				want := list[i]
				if !missing {
					want = graph.VID(i)
				}
				if order[i] != want || kept[i] != want {
					t.Fatalf("n=%d missing=%v: position %d visited %d and kept %d, want %d", n, missing, i, order[i], kept[i], want)
				}
			}
		}
	}
}
