package api

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/frontier"
	"repro/internal/graph"
)

// runsOf groups a (dst,src)-sorted edge list into destination runs: the
// distinct destinations and each run's exclusive end.
func runsOf(src, dst []graph.VID) (rdst []graph.VID, end []uint32) {
	for i := range src {
		if i+1 == len(src) || dst[i+1] != dst[i] {
			rdst = append(rdst, dst[i])
			end = append(end, uint32(i+1))
		}
	}
	return rdst, end
}

// kernelCase is one operator shape with the state it writes, built
// fresh per kernel run so both kernels start from the same state.
type kernelCase struct {
	name string
	make func(n int, r *rand.Rand) (EdgeOp, func() []uint64)
}

var kernelCases = []kernelCase{
	{"pagerank-shaped gather", func(n int, r *rand.Rand) (EdgeOp, func() []uint64) {
		contrib, acc := make([]float64, n), make([]float64, n)
		for i := range contrib {
			contrib[i] = r.Float64() / float64(1+r.Intn(50))
			acc[i] = r.Float64() * 1e-3
		}
		op := EdgeOp{
			Update: func(u, v graph.VID) bool { acc[v] += contrib[u]; return true },
			UpdateRun: func(v graph.VID, srcs []graph.VID) bool {
				s := acc[v]
				for _, u := range srcs {
					s += contrib[u]
				}
				acc[v] = s
				return len(srcs) > 0
			},
		}
		return op, func() []uint64 { return f64Bits(acc) }
	}},
	{"bfs-shaped cond flipping after one update", func(n int, r *rand.Rand) (EdgeOp, func() []uint64) {
		parent := make([]int64, n)
		for i := range parent {
			parent[i] = -1
			if r.Intn(4) == 0 {
				parent[i] = int64(i)
			}
		}
		op := EdgeOp{
			Update: func(u, v graph.VID) bool { parent[v] = int64(u); return true },
			Cond:   func(v graph.VID) bool { return parent[v] < 0 },
		}
		return op, func() []uint64 { return i64Bits(parent) }
	}},
	{"min-label updates that sometimes change nothing", func(n int, r *rand.Rand) (EdgeOp, func() []uint64) {
		label := make([]int64, n)
		for i := range label {
			label[i] = int64(r.Intn(n))
		}
		op := EdgeOp{
			Update: func(u, v graph.VID) bool {
				if label[u] < label[v] {
					label[v] = label[u]
					return true
				}
				return false
			},
		}
		return op, func() []uint64 { return i64Bits(label) }
	}},
}

func f64Bits(xs []float64) []uint64 {
	out := make([]uint64, len(xs))
	for i, x := range xs {
		out[i] = math.Float64bits(x)
	}
	return out
}

func i64Bits(xs []int64) []uint64 {
	out := make([]uint64, len(xs))
	for i, x := range xs {
		out[i] = uint64(x)
	}
	return out
}

// TestDenseRunsMatchesDenseCOO is the run kernel's property: on random
// destination-sorted edge lists, under full and partial frontiers, for
// a gathering operator, a Cond that turns false after one update and an
// operator whose updates sometimes change nothing, DenseRuns leaves the
// next bitmap, the count, the out-degree sum and the operator state bit
// for bit where DenseCOO over the expanded runs leaves them. The runs
// are applied in random task splits, each starting mid-slice, as the
// out-of-core engine's tasks do.
func TestDenseRunsMatchesDenseCOO(t *testing.T) {
	r := rand.New(rand.NewSource(39))
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(200)
		edges := make([]graph.Edge, r.Intn(1500))
		for i := range edges {
			// Skewed destinations give long runs beside single edges.
			d := graph.VID(r.Intn(n))
			if r.Intn(3) == 0 {
				d = graph.VID(r.Intn(1 + n/10))
			}
			edges[i] = graph.Edge{Src: graph.VID(r.Intn(n)), Dst: d}
		}
		slices.SortFunc(edges, func(a, b graph.Edge) int {
			if a.Dst != b.Dst {
				return int(a.Dst) - int(b.Dst)
			}
			return int(a.Src) - int(b.Src)
		})
		g := graph.FromEdges(n, edges)
		src, dst := make([]graph.VID, len(edges)), make([]graph.VID, len(edges))
		for i, e := range edges {
			src[i], dst[i] = e.Src, e.Dst
		}
		rdst, end := runsOf(src, dst)

		full := r.Intn(2) == 0
		cur := frontier.All(g).Bitmap()
		if !full {
			cur = frontier.NewBitmap(n)
			for v := 0; v < n; v++ {
				if r.Intn(3) == 0 {
					cur.Set(graph.VID(v))
				}
			}
		}
		// Random task cuts over the runs.
		cuts := []int{0}
		for c := 0; c < len(rdst); c += 1 + r.Intn(8) {
			if c > 0 {
				cuts = append(cuts, c)
			}
		}
		cuts = append(cuts, len(rdst))

		for _, kc := range kernelCases {
			seed := r.Int63()
			op, state := kc.make(n, rand.New(rand.NewSource(seed)))
			wantNext := frontier.NewBitmap(n)
			wantCount, wantOutDeg := DenseCOO(src, dst, cur, op.CondOf(), op.Update, wantNext, g)
			want := state()

			op, state = kc.make(n, rand.New(rand.NewSource(seed)))
			gotNext := frontier.NewBitmap(n)
			var gotCount, gotOutDeg int64
			for i := 0; i+1 < len(cuts); i++ {
				lo, hi := cuts[i], cuts[i+1]
				begin := uint32(0)
				if lo > 0 {
					begin = end[lo-1]
				}
				c, o := DenseRuns(src, begin, rdst[lo:hi], end[lo:hi], cur, full, op, gotNext, g)
				gotCount += c
				gotOutDeg += o
			}
			if gotCount != wantCount || gotOutDeg != wantOutDeg {
				t.Fatalf("trial %d, %s (full %v): DenseRuns count/outdeg %d/%d, DenseCOO %d/%d",
					trial, kc.name, full, gotCount, gotOutDeg, wantCount, wantOutDeg)
			}
			if !slices.Equal(gotNext.Words(), wantNext.Words()) {
				t.Fatalf("trial %d, %s (full %v): next bitmaps differ", trial, kc.name, full)
			}
			if got := state(); !slices.Equal(got, want) {
				t.Fatalf("trial %d, %s (full %v): operator state differs", trial, kc.name, full)
			}
		}
	}
}

// TestDenseRunsGatherOnlyOnFullFrontierWithoutCond pins when the kernel
// may call UpdateRun: with every vertex active and no Cond, and never
// otherwise.
func TestDenseRunsGatherOnlyOnFullFrontierWithoutCond(t *testing.T) {
	g := graph.FromEdges(3, []graph.Edge{{Src: 0, Dst: 1}, {Src: 2, Dst: 1}, {Src: 1, Dst: 2}})
	src, dst := []graph.VID{0, 2, 1}, []graph.VID{1, 1, 2}
	rdst, end := runsOf(src, dst)
	all := frontier.All(g).Bitmap()
	for _, tc := range []struct {
		name       string
		full, cond bool
		want       bool
	}{
		{"full frontier, no cond", true, false, true},
		{"partial frontier", false, false, false},
		{"full frontier with cond", true, true, false},
	} {
		gathered, updated := 0, 0
		op := EdgeOp{
			Update:    func(u, v graph.VID) bool { updated++; return true },
			UpdateRun: func(v graph.VID, srcs []graph.VID) bool { gathered++; return true },
		}
		if tc.cond {
			op.Cond = func(graph.VID) bool { return true }
		}
		DenseRuns(src, 0, rdst, end, all, tc.full, op, frontier.NewBitmap(3), g)
		if (gathered > 0) != tc.want || (updated > 0) == tc.want {
			t.Errorf("%s: %d UpdateRun and %d Update calls", tc.name, gathered, updated)
		}
	}
}
