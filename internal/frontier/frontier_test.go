package frontier

import (
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
)

func TestBitmapBasics(t *testing.T) {
	b := NewBitmap(130)
	if b.Count() != 0 {
		t.Fatal("fresh bitmap not empty")
	}
	b.Set(0)
	b.Set(63)
	b.Set(64)
	b.Set(129)
	if b.Count() != 4 {
		t.Fatalf("count = %d", b.Count())
	}
	for _, v := range []graph.VID{0, 63, 64, 129} {
		if !b.Get(v) {
			t.Fatalf("bit %d not set", v)
		}
	}
	if b.Get(1) || b.Get(65) {
		t.Fatal("unexpected bit set")
	}
	b.Clear()
	if b.Count() != 0 {
		t.Fatal("clear failed")
	}
}

func TestBitmapTestAndSetClaimsOnce(t *testing.T) {
	b := NewBitmap(64)
	if !b.TestAndSet(5) {
		t.Fatal("first claim failed")
	}
	if b.TestAndSet(5) {
		t.Fatal("second claim succeeded")
	}
}

func TestBitmapTestAndSetConcurrent(t *testing.T) {
	const n = 1 << 12
	const workers = 8
	b := NewBitmap(n)
	wins := make([]int64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for v := 0; v < n; v++ {
				if b.TestAndSet(graph.VID(v)) {
					wins[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	var total int64
	for _, c := range wins {
		total += c
	}
	if total != n {
		t.Fatalf("claims = %d, want exactly %d", total, n)
	}
	if b.Count() != n {
		t.Fatalf("count = %d", b.Count())
	}
}

func TestBitmapForEachAscending(t *testing.T) {
	b := NewBitmap(200)
	want := []graph.VID{3, 64, 65, 127, 128, 199}
	for _, v := range want {
		b.Set(v)
	}
	var got []graph.VID
	b.ForEach(func(v graph.VID) { got = append(got, v) })
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// Property: CountRange agrees with a brute-force count for random sets
// and ranges.
func TestCountRangeProperty(t *testing.T) {
	f := func(vs []uint16, lo16, hi16 uint16) bool {
		const n = 1 << 10
		b := NewBitmap(n)
		for _, v := range vs {
			b.Set(graph.VID(v % n))
		}
		lo, hi := graph.VID(lo16%n), graph.VID(hi16%n)
		if lo > hi {
			lo, hi = hi, lo
		}
		var want int64
		for v := lo; v < hi; v++ {
			if b.Get(v) {
				want++
			}
		}
		return b.CountRange(lo, hi) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFrontierConversions(t *testing.T) {
	n := 100
	f := FromList(n, []graph.VID{5, 10, 99})
	if f.Count() != 3 {
		t.Fatalf("count = %d", f.Count())
	}
	bm := f.Bitmap()
	if !bm.Get(5) || !bm.Get(99) || bm.Get(0) {
		t.Fatal("bitmap conversion wrong")
	}
	f2 := FromBitmap(n, bm)
	list := f2.List()
	if len(list) != 3 || list[0] != 5 || list[2] != 99 {
		t.Fatalf("list conversion wrong: %v", list)
	}
}

func TestFrontierAll(t *testing.T) {
	g := gen.TinySocial()
	f := All(g)
	if f.Count() != int64(g.NumVertices()) {
		t.Fatalf("count = %d", f.Count())
	}
	if f.OutDegree(g) != g.NumEdges() {
		t.Fatalf("outdeg = %d, want %d", f.OutDegree(g), g.NumEdges())
	}
	// Tail bits beyond n must not be set.
	if f.Bitmap().Count() != int64(g.NumVertices()) {
		t.Fatal("tail bits leaked")
	}
}

func TestFrontierAllOddSize(t *testing.T) {
	g := gen.Chain(67) // not a multiple of 64
	f := All(g)
	if f.Count() != 67 || f.Bitmap().Count() != 67 {
		t.Fatalf("count = %d bitmapcount=%d", f.Count(), f.Bitmap().Count())
	}
}

func TestClassifyThresholds(t *testing.T) {
	g := gen.Star(1000) // centre has out-degree 999, m=999
	// All active: work = 1000 + 999 > m/2 → dense.
	if c := All(g).Classify(g, 20, 2); c != Dense {
		t.Fatalf("all-active class = %v", c)
	}
	// Single leaf active: work = 1 + 0 ≤ m/20 → sparse.
	leaf := FromVertex(g, 5)
	if c := leaf.Classify(g, 20, 2); c != Sparse {
		t.Fatalf("leaf class = %v", c)
	}
	// Centre active: work = 1 + 999 > m/2 → dense.
	centre := FromVertex(g, 0)
	if c := centre.Classify(g, 20, 2); c != Dense {
		t.Fatalf("centre class = %v", c)
	}
}

func TestClassifyMedium(t *testing.T) {
	// Build a graph where a chosen frontier lands strictly between the
	// thresholds: m = 200 edges; frontier work must be in (10, 100].
	var edges []graph.Edge
	for i := 0; i < 200; i++ {
		edges = append(edges, graph.Edge{Src: graph.VID(i % 10), Dst: graph.VID(10 + i%90)})
	}
	g := graph.FromEdges(100, edges)
	f := FromVertex(g, 0) // out-degree 20 → work 21 ∈ (10,100]
	if c := f.Classify(g, 20, 2); c != Medium {
		t.Fatalf("class = %v, want medium", c)
	}
}

func TestFrontierStats(t *testing.T) {
	g := gen.Star(10)
	f := FromList(g.NumVertices(), []graph.VID{0, 1})
	if f.OutDegree(g) != 9 { // centre 9 + leaf 0
		t.Fatalf("outdeg = %d", f.OutDegree(g))
	}
	f.SetStats(2, 9)
	if f.Count() != 2 || f.OutDegree(g) != 9 {
		t.Fatal("stats lost")
	}
}

func TestFrontierHas(t *testing.T) {
	f := FromList(50, []graph.VID{7, 9})
	if !f.Has(7) || f.Has(8) {
		t.Fatal("sparse Has wrong")
	}
	f.Bitmap()
	if !f.Has(9) || f.Has(10) {
		t.Fatal("dense Has wrong")
	}
}

// TestFrontierHasMaterialisesBitmap: Has on a list-only frontier builds
// the bitmap once, agrees with the list on every vertex, and leaves the
// list, the count and the statistics as they were.
func TestFrontierHasMaterialisesBitmap(t *testing.T) {
	const n = 300
	vs := []graph.VID{299, 3, 64, 128, 7}
	f := FromList(n, vs)
	f.SetStats(int64(len(vs)), 11)
	want := map[graph.VID]bool{}
	for _, v := range vs {
		want[v] = true
	}
	for v := graph.VID(0); v < n; v++ {
		if f.Has(v) != want[v] {
			t.Fatalf("Has(%d) = %v, want %v", v, f.Has(v), want[v])
		}
	}
	if !f.hasBits || f.bitmap.Count() != int64(len(vs)) {
		t.Fatalf("Has did not materialise the bitmap (hasBits %v)", f.hasBits)
	}
	b := f.bitmap
	f.Has(3)
	if f.bitmap != b {
		t.Fatal("a second Has rebuilt the bitmap")
	}
	if got := f.List(); len(got) != len(vs) || got[0] != 299 || f.Count() != 5 || f.outDeg != 11 {
		t.Fatalf("Has disturbed the list or statistics: list %v, count %d, outDeg %d", got, f.Count(), f.outDeg)
	}
}

func TestEmptyFrontier(t *testing.T) {
	f := New(10)
	if !f.IsEmpty() || f.Count() != 0 {
		t.Fatal("new frontier not empty")
	}
	f.ForEach(func(graph.VID) { t.Fatal("unexpected visit") })
}

func TestClassStrings(t *testing.T) {
	if Sparse.String() != "sparse" || Medium.String() != "medium" || Dense.String() != "dense" {
		t.Fatal("class strings wrong")
	}
}

// Property: frontier list↔bitmap conversion round-trips exactly for
// random vertex sets.
func TestFrontierRoundTripProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		const n = 1 << 11
		seen := map[graph.VID]bool{}
		var vs []graph.VID
		for _, r := range raw {
			v := graph.VID(r % n)
			if !seen[v] {
				seen[v] = true
				vs = append(vs, v)
			}
		}
		fr := FromList(n, vs)
		back := FromBitmap(n, fr.Bitmap()).List()
		if len(back) != len(vs) {
			return false
		}
		for _, v := range back {
			if !seen[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: CountRange sums to Count when tiling [0,n) with aligned
// blocks — the invariant engines rely on when aggregating per-partition
// statistics.
func TestCountRangeTilingProperty(t *testing.T) {
	f := func(raw []uint16, blockRaw uint8) bool {
		const n = 1 << 10
		b := NewBitmap(n)
		for _, r := range raw {
			b.Set(graph.VID(r % n))
		}
		block := 64 * (int(blockRaw%8) + 1)
		var sum int64
		for lo := 0; lo < n; lo += block {
			hi := lo + block
			if hi > n {
				hi = n
			}
			sum += b.CountRange(graph.VID(lo), graph.VID(hi))
		}
		return sum == b.Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
