package locality

import (
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/hilbert"
)

// bruteReuse computes reuse distances by scanning backwards — the oracle
// for the Fenwick-tree analyzer.
func bruteReuse(trace []uint64) []int64 {
	out := make([]int64, len(trace))
	for i, a := range trace {
		out[i] = -1
		seen := map[uint64]bool{}
		for j := i - 1; j >= 0; j-- {
			if trace[j] == a {
				out[i] = int64(len(seen))
				break
			}
			seen[trace[j]] = true
		}
	}
	return out
}

func TestReuseAnalyzerMatchesBruteForce(t *testing.T) {
	trace := []uint64{1, 2, 3, 1, 2, 2, 4, 3, 1}
	want := bruteReuse(trace)
	ra := NewReuseAnalyzer(4) // deliberately small to exercise grow()
	for i, a := range trace {
		if got := ra.Access(a); got != want[i] {
			t.Fatalf("access %d (addr %d): distance %d, want %d", i, a, got, want[i])
		}
	}
	if ra.ColdAccesses() != 4 {
		t.Fatalf("cold accesses = %d, want 4", ra.ColdAccesses())
	}
}

// Property: the analyzer agrees with the brute-force oracle on random
// traces (small alphabet to force reuse).
func TestReuseAnalyzerProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		trace := make([]uint64, len(raw))
		for i, r := range raw {
			trace[i] = uint64(r % 16)
		}
		want := bruteReuse(trace)
		ra := NewReuseAnalyzer(2)
		for i, a := range trace {
			if ra.Access(a) != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestReuseSequentialIsZero(t *testing.T) {
	// Repeating the same address gives distance 0 after the first touch.
	ra := NewReuseAnalyzer(8)
	ra.Access(42)
	for i := 0; i < 10; i++ {
		if d := ra.Access(42); d != 0 {
			t.Fatalf("distance %d, want 0", d)
		}
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	h.Add(0)
	h.Add(1)
	h.Add(2)
	h.Add(3)
	h.Add(1000)
	if h.Buckets[0] != 2 { // 0 and 1
		t.Fatalf("bucket0 = %d", h.Buckets[0])
	}
	if h.Buckets[1] != 2 { // 2 and 3
		t.Fatalf("bucket1 = %d", h.Buckets[1])
	}
	if h.Buckets[9] != 1 { // 512..1023
		t.Fatalf("bucket9 = %d", h.Buckets[9])
	}
	if h.MaxObserved() != 1000 || h.Total() != 5 {
		t.Fatal("histogram summary wrong")
	}
}

func TestCacheDirectoryBehaviour(t *testing.T) {
	c := NewCache(CacheConfig{SizeBytes: 1024, LineBytes: 64, Assoc: 2})
	// First touch misses, second hits.
	if c.Access(0) {
		t.Fatal("cold access hit")
	}
	if !c.Access(0) {
		t.Fatal("warm access missed")
	}
	// Same line (within 64 bytes) hits.
	if !c.Access(63) {
		t.Fatal("same-line access missed")
	}
	// Different line misses.
	if c.Access(64) {
		t.Fatal("new line hit")
	}
	if c.Misses() != 2 || c.Accesses() != 4 {
		t.Fatalf("counters: %d misses / %d accesses", c.Misses(), c.Accesses())
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2-way set: third distinct tag in one set evicts the LRU.
	c := NewCache(CacheConfig{SizeBytes: 2 * 64 * 4, LineBytes: 64, Assoc: 2}) // 4 sets
	setStride := uint64(4 * 64)                                                // same set every stride
	c.Access(0 * setStride)
	c.Access(1 * setStride)
	c.Access(0 * setStride) // 0 becomes MRU
	c.Access(2 * setStride) // evicts 1
	if !c.Access(0 * setStride) {
		t.Fatal("MRU line was evicted")
	}
	if c.Access(1 * setStride) {
		t.Fatal("LRU line survived")
	}
}

func TestCacheWorkingSetThreshold(t *testing.T) {
	// A working set that fits must hit 100% after the cold warmup pass;
	// double the cache size must thrash under a cyclic scan.
	cfg := CacheConfig{SizeBytes: 1 << 14, LineBytes: 64, Assoc: 16}
	lines := cfg.SizeBytes / cfg.LineBytes
	fit := NewCache(cfg)
	for i := 0; i < lines/2; i++ {
		fit.Access(uint64(i * 64)) // warmup: all cold misses
	}
	warm := fit.Misses()
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < lines/2; i++ {
			fit.Access(uint64(i * 64))
		}
	}
	if fit.Misses() != warm {
		t.Fatalf("fitting working set missed after warmup: %d → %d", warm, fit.Misses())
	}
	thrash := NewCache(cfg)
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < lines*2; i++ {
			thrash.Access(uint64(i * 64))
		}
	}
	if r := thrash.MissRate(); r < 0.9 {
		t.Fatalf("cyclic over-capacity scan hit unexpectedly: miss %.0f%%", r*100)
	}
}

func TestCacheReset(t *testing.T) {
	c := NewCache(CacheConfig{SizeBytes: 512 << 10, LineBytes: 64, Assoc: 16})
	c.Access(0)
	c.Reset()
	if c.Accesses() != 0 || c.Misses() != 0 {
		t.Fatal("reset failed")
	}
	if c.Access(0) {
		t.Fatal("content survived reset")
	}
}

func TestCacheBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCache(CacheConfig{SizeBytes: 1024, LineBytes: 48, Assoc: 2})
}

func TestReplayNextFrontierCountsEdges(t *testing.T) {
	g := gen.TinySocial()
	var n int64
	ReplayNextFrontierCOO(g, 8, ConsumerFunc(func(uint64) { n++ }))
	if n != g.NumEdges() {
		t.Fatalf("replayed %d accesses, want %d", n, g.NumEdges())
	}
}

// The central claim of Figure 2: partitioning contracts reuse distances.
func TestPartitioningContractsReuseDistances(t *testing.T) {
	g := gen.TinySocial()
	curves := ReuseCurve(g, []int{1, 16, 64})
	h1, h16, h64 := curves[1], curves[16], curves[64]
	if h16.MaxObserved() >= h1.MaxObserved() {
		t.Fatalf("P=16 max distance %d not below P=1 %d",
			h16.MaxObserved(), h1.MaxObserved())
	}
	if h64.Mean() >= h1.Mean() {
		t.Fatalf("P=64 mean %v not below P=1 %v", h64.Mean(), h1.Mean())
	}
}

// §II.C: partitioning-by-source does not change the forward traversal's
// edge-visit order, so its next-array reuse distances are identical at
// every partition count (this is why the paper only partitions by
// destination).
func TestBySourcePartitioningDoesNotChangeOrder(t *testing.T) {
	g := gen.TinySocial()
	collect := func(p int) []uint64 {
		var trace []uint64
		ReplayNextFrontierBySource(g, p, ConsumerFunc(func(a uint64) { trace = append(trace, a) }))
		return trace
	}
	base := collect(1)
	for _, p := range []int{4, 16, 64} {
		got := collect(p)
		if len(got) != len(base) {
			t.Fatalf("P=%d: trace length %d vs %d", p, len(got), len(base))
		}
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("P=%d: access %d differs — by-source order should be invariant", p, i)
			}
		}
	}
	// Sanity contrast: by-destination DOES change the order for P>1.
	var a, b []uint64
	ReplayNextFrontierCOO(g, 1, ConsumerFunc(func(x uint64) { a = append(a, x) }))
	ReplayNextFrontierCOO(g, 16, ConsumerFunc(func(x uint64) { b = append(b, x) }))
	same := len(a) == len(b)
	if same {
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("by-destination partitioning unexpectedly left the order unchanged")
	}
}

// The central claim of Figure 8: partitioning reduces the COO
// traversal's MPKI (the minimum over the sweep is well below the P=4
// value) while backward-CSC MPKI stays flat in P. At laptop scale the
// COO curve turns back up at very high P (the per-partition source scan
// re-fetches current lines once per partition), so the assertion is on
// the sweep minimum, not the last point.
func TestMPKITrends(t *testing.T) {
	g := gen.Preset("livejournal-sm")
	cfg := AdaptiveLLC(g.NumVertices())
	ps := []int{4, 24, 48, 96, 192}

	coo := MeasureMPKI(g, KindCOOForward, 1, ps, cfg)
	min := coo[0].MPKI
	for _, r := range coo {
		if r.MPKI < min {
			min = r.MPKI
		}
	}
	if !(min < coo[0].MPKI*0.75) {
		t.Fatalf("COO MPKI did not fall: P=4 %v, sweep min %v", coo[0].MPKI, min)
	}
	csc := MeasureMPKI(g, KindCSCBackward, 1, []int{4, 192}, cfg)
	ratio := csc[1].MPKI / csc[0].MPKI
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("CSC MPKI should be flat in P, got ratio %v", ratio)
	}
}

func TestReplayEdgeTraversalAccessCounts(t *testing.T) {
	g := gen.TinySocial()
	var n int64
	total := ReplayEdgeTraversal(g, 4, KindCOOForward, 1,
		hilbert.BySource, ConsumerFunc(func(uint64) { n++ }))
	if n != total {
		t.Fatalf("returned %d but emitted %d", total, n)
	}
	// 5 accesses per edge in the full-COO model.
	if total != 5*g.NumEdges() {
		t.Fatalf("accesses = %d, want %d", total, 5*g.NumEdges())
	}
}

func TestReplayActiveSubset(t *testing.T) {
	g := gen.TinySocial()
	var all, some int64
	ReplayEdgeTraversal(g, 4, KindCOOActive, 1, hilbert.BySource, ConsumerFunc(func(uint64) { all++ }))
	ReplayEdgeTraversal(g, 4, KindCOOActive, 4, hilbert.BySource, ConsumerFunc(func(uint64) { some++ }))
	if some >= all {
		t.Fatalf("active subset replay (%d) should emit fewer accesses than full (%d)", some, all)
	}
}

// §II.C's second claim: partitioning-by-destination leaves the *backward
// CSC* traversal's access order unchanged — partition ranges are
// contiguous ascending vertex ranges, so concatenating them reproduces
// the whole-graph scan exactly. This is why GG-v2 keeps one unpartitioned
// CSC and only partitions the computation ranges.
func TestByDestinationDoesNotChangeCSCOrder(t *testing.T) {
	g := gen.TinySocial()
	collect := func(p int) []uint64 {
		var tr []uint64
		ReplayEdgeTraversal(g, p, KindCSCBackward, 1, hilbert.BySource,
			ConsumerFunc(func(a uint64) { tr = append(tr, a) }))
		return tr
	}
	base := collect(1)
	for _, p := range []int{4, 48} {
		got := collect(p)
		if len(got) != len(base) {
			t.Fatalf("P=%d: trace length %d vs %d", p, len(got), len(base))
		}
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("P=%d: CSC access %d differs — order should be invariant", p, i)
			}
		}
	}
}
