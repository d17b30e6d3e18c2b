package shard

import (
	"math"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/api"
	"repro/internal/frontier"
	"repro/internal/gen"
	"repro/internal/graph"
)

// buildTestEngine shards g and opens an engine behind the default
// cache, which holds every test graph whole.
func buildTestEngine(t *testing.T, g *graph.Graph, p int, opts Options) *Engine {
	t.Helper()
	e, err := Build(t.TempDir(), g, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// slotEngine opens an engine over st behind a cache of its own whose
// byte budget is exactly slots of the store's largest decoded shard —
// the byte-unit spelling of "an LRU of that many shards". Tests that
// need eviction pressure build through it and assert Evictions > 0, so
// none quietly becomes an everything-resident run.
func slotEngine(t *testing.T, st *Store, g *graph.Graph, slots int, opts Options) *Engine {
	t.Helper()
	h, err := NewHost(st, g, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	// The slot size depends on the resolved options (task counts), so
	// the cache is sized off the built core, before any session exists.
	h.cache = NewSharedCache(int64(slots) * h.maxShardBytes)
	return h.NewSession()
}

// buildSlotEngine is slotEngine over a freshly written store.
func buildSlotEngine(t *testing.T, g *graph.Graph, p, slots int, opts Options) *Engine {
	t.Helper()
	return slotEngine(t, createStore(t, t.TempDir(), g, p), g, slots, opts)
}

// createStore writes g into dir with p partitions.
func createStore(t *testing.T, dir string, g *graph.Graph, p int) *Store {
	t.Helper()
	st, err := Create(dir, g, WriteOptions{Partitions: p})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// checkQuiescent is the pin-leak check every sweep exit path must pass:
// with no sweep running the engine's cache holds no pin, and its
// resident bytes (and high-water mark) are inside the budget.
func checkQuiescent(t *testing.T, e *Engine) {
	t.Helper()
	s := e.cache.Stats()
	if s.Pinned != 0 {
		t.Fatalf("no sweep in flight but %d shards are still pinned", s.Pinned)
	}
	if s.Bytes > s.Budget || s.PeakBytes > s.Budget {
		t.Fatalf("resident %d / peak %d bytes exceed the %d-byte budget", s.Bytes, s.PeakBytes, s.Budget)
	}
}

// requireEvictions fails a test whose budget turned out to hold
// everything it touched.
func requireEvictions(t *testing.T, e *Engine) {
	t.Helper()
	if s := e.cache.Stats(); s.Evictions == 0 {
		t.Fatalf("fixture broken: the %d-byte budget never forced an eviction (%+v)", s.Budget, s)
	}
}

func TestEngineConformance(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"social": gen.TinySocial(),
		"road":   gen.TinyRoad(),
		"chain":  gen.Chain(100),
		"star":   gen.Star(130),
	}
	// The multi-threaded entries are deliberate -race fodder: under CI's
	// race detector they exercise the windowed concurrent sweep (staging
	// goroutine + workers claiming tasks of up to Threads shards at
	// once), which is where an exclusivity bug would surface.
	configs := map[string]struct {
		slots int // cache budget in largest-shard units; 0 = the default cache
		opts  Options
	}{
		"default":        {0, Options{}},
		"serial-tiny":    {1, Options{Threads: 1}},
		"aggressive-lru": {2, Options{Threads: 4}},
		"pipelined-mt":   {2, Options{Threads: 8}},
		"windowed-mt":    {4, Options{Threads: 8}},
		"window-two":     {2, Options{Threads: 2}},
		"sequential":     {2, Options{Threads: 1}},
		"narrow-budget":  {4, Options{Threads: 6}},
	}
	for gname, g := range graphs {
		for cname, c := range configs {
			e := buildTestEngine(t, g, 8, c.opts)
			if c.slots > 0 {
				e = slotEngine(t, e.st, g, c.slots, c.opts)
			}
			if err := api.CheckSystem(e); err != nil {
				t.Errorf("%s/%s: %v", gname, cname, err)
			}
			checkQuiescent(t, e)
		}
	}
}

func TestEngineRejectsMismatchedGraph(t *testing.T) {
	st := createStore(t, t.TempDir(), gen.Chain(64), 4)
	if _, err := NewEngine(st, gen.Chain(32), Options{}); err == nil {
		t.Fatal("engine accepted a graph that does not match the store")
	}
}

// bfsOp is the canonical CAS parent-claiming operator used to drive the
// engine through realistic multi-round frontier evolution.
func bfsOp(parents []int32) api.EdgeOp {
	return api.EdgeOp{
		Cond: func(v graph.VID) bool { return atomic.LoadInt32(&parents[v]) < 0 },
		Update: func(u, v graph.VID) bool {
			return atomic.CompareAndSwapInt32(&parents[v], -1, int32(u))
		},
		UpdateAtomic: func(u, v graph.VID) bool {
			return atomic.CompareAndSwapInt32(&parents[v], -1, int32(u))
		},
	}
}

// TestOutOfCoreSweepLoadsOneShardAtATime is the resident-set check: with
// a one-shard cache budget, a full iterative run keeps at most one
// uncached shard in flight at any moment and never more than the
// budget's bytes resident in the cache — the defining property of
// out-of-core execution.
func TestOutOfCoreSweepLoadsOneShardAtATime(t *testing.T) {
	g := gen.TinySocial()
	e := buildSlotEngine(t, g, 12, 1, Options{})

	var inFlight, maxInFlight int64
	e.onLoadBegin = func(int) {
		if n := atomic.AddInt64(&inFlight, 1); n > atomic.LoadInt64(&maxInFlight) {
			atomic.StoreInt64(&maxInFlight, n)
		}
		if s := e.cache.Stats(); s.Bytes > s.Budget {
			t.Errorf("cache holds %d bytes during a load, budget is %d", s.Bytes, s.Budget)
		}
	}
	e.onLoadEnd = func(int) { atomic.AddInt64(&inFlight, -1) }

	// A multi-round traversal plus a dense sweep exercise both paths.
	parents := make([]int32, g.NumVertices())
	for i := range parents {
		parents[i] = -1
	}
	src := graph.VID(0)
	parents[src] = int32(src)
	f := frontier.FromVertex(g, src)
	for !f.IsEmpty() {
		f = e.EdgeMap(f, bfsOp(parents), api.DirAuto)
	}
	counts := make([]int64, g.NumVertices())
	e.EdgeMap(frontier.All(g), api.EdgeOp{
		Update:       func(u, v graph.VID) bool { counts[v]++; return true },
		UpdateAtomic: func(u, v graph.VID) bool { atomic.AddInt64(&counts[v], 1); return true },
	}, api.DirAuto)

	if got := atomic.LoadInt64(&maxInFlight); got != 1 {
		t.Fatalf("max concurrent uncached shard loads = %d, want 1", got)
	}
	checkQuiescent(t, e)
	requireEvictions(t, e)
	if st := e.Stats(); st.ShardLoads == 0 {
		t.Fatal("no shard loads recorded; the hooks observed nothing")
	}
}

// TestAscendingDensePageRankMatchesClosedForm pins the load and hit
// counts of the ascending sweep to their closed form on a clean cyclic
// workload: P equal shards, S dense sweeps. Under a budget of C < P
// shards every sweep evicts each shard just before the next sweep
// reaches it, so the cache serves no hit at all and every sweep loads
// all P (the LRU's cyclic-reference pathology); under a budget that
// holds the store, each shard is loaded once and every later visit
// hits. The counts are exact with one worker, where pins are released
// in fetch order.
func TestAscendingDensePageRankMatchesClosedForm(t *testing.T) {
	const shards, cacheShards, sweeps = 10, 3, 10
	// A circulant graph — every vertex takes in-edges from its 8
	// successors — over shards*64 vertices, so every shard decodes to
	// exactly the same bytes and a budget of C largest shards holds
	// exactly C of them.
	const n = shards * 64
	var edges []graph.Edge
	for v := 0; v < n; v++ {
		for d := 1; d <= 8; d++ {
			edges = append(edges, graph.Edge{Src: graph.VID((v + d) % n), Dst: graph.VID(v)})
		}
	}
	g := graph.FromEdges(n, edges)
	st := createStore(t, t.TempDir(), g, shards)
	want := serialPR(g, sweeps)
	for _, tc := range []struct {
		name        string
		slots       int
		loads, hits int64
	}{
		{"budget-below-store", cacheShards, sweeps * shards, 0},
		{"budget-holds-store", shards, shards, (sweeps - 1) * shards},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := slotEngine(t, st, g, tc.slots, Options{Threads: 1})
			if m := len(e.planDense(frontier.All(g))); m != shards {
				t.Fatalf("fixture broken: dense plan has %d of %d shards", m, shards)
			}
			got := prOnSystem(e, sweeps)
			for v := range want {
				if math.Abs(got[v]-want[v]) > 1e-12 {
					t.Fatalf("rank[%d] = %v, want %v", v, got[v], want[v])
				}
			}
			s := e.Stats()
			if s.DenseSweeps != sweeps || s.ShardLoads != tc.loads || s.CacheHits != tc.hits {
				t.Fatalf("%d dense sweeps, %d loads, %d hits; closed form wants %d, %d, %d",
					s.DenseSweeps, s.ShardLoads, s.CacheHits, sweeps, tc.loads, tc.hits)
			}
			checkQuiescent(t, e)
		})
	}
}

// TestOutOfCoreSparseSweepSkipsInactiveShards is the frontier-awareness
// property: on random graphs with random sparse frontiers, a shard none
// of whose edges originate from an active vertex is never loaded, and
// every shard that does hold an active edge is loaded (the plan is
// exact, not just sound).
func TestOutOfCoreSparseSweepSkipsInactiveShards(t *testing.T) {
	f := func(raw []uint16, nBits uint8, pick uint16) bool {
		n := 1 << (6 + nBits%3) // 64..256 vertices, so several 64-aligned ranges
		edges := make([]graph.Edge, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			edges = append(edges, graph.Edge{
				Src: graph.VID(int(raw[i]) % n),
				Dst: graph.VID(int(raw[i+1]) % n),
			})
		}
		g := graph.FromEdges(n, edges)
		if g.NumEdges() == 0 {
			return true
		}
		e := buildTestEngine(t, g, 4, Options{})
		active := graph.VID(int(pick) % n)
		fr := frontier.FromVertex(g, active)
		if fr.Count()+fr.OutDegree(g) > g.NumEdges()/sparseDiv {
			return true // not a sparse frontier; the property targets the sparse path
		}

		loaded := map[int]bool{}
		e.onLoadBegin = func(i int) { loaded[i] = true }
		e.EdgeMap(fr, api.EdgeOp{
			Update:       func(u, v graph.VID) bool { return true },
			UpdateAtomic: func(u, v graph.VID) bool { return true },
		}, api.DirAuto)

		wantLoaded := map[int]bool{}
		for _, ed := range g.Edges() {
			if ed.Src == active {
				wantLoaded[e.st.Home(ed.Dst)] = true
			}
		}
		if len(loaded) != len(wantLoaded) {
			return false
		}
		for i := range wantLoaded {
			if !loaded[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestOutOfCoreDenseSweepSkipsUnfedShards: even on dense frontiers, a
// shard whose source-range summary intersects no active range (here:
// shards with no edges at all) is skipped.
func TestOutOfCoreDenseSweepSkipsUnfedShards(t *testing.T) {
	// All edges target the low quarter of the ID space, so high-range
	// shards are empty and must never be touched.
	n := 512
	var edges []graph.Edge
	for v := 1; v < n/4; v++ {
		edges = append(edges, graph.Edge{Src: graph.VID(v - 1), Dst: graph.VID(v)})
		edges = append(edges, graph.Edge{Src: graph.VID(v), Dst: graph.VID(v - 1)})
	}
	g := graph.FromEdges(n, edges)
	e := buildTestEngine(t, g, 8, Options{})
	loaded := map[int]bool{}
	e.onLoadBegin = func(i int) { loaded[i] = true }

	e.EdgeMap(frontier.All(g), api.EdgeOp{
		Update:       func(u, v graph.VID) bool { return true },
		UpdateAtomic: func(u, v graph.VID) bool { return true },
	}, api.DirAuto)

	for i := range loaded {
		lo, hi := e.st.Range(i)
		var hasEdges bool
		for _, ed := range g.Edges() {
			if ed.Dst >= lo && ed.Dst < hi {
				hasEdges = true
				break
			}
		}
		if !hasEdges {
			t.Fatalf("dense sweep loaded edgeless shard %d [%d,%d)", i, lo, hi)
		}
	}
	if st := e.Stats(); st.ShardsSkipped == 0 {
		t.Fatal("dense sweep skipped nothing on a graph with empty shards")
	}
}

// TestEngineDeterministic mirrors internal/core/determinism_test.go: the
// frontier sequence of a CAS traversal is identical run to run under
// full parallelism, because destination sub-ranges are 64-aligned and
// partition-exclusive.
func TestEngineDeterministic(t *testing.T) {
	g := gen.TinySocial()
	run := func() []int64 {
		e := buildSlotEngine(t, g, 10, 3, Options{})
		parents := make([]int32, g.NumVertices())
		for i := range parents {
			parents[i] = -1
		}
		src := graph.VID(0)
		parents[src] = int32(src)
		var sizes []int64
		f := frontier.FromVertex(g, src)
		for !f.IsEmpty() {
			f = e.EdgeMap(f, bfsOp(parents), api.DirAuto)
			sizes = append(sizes, f.Count())
		}
		requireEvictions(t, e)
		return sizes
	}
	want := run()
	for i := 0; i < 10; i++ {
		got := run()
		if len(got) != len(want) {
			t.Fatalf("run %d: %d rounds vs %d", i, len(got), len(want))
		}
		for r := range want {
			if got[r] != want[r] {
				t.Fatalf("run %d round %d: frontier %d vs %d", i, r, got[r], want[r])
			}
		}
	}
}

// TestEngineCacheAvoidsRereads: with a cache budget covering the whole
// store, an iterative all-dense workload reads each shard file exactly
// once; every later sweep is served from the LRU.
func TestEngineCacheAvoidsRereads(t *testing.T) {
	g := gen.TinySocial()
	const p = 6
	e := buildTestEngine(t, g, p, Options{})
	op := api.EdgeOp{
		Update:       func(u, v graph.VID) bool { return true },
		UpdateAtomic: func(u, v graph.VID) bool { return true },
	}
	const sweeps = 5
	for i := 0; i < sweeps; i++ {
		e.EdgeMap(frontier.All(g), op, api.DirAuto)
	}
	st := e.Stats()
	if st.ShardLoads > int64(p) {
		t.Fatalf("%d disk loads across %d sweeps, want at most %d (one per shard)", st.ShardLoads, sweeps, p)
	}
	if st.CacheHits < st.ShardLoads*(sweeps-1) {
		t.Fatalf("only %d cache hits across %d sweeps of %d loads", st.CacheHits, sweeps, st.ShardLoads)
	}
}

// TestEnginePageRankMatchesSerial replaces the retired bespoke
// shard.PageRank check: the generic algorithm layer, run on the
// out-of-core engine, matches the serial oracle bit for bit at the same
// tolerance the old hard-coded sweep achieved.
func TestEnginePageRankMatchesSerial(t *testing.T) {
	g := gen.Preset("yahoo-sm")
	e := buildTestEngine(t, g, 24, Options{})
	got := prOnSystem(e, 10)
	want := serialPR(g, 10)
	for v := range want {
		if math.Abs(got[v]-want[v]) > 1e-12 {
			t.Fatalf("rank[%d] = %v, want %v", v, got[v], want[v])
		}
	}
}

// prOnSystem runs the standard power-method PageRank through the
// api.System interface (a local copy of algorithms.PR's loop, kept here
// to avoid an import cycle: algorithms' tests already run the full
// algorithm suite against this engine).
func prOnSystem(sys api.System, iters int) []float64 {
	g := sys.Graph()
	n := g.NumVertices()
	ranks := make([]float64, n)
	contrib := make([]float64, n)
	acc := make([]float64, n)
	for i := range ranks {
		ranks[i] = 1 / float64(n)
	}
	const damping = 0.85
	op := api.EdgeOp{
		Update: func(u, v graph.VID) bool { acc[v] += contrib[u]; return true },
		UpdateAtomic: func(u, v graph.VID) bool {
			// The engine is partition-exclusive and must never take the
			// atomic path; reaching here is a contract violation.
			panic("shard engine called UpdateAtomic")
		},
	}
	all := frontier.All(g)
	for it := 0; it < iters; it++ {
		var dangling float64
		for v := 0; v < n; v++ {
			if d := g.OutDegree(graph.VID(v)); d == 0 {
				dangling += ranks[v]
				contrib[v] = 0
			} else {
				contrib[v] = ranks[v] / float64(d)
			}
			acc[v] = 0
		}
		sys.EdgeMap(all, op, api.DirBackward)
		base := (1-damping)/float64(n) + damping*dangling/float64(n)
		for v := 0; v < n; v++ {
			ranks[v] = base + damping*acc[v]
		}
	}
	return ranks
}

// serialPR is the oracle (same formulation as algorithms.SerialPR).
func serialPR(g *graph.Graph, iters int) []float64 {
	n := g.NumVertices()
	ranks := make([]float64, n)
	for i := range ranks {
		ranks[i] = 1 / float64(n)
	}
	const damping = 0.85
	for it := 0; it < iters; it++ {
		acc := make([]float64, n)
		var dangling float64
		for u := 0; u < n; u++ {
			d := g.OutDegree(graph.VID(u))
			if d == 0 {
				dangling += ranks[u]
				continue
			}
			c := ranks[u] / float64(d)
			for _, v := range g.OutNeighbors(graph.VID(u)) {
				acc[v] += c
			}
		}
		base := (1-damping)/float64(n) + damping*dangling/float64(n)
		for v := 0; v < n; v++ {
			ranks[v] = base + damping*acc[v]
		}
	}
	return ranks
}
