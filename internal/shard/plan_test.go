package shard

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/api"
	"repro/internal/frontier"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/sched"
)

// TestOrderParseAndString pins the CLI spellings and the constructor's
// rejection of out-of-range policies.
func TestOrderParseAndString(t *testing.T) {
	for _, o := range Orders() {
		got, err := ParseOrder(o.String())
		if err != nil || got != o {
			t.Fatalf("ParseOrder(%q) = %v, %v; want %v", o.String(), got, err, o)
		}
	}
	if _, err := ParseOrder("hilbert-ish"); err == nil {
		t.Fatal("ParseOrder accepted an unknown policy")
	}
	st := createStore(t, t.TempDir(), gen.Chain(64), 4)
	if _, err := NewEngine(st, gen.Chain(64), Options{Order: Order(99)}); err == nil {
		t.Fatal("NewEngine accepted an invalid sweep order")
	}
}

// TestOrderPoliciesPermuteBaselinePlan is the planner's core safety
// property: whatever the frontier, the cache contents and the cache
// budget, every policy emits a permutation of the baseline plan — the
// same shard set, each shard exactly once. Randomised across sparse and
// dense plans, warm and cold caches, and budgets from one shard to the
// whole store.
func TestOrderPoliciesPermuteBaselinePlan(t *testing.T) {
	g := gen.Symmetrise(gen.PowerLaw(1<<9, 1<<12, 2.3, 5))
	n := g.NumVertices()
	st := createStore(t, t.TempDir(), g, 12)
	rng := rand.New(rand.NewSource(42))
	for _, order := range Orders() {
		for _, cacheShards := range []int{1, 3, 12, 64} {
			e := slotEngine(t, st, g, cacheShards, Options{Order: order})
			for trial := 0; trial < 40; trial++ {
				// Random warm state: fetch a few shards so the resident
				// set the planner consults varies from trial to trial.
				for i := 0; i < rng.Intn(4); i++ {
					warm(t, e, rng.Intn(st.NumShards()))
				}
				// Random frontier, from a single vertex up to ~all of them.
				var vs []graph.VID
				p := []float64{0.002, 0.05, 0.5, 1}[trial%4]
				for v := 0; v < n; v++ {
					if rng.Float64() < p {
						vs = append(vs, graph.VID(v))
					}
				}
				f := frontier.FromList(n, vs)
				var baseline []int
				if trial%2 == 0 {
					baseline = e.planSparse(f)
				} else {
					baseline = e.planDense(f)
				}
				ordered := e.orderPlan(append([]int(nil), baseline...))
				if len(ordered) != len(baseline) {
					t.Fatalf("%v cache=%d: ordered plan has %d shards, baseline %d",
						order, cacheShards, len(ordered), len(baseline))
				}
				seen := make(map[int]bool, len(ordered))
				for _, si := range ordered {
					if seen[si] {
						t.Fatalf("%v cache=%d: shard %d appears twice in %v", order, cacheShards, si, ordered)
					}
					seen[si] = true
				}
				for _, si := range baseline {
					if !seen[si] {
						t.Fatalf("%v cache=%d: shard %d dropped from plan %v -> %v",
							order, cacheShards, si, baseline, ordered)
					}
				}
			}
		}
	}
}

// warm fetches shard si through e's cache and drops the pin at once,
// leaving it resident and most recently used.
func warm(t *testing.T, e *Engine, si int) {
	t.Helper()
	st, err := e.admit(si, nil)
	if err != nil {
		t.Fatal(err)
	}
	st.release()
}

// plannerTopologies are the two machines the planner's load-count tests
// run on. On the default topology several domains apply concurrently, a
// slow apply can still pin the coldest cache entry when an eviction is
// due, and the cache evicts its neighbour instead — same bits, and the
// same hits within that sweep (every pinned entry has already been
// visited), but a different resident set for the next one. There the
// tests assert what holds under any interleaving: the prediction equals
// the hits served, and reordering loads strictly fewer shards. With one
// domain, pins are released in fetch order, the cache's victim is
// exactly the one the pin-free simulation picks, and the load counts
// are pinned exactly as well.
var plannerTopologies = []struct {
	name  string
	topo  sched.Topology
	exact bool
}{
	{"default-domains", sched.Topology{}, false},
	{"one-domain", sched.Topology{Domains: 1}, true},
}

// TestOrderZigzagDensePageRankFewerLoads is the locality regression
// gate: a 10-sweep cold-cache dense PageRank with a cache budget of
// half the store must perform strictly fewer shard loads under
// OrderZigzag (and no more under OrderResidencyFirst) than under
// OrderAscending, record ReloadsAvoided > 0, and produce bit-identical
// ranks under all three policies. Ascending's cyclic pattern gets zero
// cache hits, so any regression that loses the reordering win shows up
// as equal loads.
func TestOrderZigzagDensePageRankFewerLoads(t *testing.T) {
	// Uniform destinations: every shard holds in-edges, so the dense
	// plan is the full shard sequence and the cyclic-eviction pathology
	// is fully armed.
	g := gen.ErdosRenyi(1<<10, 1<<13, 7)
	const shards = 8
	const cacheShards = 4 // < shards: the regime where order matters
	st := createStore(t, t.TempDir(), g, shards)
	type run struct {
		order Order
		loads int64
		saved int64
		ranks []float64
	}
	for _, tc := range plannerTopologies {
		t.Run(tc.name, func(t *testing.T) {
			var runs []run
			for _, order := range Orders() {
				e := slotEngine(t, st, g, cacheShards, Options{Order: order, Topology: tc.topo})
				ranks := prOnSystem(e, 10)
				requireEvictions(t, e)
				s := e.Stats()
				if s.DenseSweeps != 10 || s.SparseSweeps != 0 {
					t.Fatalf("%v: expected 10 dense sweeps, got %d dense + %d sparse",
						order, s.DenseSweeps, s.SparseSweeps)
				}
				// The planner's prediction is an exact simulation of the sweep's
				// own fetch sequence, so it must equal the hits the cache served.
				if s.PlannedCacheHits != s.CacheHits {
					t.Fatalf("%v: planner predicted %d cache hits, engine measured %d",
						order, s.PlannedCacheHits, s.CacheHits)
				}
				runs = append(runs, run{order: order, loads: s.ShardLoads, saved: s.ReloadsAvoided, ranks: ranks})
			}
			asc, zig, res := runs[0], runs[1], runs[2]
			if perSweep := asc.loads / 10; perSweep <= cacheShards {
				t.Fatalf("fixture broken: ascending planned only %d shards/sweep against a %d-shard budget", perSweep, cacheShards)
			}
			if asc.saved != 0 {
				t.Fatalf("ascending recorded ReloadsAvoided = %d, want 0 by definition", asc.saved)
			}
			if zig.loads >= asc.loads {
				t.Fatalf("zigzag loaded %d shards, ascending %d; want strictly fewer", zig.loads, asc.loads)
			}
			if zig.saved <= 0 {
				t.Fatalf("zigzag recorded ReloadsAvoided = %d, want > 0", zig.saved)
			}
			// ReloadsAvoided is measured against the simulated ascending
			// baseline; the ascending engine's measured loads equal it only
			// where loads are deterministic.
			if tc.exact && zig.saved != asc.loads-zig.loads {
				t.Fatalf("zigzag ReloadsAvoided = %d but loads dropped by %d", zig.saved, asc.loads-zig.loads)
			}
			if res.loads >= asc.loads {
				t.Fatalf("residency-first loaded %d shards, ascending %d; want strictly fewer on the cyclic dense sweep", res.loads, asc.loads)
			}
			for _, r := range runs[1:] {
				for v := range asc.ranks {
					if r.ranks[v] != asc.ranks[v] {
						t.Fatalf("%v: rank[%d] = %v differs from ascending %v (must be bit-identical)",
							r.order, v, r.ranks[v], asc.ranks[v])
					}
				}
			}
		})
	}
}

// TestOrderPlannerEdgeCases tables the degenerate plans the policies
// must handle: empty plans, single-shard plans, budgets that hold the
// whole store (ordering must be a no-op win) and sparse plans (ordering
// still applies).
func TestOrderPlannerEdgeCases(t *testing.T) {
	g := gen.TinySocial()
	st := createStore(t, t.TempDir(), g, 8)

	t.Run("empty-plan", func(t *testing.T) {
		for _, order := range Orders() {
			e := slotEngine(t, st, g, 2, Options{Order: order})
			for i := 0; i < 3; i++ {
				if got := e.orderPlan(nil); len(got) != 0 {
					t.Fatalf("%v: ordered empty plan became %v", order, got)
				}
			}
			if s := e.Stats(); s.PlannedCacheHits != 0 || s.ReloadsAvoided != 0 {
				t.Fatalf("%v: empty plans charged stats %+v", order, s)
			}
		}
	})

	t.Run("single-shard", func(t *testing.T) {
		for _, order := range Orders() {
			e := slotEngine(t, st, g, 2, Options{Order: order})
			for i := 0; i < 4; i++ { // both zigzag parities, warm and cold
				if got := e.orderPlan([]int{3}); len(got) != 1 || got[0] != 3 {
					t.Fatalf("%v: ordered [3] became %v", order, got)
				}
			}
		}
	})

	t.Run("cache-holds-store", func(t *testing.T) {
		// The default budget holds the store: every policy pays the disk
		// exactly once per shard and ordering is a no-op win — identical
		// loads, nothing left to avoid.
		var loads []int64
		for _, order := range Orders() {
			e, err := NewEngine(st, g, Options{Order: order})
			if err != nil {
				t.Fatal(err)
			}
			prOnSystem(e, 10)
			s := e.Stats()
			if s.ReloadsAvoided != 0 {
				t.Fatalf("%v: ReloadsAvoided = %d with the whole store cached, want 0", order, s.ReloadsAvoided)
			}
			if s.PlannedCacheHits != s.CacheHits {
				t.Fatalf("%v: planner predicted %d hits, engine measured %d", order, s.PlannedCacheHits, s.CacheHits)
			}
			loads = append(loads, s.ShardLoads)
		}
		for i, l := range loads {
			if l != loads[0] {
				t.Fatalf("policy %v loaded %d shards, ascending %d; must be identical when the store fits",
					Orders()[i], l, loads[0])
			}
		}
	})

	t.Run("aborted-sweep-charges-nothing", func(t *testing.T) {
		// Planner stats are staged at plan time but committed only when
		// the sweep completes: a sweep killed by an operator panic must
		// neither charge its predicted hits nor advance the ascending
		// shadow baseline past fetches that never happened.
		e := slotEngine(t, st, g, 2, Options{Order: OrderZigzag})
		countOp := api.EdgeOp{
			Update:       func(u, v graph.VID) bool { return true },
			UpdateAtomic: func(u, v graph.VID) bool { panic("atomic path unreachable") },
		}
		all := frontier.All(g)
		e.EdgeMap(all, countOp, api.DirAuto) // sweep 0: cold, commits 0 hits
		before := e.Stats()
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("panicking operator did not abort the sweep")
				}
			}()
			e.EdgeMap(all, api.EdgeOp{
				Update:       func(u, v graph.VID) bool { panic("operator failure") },
				UpdateAtomic: func(u, v graph.VID) bool { panic("operator failure") },
			}, api.DirAuto)
		}()
		after := e.Stats()
		if after.PlannedCacheHits != before.PlannedCacheHits || after.ReloadsAvoided != before.ReloadsAvoided {
			t.Fatalf("aborted sweep charged planner stats: %+v -> %+v", before, after)
		}
		// The engine stays usable and the planner's exactness survives:
		// the next committed sweep's prediction matches the hits the
		// cache actually serves it.
		preHits, prePlanned := after.CacheHits, after.PlannedCacheHits
		e.EdgeMap(all, countOp, api.DirAuto)
		final := e.Stats()
		if got, want := final.PlannedCacheHits-prePlanned, final.CacheHits-preHits; got != want {
			t.Fatalf("post-abort sweep predicted %d hits but collected %d", got, want)
		}
		requireEvictions(t, e)
		checkQuiescent(t, e)
	})

	t.Run("sparse-plans-are-ordered", func(t *testing.T) {
		// A sparse frontier plans a subset of shards; the policies apply
		// to it exactly as to a dense plan. Zigzag reverses every odd
		// planned sweep; residency-first fronts whatever the cache holds.
		zig := slotEngine(t, st, g, 2, Options{Order: OrderZigzag})
		f := frontier.FromList(g.NumVertices(), sparseSources(g, 3))
		baseline := zig.planSparse(f)
		if len(baseline) < 2 {
			t.Fatalf("fixture too small: sparse plan %v needs >= 2 shards", baseline)
		}
		first := zig.orderPlan(append([]int(nil), baseline...))
		second := zig.orderPlan(append([]int(nil), baseline...))
		if !sort.IntsAreSorted(first) {
			t.Fatalf("zigzag sweep 0 should be ascending, got %v", first)
		}
		for i, si := range second {
			if si != baseline[len(baseline)-1-i] {
				t.Fatalf("zigzag sweep 1 should reverse %v, got %v", baseline, second)
			}
		}

		res := slotEngine(t, st, g, 2, Options{Order: OrderResidencyFirst})
		hot := baseline[len(baseline)-1]
		warm(t, res, hot)
		ordered := res.orderPlan(append([]int(nil), baseline...))
		if ordered[0] != hot {
			t.Fatalf("residency-first should front resident shard %d, got plan %v", hot, ordered)
		}
	})
}

// sparseSources picks k spread-out vertices with out-edges, giving the
// sparse planner a multi-shard plan.
func sparseSources(g *graph.Graph, k int) []graph.VID {
	var vs []graph.VID
	step := g.NumVertices() / k
	if step == 0 {
		step = 1
	}
	for v := 0; v < g.NumVertices() && len(vs) < k; v += step {
		for u := v; u < g.NumVertices(); u++ {
			if g.OutDegree(graph.VID(u)) > 0 {
				vs = append(vs, graph.VID(u))
				break
			}
		}
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	// FromList wants duplicate-free input.
	uniq := vs[:0]
	for i, v := range vs {
		if i == 0 || v != vs[i-1] {
			uniq = append(uniq, v)
		}
	}
	return uniq
}

// TestOrderZigzagMatchesClosedForm pins the zigzag win to its closed
// form on a clean cyclic sweep: with P equal shards, a budget of C < P
// of them and S dense sweeps, ascending loads S*P while zigzag loads
// S*P - (S-1)*C — exactly with one domain, and as a floor (with a
// strict win over S*P and exact planner stats) on the default topology.
func TestOrderZigzagMatchesClosedForm(t *testing.T) {
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
	for _, tc := range plannerTopologies {
		t.Run(tc.name, func(t *testing.T) {
			e := slotEngine(t, st, g, cacheShards, Options{Order: OrderZigzag, Topology: tc.topo})
			for si, b := range e.shardBytes {
				if b != e.maxShardBytes {
					t.Fatalf("fixture broken: shard %d decodes to %d bytes, the largest to %d", si, b, e.maxShardBytes)
				}
			}
			m := int64(len(e.planDense(frontier.All(g))))
			if m != shards {
				t.Fatalf("fixture broken: dense plan has %d of %d shards", m, shards)
			}
			prOnSystem(e, sweeps)
			s := e.Stats()
			if s.DenseSweeps != sweeps {
				t.Fatalf("expected %d dense sweeps, got %d", sweeps, s.DenseSweeps)
			}
			// A sweep can hit at most the C shards the cache held when it
			// began, so the closed form is a floor under any interleaving,
			// and every hit is a reload the ascending baseline (no hits at
			// all on a cyclic sweep) would have paid.
			want := sweeps*m - (sweeps-1)*cacheShards
			if s.ShardLoads < want || s.ShardLoads >= sweeps*m || (tc.exact && s.ShardLoads != want) {
				t.Fatalf("zigzag loads = %d across %d sweeps of %d planned shards, closed form wants %d",
					s.ShardLoads, sweeps, m, want)
			}
			if s.PlannedCacheHits != s.CacheHits || s.ReloadsAvoided != sweeps*m-s.ShardLoads {
				t.Fatalf("planned %d hits and %d reloads avoided, measured %d hits and %d loads under %d",
					s.PlannedCacheHits, s.ReloadsAvoided, s.CacheHits, s.ShardLoads, sweeps*m)
			}
		})
	}
}

// TestOrderResidencyFirstHilbertTailIsDeterministic pins the uncached
// tail of a residency-first plan to the engine's precomputed Hilbert
// keys, so the policy stays reproducible across runs and engines.
func TestOrderResidencyFirstHilbertTailIsDeterministic(t *testing.T) {
	g := gen.Symmetrise(gen.PowerLaw(1<<8, 1<<11, 2.3, 7))
	e := buildSlotEngine(t, g, 12, 4, Options{Order: OrderResidencyFirst})
	st := e.st
	baseline := make([]int, st.NumShards())
	for i := range baseline {
		baseline[i] = i
	}
	ordered := e.orderPlan(append([]int(nil), baseline...))
	// Cold cache: no resident prefix, the whole plan is the Hilbert tail.
	for i := 1; i < len(ordered); i++ {
		a, b := ordered[i-1], ordered[i]
		if e.hilbertKey[a] > e.hilbertKey[b] || (e.hilbertKey[a] == e.hilbertKey[b] && a > b) {
			t.Fatalf("cold residency-first plan %v not in Hilbert-key order at %d", ordered, i)
		}
	}
}

// TestPlannerStatsFollowTheRealCache is the regression test for the
// phantom-capacity bug: the planner's simulation and its ascending
// shadow must be priced against the cache the session actually fetches
// through, not a shard count that has nothing to do with it. A lone
// default session over a 16-shard store whose cache holds everything
// must predict every hit it collects, and — since every order then
// loads exactly the same shards — report nothing avoided. The same
// equality is then checked on the other side of "fits": an engine with
// a cache of its own at half the store's decoded bytes, where the
// byte-priced simulation has evictions to get right.
func TestPlannerStatsFollowTheRealCache(t *testing.T) {
	g := gen.ErdosRenyi(1<<10, 1<<13, 11)
	const shards, sweeps = 16, 3
	st := createStore(t, t.TempDir(), g, shards)

	for _, order := range Orders() {
		h, err := NewHost(st, g, NewSharedCache(64<<20), Options{Order: order})
		if err != nil {
			t.Fatal(err)
		}
		e := h.NewSession()
		if planned := len(e.planDense(frontier.All(g))); planned <= 8 {
			t.Fatalf("fixture broken: dense plan has %d shards, need more than 8", planned)
		}
		prOnSystem(e, sweeps)
		s := e.Stats()
		if s.CacheHits == 0 || s.ShardLoads > shards {
			t.Fatalf("%v: a cache holding the store gave %d hits, %d loads", order, s.CacheHits, s.ShardLoads)
		}
		if s.PlannedCacheHits != s.CacheHits {
			t.Fatalf("%v: planner predicted %d cache hits, the session collected %d", order, s.PlannedCacheHits, s.CacheHits)
		}
		if s.ReloadsAvoided != 0 {
			t.Fatalf("%v: ReloadsAvoided = %d although every order loads each shard once", order, s.ReloadsAvoided)
		}
	}

	for _, tc := range plannerTopologies {
		for _, order := range Orders() {
			h, err := NewHost(st, g, NewSharedCache(st.NumEdges()*8/2), Options{Order: order, Topology: tc.topo})
			if err != nil {
				t.Fatal(err)
			}
			e := h.NewSession()
			prOnSystem(e, sweeps)
			requireEvictions(t, e)
			if s := e.Stats(); s.PlannedCacheHits != s.CacheHits {
				t.Fatalf("%v on %s at half budget: planner predicted %d cache hits, the engine collected %d",
					order, tc.name, s.PlannedCacheHits, s.CacheHits)
			}
		}
	}
}
