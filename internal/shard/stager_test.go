package shard

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/api"
	"repro/internal/frontier"
	"repro/internal/gen"
	"repro/internal/graph"
)

// planOf is the plan EdgeMap builds for f: the exact sparse plan or the
// summary-pruned dense one, both ascending.
func planOf(e *Engine, f *frontier.Frontier) []int {
	if f.Classify(e.g, sparseDiv, 2) == frontier.Sparse {
		return e.planSparse(f)
	}
	return e.planDense(f)
}

// warm fetches shard si through e's cache and drops the pin at once,
// leaving it resident and most recently used.
func warm(t *testing.T, e *Engine, si int) {
	t.Helper()
	st, err := e.admit(si)
	if err != nil {
		t.Fatal(err)
	}
	st.release()
}

// recordReads collects the shards e reads from disk, in the order the
// stager begins them; the slice is safe to inspect once EdgeMap returns.
func recordReads(e *Engine) *[]int {
	reads := new([]int)
	e.onLoadBegin = func(si int) { *reads = append(*reads, si) }
	return reads
}

// TestStagerFetchesExactlyThePlan is the stager's core safety
// property: whatever the frontier, the cache contents and the cache
// budget, a sweep fetches exactly its plan — every planned shard once,
// as a cache hit or a disk read, no other shard — and the reads it does
// issue follow the ascending plan order. Randomised across sparse and
// dense plans, warm and cold caches, and budgets from one shard to the
// whole store.
func TestStagerFetchesExactlyThePlan(t *testing.T) {
	g := gen.Symmetrise(gen.PowerLaw(1<<9, 1<<12, 2.3, 5))
	n := g.NumVertices()
	st := createStore(t, t.TempDir(), g, 12)
	rng := rand.New(rand.NewSource(42))
	for _, slots := range []int{1, 3, 12, 64} {
		e := slotEngine(t, st, g, slots, Options{})
		reads := recordReads(e)
		for trial := 0; trial < 40; trial++ {
			// Random warm state: fetch a few shards so the resident set
			// the stager meets varies from trial to trial.
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
			if len(vs) == 0 {
				continue
			}
			f := frontier.FromList(n, vs)
			plan := planOf(e, f)
			inPlan := make(map[int]bool, len(plan))
			for _, si := range plan {
				inPlan[si] = true
			}

			before := e.Stats()
			*reads = (*reads)[:0]
			e.EdgeMap(f, passOp(), api.DirAuto)
			after := e.Stats()

			fetched := after.ShardLoads - before.ShardLoads + after.CacheHits - before.CacheHits
			if fetched != int64(len(plan)) {
				t.Fatalf("slots=%d trial %d: fetched %d shards for a plan of %d (%v)", slots, trial, fetched, len(plan), plan)
			}
			if skipped := after.ShardsSkipped - before.ShardsSkipped; skipped != int64(st.NumShards()-len(plan)) {
				t.Fatalf("slots=%d trial %d: skipped %d shards, plan leaves out %d", slots, trial, skipped, st.NumShards()-len(plan))
			}
			for i, si := range *reads {
				if !inPlan[si] {
					t.Fatalf("slots=%d trial %d: read shard %d outside the plan %v", slots, trial, si, plan)
				}
				if i > 0 && si <= (*reads)[i-1] {
					t.Fatalf("slots=%d trial %d: reads %v leave the ascending plan order", slots, trial, *reads)
				}
			}
		}
		checkQuiescent(t, e)
	}
}

// TestStagerEdgeCases tables the degenerate plans the stager must
// handle: empty plans, single-shard plans, budgets that hold the whole
// store, sweeps aborted mid-plan, and sparse plans (still visited in
// ascending order).
func TestStagerEdgeCases(t *testing.T) {
	g := gen.TinySocial()
	st := createStore(t, t.TempDir(), g, 8)

	t.Run("empty-plan", func(t *testing.T) {
		// Active vertices without out-edges feed no shard: the sweep plans
		// nothing, fetches nothing and skips the whole store.
		var sinks []graph.VID
		for v := 0; v < g.NumVertices() && len(sinks) < 3; v++ {
			if g.OutDegree(graph.VID(v)) == 0 {
				sinks = append(sinks, graph.VID(v))
			}
		}
		if len(sinks) == 0 {
			t.Fatal("fixture broken: the graph has no vertex without out-edges")
		}
		e := slotEngine(t, st, g, 2, Options{})
		reads := recordReads(e)
		f := frontier.FromList(g.NumVertices(), sinks)
		if plan := planOf(e, f); len(plan) != 0 {
			t.Fatalf("a frontier of sinks planned %v", plan)
		}
		for i := 0; i < 3; i++ {
			if next := e.EdgeMap(f, passOp(), api.DirAuto); !next.IsEmpty() {
				t.Fatalf("an empty plan produced a frontier of %d", next.Count())
			}
		}
		s := e.Stats()
		if s.ShardLoads != 0 || s.CacheHits != 0 || len(*reads) != 0 {
			t.Fatalf("empty plans fetched shards: %d loads, %d hits, reads %v", s.ShardLoads, s.CacheHits, *reads)
		}
		if s.ShardsSkipped != 3*int64(st.NumShards()) {
			t.Fatalf("empty plans skipped %d shards, want %d", s.ShardsSkipped, 3*st.NumShards())
		}
		checkQuiescent(t, e)
	})

	t.Run("single-shard", func(t *testing.T) {
		// A vertex whose out-neighbours all live in one shard plans just
		// that shard: one read, then hits.
		e := slotEngine(t, st, g, 2, Options{})
		u, home := -1, -1
		for v := 0; v < g.NumVertices() && u < 0; v++ {
			nbrs := g.OutNeighbors(graph.VID(v))
			if len(nbrs) == 0 {
				continue
			}
			h := e.shardOf(nbrs[0])
			same := true
			for _, w := range nbrs {
				same = same && e.shardOf(w) == h
			}
			if same {
				u, home = v, h
			}
		}
		if u < 0 {
			t.Fatal("fixture broken: no vertex feeds a single shard")
		}
		reads := recordReads(e)
		f := frontier.FromVertex(g, graph.VID(u))
		if plan := planOf(e, f); len(plan) != 1 || plan[0] != home {
			t.Fatalf("vertex %d planned %v, want [%d]", u, plan, home)
		}
		for i := 0; i < 4; i++ {
			e.EdgeMap(f, passOp(), api.DirAuto)
		}
		if s := e.Stats(); s.ShardLoads != 1 || s.CacheHits != 3 || !reflect.DeepEqual(*reads, []int{home}) {
			t.Fatalf("four single-shard sweeps: %d loads, %d hits, reads %v; want 1, 3, [%d]", s.ShardLoads, s.CacheHits, *reads, home)
		}
	})

	t.Run("cache-holds-store", func(t *testing.T) {
		// The default budget holds the store: the disk is paid exactly
		// once per planned shard and every later visit hits.
		e, err := NewEngine(st, g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		m := int64(len(e.planDense(frontier.All(g))))
		prOnSystem(e, 10)
		s := e.Stats()
		if s.DenseSweeps != 10 || s.ShardLoads != m || s.CacheHits != 9*m {
			t.Fatalf("%d dense sweeps, %d loads, %d hits over a %d-shard plan; want 10, %d, %d",
				s.DenseSweeps, s.ShardLoads, s.CacheHits, m, m, 9*m)
		}
		if c := e.cache.Stats(); c.Evictions != 0 || c.Rejected != 0 {
			t.Fatalf("a cache holding the store evicted %d and refused %d shards", c.Evictions, c.Rejected)
		}
	})

	t.Run("aborted-sweep-charges-nothing", func(t *testing.T) {
		// A sweep killed by an operator panic leaves nothing behind for
		// the next one: no pin survives it, and the next sweep fetches its
		// whole plan exactly once — no staged shard is carried over or
		// owed.
		e := slotEngine(t, st, g, 2, Options{})
		all := frontier.All(g)
		e.EdgeMap(all, passOp(), api.DirAuto) // sweep 0: cold
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
		checkQuiescent(t, e)
		plan := e.planDense(all)
		before := e.Stats()
		e.EdgeMap(all, passOp(), api.DirAuto)
		after := e.Stats()
		if got := after.ShardLoads - before.ShardLoads + after.CacheHits - before.CacheHits; got != int64(len(plan)) {
			t.Fatalf("post-abort sweep fetched %d shards for a plan of %d", got, len(plan))
		}
		requireEvictions(t, e)
		checkQuiescent(t, e)
	})

	t.Run("sparse-plans-are-ordered", func(t *testing.T) {
		// A sparse frontier plans a proper subset of shards, ascending, and
		// a cold stager reads exactly that subset in that order. Three
		// spread-out vertices of a road grid stay under the paper's sparse
		// threshold, and each one's neighbours lie in one or two shards.
		g := gen.TinyRoad()
		const shards = 8
		e := slotEngine(t, createStore(t, t.TempDir(), g, shards), g, 2, Options{})
		n := g.NumVertices()
		f := frontier.FromList(n, []graph.VID{0, graph.VID(n / 3), graph.VID(2 * n / 3)})
		if f.Classify(g, sparseDiv, 2) != frontier.Sparse {
			t.Fatal("fixture broken: the frontier is not sparse")
		}
		plan := e.planSparse(f)
		if len(plan) < 2 || len(plan) == shards {
			t.Fatalf("fixture broken: sparse plan %v needs >= 2 shards of %d, not all", plan, shards)
		}
		if !sort.IntsAreSorted(plan) {
			t.Fatalf("sparse plan %v is not ascending", plan)
		}
		reads := recordReads(e)
		e.EdgeMap(f, passOp(), api.DirAuto)
		if !reflect.DeepEqual(*reads, plan) {
			t.Fatalf("cold sparse sweep read %v, want the plan %v in order", *reads, plan)
		}
	})
}

// TestStagerStatsFollowTheRealCache: a lone session's fetch counters
// are the cache's own, not a model of it — every CacheHits is a hit the
// SharedCache served and every ShardLoads a load it recorded, with no
// read shared (nothing else sweeps the store). Checked where the cache
// holds the store, and at half the store's decoded bytes, where
// evictions make the counts depend on the real LRU, at the default
// thread count and on one worker.
func TestStagerStatsFollowTheRealCache(t *testing.T) {
	g := gen.ErdosRenyi(1<<10, 1<<13, 11)
	const shards, sweeps = 16, 3
	st := createStore(t, t.TempDir(), g, shards)

	for _, tc := range []struct {
		name    string
		budget  int64
		threads int
		evicts  bool
	}{
		{"holds-store", 64 << 20, 0, false},
		{"half-store/default-threads", st.NumEdges() * 8 / 2, 0, true},
		{"half-store/one-thread", st.NumEdges() * 8 / 2, 1, true},
	} {
		h, err := NewHost(st, g, NewSharedCache(tc.budget), Options{Threads: tc.threads})
		if err != nil {
			t.Fatal(err)
		}
		e := h.NewSession()
		if planned := len(e.planDense(frontier.All(g))); planned <= 8 {
			t.Fatalf("fixture broken: dense plan has %d shards, need more than 8", planned)
		}
		prOnSystem(e, sweeps)
		s, c := e.Stats(), h.Cache().Stats()
		if s.CacheHits != c.Hits || s.ShardLoads != c.Loads || s.SharedReads != 0 || c.Shared != 0 {
			t.Fatalf("%s: session counted %d hits, %d loads, %d shared; the cache %d, %d, %d",
				tc.name, s.CacheHits, s.ShardLoads, s.SharedReads, c.Hits, c.Loads, c.Shared)
		}
		if tc.evicts {
			requireEvictions(t, e)
		} else if s.CacheHits == 0 || s.ShardLoads > shards {
			t.Fatalf("%s: a cache holding the store gave %d hits, %d loads", tc.name, s.CacheHits, s.ShardLoads)
		}
	}
}
