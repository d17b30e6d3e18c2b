package shard

// The resident sparse sweep battery: the source index's shape, its
// pricing into the shared cache (attached only into spare room, charged
// exactly, returned on eviction and drop, attached once under racing
// sessions), the sweep's fallbacks (an index refused mid-sweep is
// applied by scan; a plan with no room for one takes the window), its
// teardown on an operator panic, and that it starts no goroutine.

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/api"
	"repro/internal/frontier"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/sweepref"
)

// warmAll runs one dense no-op sweep, leaving every shard with edges
// resident in e's cache (if the budget holds them) and none indexed.
func warmAll(e *Engine) {
	e.EdgeMap(frontier.All(e.g), passOp(), api.DirAuto)
}

// decodedStoreBytes is what st's shards cost a cache decoded, with no
// source index: measured by warming a cache that holds anything.
func decodedStoreBytes(t *testing.T, st *Store, g *graph.Graph, opts Options) int64 {
	t.Helper()
	h, err := NewHost(st, g, NewSharedCache(1<<40), opts)
	if err != nil {
		t.Fatal(err)
	}
	warmAll(h.NewSession())
	return h.Cache().Stats().Bytes
}

// residentHost opens a host over st behind a cache of exactly the
// store's decoded bytes plus spare, warmed so every shard is resident,
// and returns it with the decoded bytes.
func residentHost(t *testing.T, st *Store, g *graph.Graph, spare int64, opts Options) (*Host, int64) {
	t.Helper()
	decoded := decodedStoreBytes(t, st, g, opts)
	h, err := NewHost(st, g, NewSharedCache(decoded+spare), opts)
	if err != nil {
		t.Fatal(err)
	}
	warmAll(h.NewSession())
	if s := h.Cache().Stats(); s.Bytes != decoded || s.Evictions != 0 {
		t.Fatalf("fixture broken: warm cache holds %d of %d decoded bytes (%+v)", s.Bytes, decoded, s)
	}
	return h, decoded
}

// residentSession is a session of residentHost.
func residentSession(t *testing.T, st *Store, g *graph.Graph, spare int64, opts Options) (*Engine, int64) {
	t.Helper()
	h, decoded := residentHost(t, st, g, spare, opts)
	return h.NewSession(), decoded
}

// cachedResident is shard si of e's store as the cache holds it.
func cachedResident(t *testing.T, e *Engine, si int) *resident {
	t.Helper()
	e.cache.mu.Lock()
	defer e.cache.mu.Unlock()
	el, ok := e.cache.idx[cacheKey{e.st, si}]
	if !ok {
		t.Fatalf("shard %d is not resident", si)
	}
	return el.Value.(*cacheEntry).sh
}

// indexBytes sums the source indexes e's resident shards carry.
func indexBytes(t *testing.T, e *Engine) int64 {
	t.Helper()
	var sum int64
	for si := 0; si < e.st.NumShards(); si++ {
		if cached(e.cache, cacheKey{e.st, si}) {
			sum += cachedResident(t, e, si).index.Load().bytes()
		}
	}
	return sum
}

// bfsParents runs a BFS from src to completion on sys.
func bfsParents(sys api.System, src graph.VID) []int32 {
	g := sys.Graph()
	parents := newParents(g.NumVertices())
	parents[src] = int32(src)
	for f := frontier.FromVertex(g, src); !f.IsEmpty(); {
		f = sys.EdgeMap(f, bfsOp(parents), api.DirAuto)
	}
	return parents
}

// recordInline counts the shards e's inline sweeps apply through their
// index and by scan.
func recordInline(e *Engine) (indexed, scanned *int) {
	indexed, scanned = new(int), new(int)
	e.onInline = func(_ int, ix bool) {
		if ix {
			*indexed++
		} else {
			*scanned++
		}
	}
	return indexed, scanned
}

// roadStore is the battery's fixture: a 32×32 road grid in 8 shards,
// whose BFS is a long run of sparse sweeps.
func roadStore(t *testing.T) (*Store, *graph.Graph) {
	t.Helper()
	g := gen.RoadGrid(32, 32, 3)
	return createStore(t, t.TempDir(), g, 8), g
}

// TestSourceIndexShape: the index of a shard lists its distinct
// sources ascending, and under each exactly that source's positions,
// ascending; every position appears once; the price counts every
// element at four bytes.
func TestSourceIndexShape(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(300)
		edges := make([]graph.Edge, rng.Intn(2000))
		for i := range edges {
			edges[i] = graph.Edge{Src: graph.VID(rng.Intn(n)), Dst: graph.VID(rng.Intn(n))}
		}
		slices.SortFunc(edges, func(a, b graph.Edge) int {
			if a.Dst != b.Dst {
				return int(a.Dst) - int(b.Dst)
			}
			return int(a.Src) - int(b.Src)
		})
		coo := graph.COOFromEdges(n, edges)
		x := newSourceIndex(coo.Src)
		if len(x.off) != len(x.srcs)+1 || int(x.off[len(x.srcs)]) != len(coo.Src) || len(x.pos) != len(coo.Src) {
			t.Fatalf("trial %d: %d sources, %d offsets, %d positions for %d edges", trial, len(x.srcs), len(x.off), len(x.pos), len(coo.Src))
		}
		if want := 4 * int64(len(x.srcs)+len(x.off)+len(x.pos)); x.bytes() != want {
			t.Fatalf("trial %d: index priced at %d bytes, holds %d", trial, x.bytes(), want)
		}
		seen := make([]bool, len(coo.Src))
		for j, u := range x.srcs {
			if j > 0 && x.srcs[j-1] >= u {
				t.Fatalf("trial %d: sources not strictly ascending at %d", trial, j)
			}
			ps := x.pos[x.off[j]:x.off[j+1]]
			if len(ps) == 0 || !slices.IsSorted(ps) {
				t.Fatalf("trial %d: source %d has positions %v", trial, u, ps)
			}
			for _, p := range ps {
				if coo.Src[p] != u || seen[p] {
					t.Fatalf("trial %d: position %d listed under source %d (edge source %d, seen %v)", trial, p, u, coo.Src[p], seen[p])
				}
				seen[p] = true
			}
		}
		if slices.Contains(seen, false) {
			t.Fatalf("trial %d: a position is missing from the index", trial)
		}
	}
	if (*sourceIndex)(nil).bytes() != 0 {
		t.Fatal("no index must cost nothing")
	}
}

// TestInlineSweepPricesIndex: on a store the cache holds with room to
// spare, a BFS runs its sparse sweeps inline through source indexes;
// the cache's bytes rise by exactly the indexes attached, its fetch
// counters are those of the window (one hit per planned shard, no
// load), and the result is the reference sweep's.
func TestInlineSweepPricesIndex(t *testing.T) {
	st, g := roadStore(t)
	e, decoded := residentSession(t, st, g, 1<<20, Options{Threads: 2})
	want := bfsParents(sweepref.New(st, g), 0)

	indexed, scanned := recordInline(e)
	before := e.Stats()
	got := bfsParents(e, 0)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("inline BFS differs from the reference sweep")
	}
	s, cs := e.Stats(), e.cache.Stats()
	if s.SparseSweeps == before.SparseSweeps || *indexed == 0 || *scanned != 0 {
		t.Fatalf("%d sparse sweeps applied %d shards by index and %d by scan; want all by index",
			s.SparseSweeps-before.SparseSweeps, *indexed, *scanned)
	}
	if s.ShardLoads != before.ShardLoads || s.CacheHits-before.CacheHits != int64(*indexed) {
		t.Fatalf("inline sweeps loaded %d shards and hit %d for %d applied",
			s.ShardLoads-before.ShardLoads, s.CacheHits-before.CacheHits, *indexed)
	}
	ix := indexBytes(t, e)
	if ix == 0 || cs.Bytes != decoded+ix {
		t.Fatalf("cache holds %d bytes: %d decoded + %d of indexes expected", cs.Bytes, decoded, ix)
	}
	checkQuiescent(t, e)

	// A second query reuses the indexes: nothing more is charged.
	if got := bfsParents(e, 0); !reflect.DeepEqual(got, want) || e.cache.Stats().Bytes != cs.Bytes {
		t.Fatalf("second inline BFS: equal %v, cache %d bytes (was %d)", reflect.DeepEqual(got, want), e.cache.Stats().Bytes, cs.Bytes)
	}
}

// TestInlineSweepIndexRefusedAppliesByScan: when the spare room covers
// the least an index could cost but not the index built, the attach is
// refused — nothing evicted, nothing charged — and the shard is applied
// by scan, with the reference result.
func TestInlineSweepIndexRefusedAppliesByScan(t *testing.T) {
	st, g := roadStore(t)
	// A source in the middle of shard 3 with every out-neighbour there.
	e0, _ := residentSession(t, st, g, 0, Options{})
	u := -1
	for v := 0; v < g.NumVertices() && u < 0; v++ {
		nbrs := g.OutNeighbors(graph.VID(v))
		if len(nbrs) > 0 && e0.shardOf(graph.VID(v)) == 3 && !slices.ContainsFunc(nbrs, func(w graph.VID) bool { return e0.shardOf(w) != 3 }) {
			u = v
		}
	}
	if u < 0 {
		t.Fatal("fixture broken: no source feeds shard 3 alone")
	}
	sh := cachedResident(t, e0, 3)
	minBytes := minIndexBytes(sh)
	if newSourceIndex(sh.src).bytes() <= minBytes {
		t.Fatal("fixture broken: shard 3's index costs no more than its floor")
	}

	e, decoded := residentSession(t, st, g, minBytes, Options{})
	indexed, scanned := recordInline(e)
	parents := newParents(g.NumVertices())
	parents[u] = int32(u)
	next := e.EdgeMap(frontier.FromVertex(g, graph.VID(u)), bfsOp(parents), api.DirAuto)

	want := newParents(g.NumVertices())
	want[u] = int32(u)
	wantNext := sweepref.New(st, g).EdgeMap(frontier.FromVertex(g, graph.VID(u)), bfsOp(want), api.DirAuto)
	if !reflect.DeepEqual(parents, want) || !reflect.DeepEqual(next.List(), wantNext.List()) || next.Count() != wantNext.Count() {
		t.Fatalf("scan-applied sweep: next %v, want %v", next.List(), wantNext.List())
	}
	if *indexed != 0 || *scanned != 1 {
		t.Fatalf("applied %d shards by index and %d by scan; want the one planned shard by scan", *indexed, *scanned)
	}
	if s := e.cache.Stats(); s.Bytes != decoded || s.Evictions != 0 || cachedResident(t, e, 3).index.Load() != nil {
		t.Fatalf("a refused index changed the cache: %+v (decoded %d)", s, decoded)
	}
	checkQuiescent(t, e)
}

// TestInlineSweepWithoutRoomTakesWindow: a budget of exactly the
// store's decoded bytes holds every plan but no index, so a resident
// sparse plan takes the window — the cache's bytes never move and the
// result is the reference's.
func TestInlineSweepWithoutRoomTakesWindow(t *testing.T) {
	st, g := roadStore(t)
	e, decoded := residentSession(t, st, g, 0, Options{Threads: 2})
	indexed, scanned := recordInline(e)
	staged := 0
	e.onStage = func(int, int, int) { staged++ }
	before := e.Stats()
	if got, want := bfsParents(e, 0), bfsParents(sweepref.New(st, g), 0); !reflect.DeepEqual(got, want) {
		t.Fatal("windowed BFS differs from the reference sweep")
	}
	s, cs := e.Stats(), e.cache.Stats()
	if *indexed+*scanned != 0 || staged == 0 || s.ShardLoads != before.ShardLoads {
		t.Fatalf("%d inline shards, %d staged, %d loads; want every plan staged from the cache",
			*indexed+*scanned, staged, s.ShardLoads-before.ShardLoads)
	}
	if cs.Bytes != decoded || cs.Evictions != 0 || cs.Rejected != 0 {
		t.Fatalf("cache moved with no room for an index: %+v (decoded %d)", cs, decoded)
	}
}

// TestIndexBytesLeaveWithShard: a shard's index is charged with it, so
// evicting indexed shards and dropping their store return every byte.
func TestIndexBytesLeaveWithShard(t *testing.T) {
	st, g := roadStore(t)
	decoded := decodedStoreBytes(t, st, g, Options{})
	other := createStore(t, t.TempDir(), g, 8)
	// Room for the store and its indexes (about three quarters of its
	// decoded bytes on a road grid) but not for a second store too: the
	// other store's shards must evict.
	c := NewSharedCache(2 * decoded)
	h, err := NewHost(st, g, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := h.NewSession()
	warmAll(e)
	bfsParents(e, 0)
	ix := indexBytes(t, e)
	if ix == 0 || c.Stats().Bytes != decoded+ix {
		t.Fatalf("fixture broken: %d index bytes, cache %+v", ix, c.Stats())
	}

	ho, err := NewHost(other, g, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	eo := ho.NewSession()
	warmAll(eo)
	warmAll(eo)
	s := c.Stats()
	if s.Evictions == 0 {
		t.Fatal("fixture broken: the other store evicted nothing")
	}
	var left int64
	for si := 0; si < st.NumShards(); si++ {
		if cached(c, cacheKey{st, si}) {
			sh := cachedResident(t, e, si)
			left += residentBytes(sh)
		}
	}
	if s.Bytes != decoded+left {
		t.Fatalf("after evictions the cache holds %d bytes; the other store's %d plus %d left of this one's", s.Bytes, decoded, left)
	}
	h.Evict()
	ho.Evict()
	if s := c.Stats(); s.Bytes != 0 || s.Resident != 0 {
		t.Fatalf("dropping both stores left %+v", s)
	}
}

// TestRacingSessionsAttachOneIndex: sessions of one host sweeping the
// same resident shards at once build an index each, but each shard
// ends up with one, charged once.
func TestRacingSessionsAttachOneIndex(t *testing.T) {
	st, g := roadStore(t)
	want := bfsParents(sweepref.New(st, g), 0)
	for trial := 0; trial < 4; trial++ {
		h, decoded := residentHost(t, st, g, 1<<20, Options{Threads: 2})
		e := h.NewSession()
		const sessions = 4
		got := make([][]int32, sessions)
		var start, wg sync.WaitGroup
		start.Add(1)
		for i := range got {
			s := h.NewSession()
			wg.Add(1)
			go func() {
				defer wg.Done()
				start.Wait()
				got[i] = bfsParents(s, 0)
			}()
		}
		start.Done()
		wg.Wait()
		for i := range got {
			if !reflect.DeepEqual(got[i], want) {
				t.Fatalf("trial %d: session %d's BFS differs from the reference", trial, i)
			}
		}
		if ix := indexBytes(t, e); ix == 0 || e.cache.Stats().Bytes != decoded+ix {
			t.Fatalf("trial %d: cache holds %d bytes for %d decoded + %d of indexes", trial, e.cache.Stats().Bytes, decoded, ix)
		}
		checkQuiescent(t, e)
	}
}

// TestInlineSweepOperatorPanic: an operator panicking mid inline sweep
// surfaces verbatim, leaves no pin behind, and the session runs a clean
// query afterwards.
func TestInlineSweepOperatorPanic(t *testing.T) {
	st, g := roadStore(t)
	e, _ := residentSession(t, st, g, 1<<20, Options{Threads: 2})
	want := bfsParents(sweepref.New(st, g), 0)
	bfsParents(e, 0) // attach the indexes: the panic must hit the indexed path

	boom := &struct{ msg string }{"operator boom"}
	indexed, _ := recordInline(e)
	parents := newParents(g.NumVertices())
	parents[0] = 0
	f := frontier.FromVertex(g, 0)
	var calls atomic.Int32
	op := bfsOp(parents)
	update := op.Update
	op.Update = func(u, v graph.VID) bool {
		if calls.Add(1) == 40 {
			panic(boom)
		}
		return update(u, v)
	}
	func() {
		defer func() {
			if r := recover(); r != boom {
				t.Fatalf("recovered %v, want the operator's own panic value", r)
			}
		}()
		for !f.IsEmpty() {
			f = e.EdgeMap(f, op, api.DirAuto)
		}
		t.Fatal("the operator never panicked")
	}()
	if *indexed == 0 {
		t.Fatal("fixture broken: the panic was not raised on the inline path")
	}
	checkQuiescent(t, e)
	if got := bfsParents(e, 0); !reflect.DeepEqual(got, want) {
		t.Fatal("the session's BFS after the panic differs from the reference")
	}
	checkQuiescent(t, e)
}

// TestResidentSparseSweepStartsNoGoroutine: a BFS over a store the
// cache holds with room for its indexes starts no goroutine — every
// operator call runs with the goroutine count the query began with.
func TestResidentSparseSweepStartsNoGoroutine(t *testing.T) {
	st, g := roadStore(t)
	e, _ := residentSession(t, st, g, 1<<20, Options{Threads: 4})
	bfsParents(e, 0) // attach the indexes
	indexed, scanned := recordInline(e)

	base := runtime.NumGoroutine()
	var mu sync.Mutex
	most := base
	parents := newParents(g.NumVertices())
	parents[0] = 0
	op := bfsOp(parents)
	update := op.Update
	op.Update = func(u, v graph.VID) bool {
		mu.Lock()
		most = max(most, runtime.NumGoroutine())
		mu.Unlock()
		return update(u, v)
	}
	sweeps := e.Stats().SparseSweeps
	for f := frontier.FromVertex(g, 0); !f.IsEmpty(); {
		f = e.EdgeMap(f, op, api.DirAuto)
	}
	if e.Stats().SparseSweeps == sweeps || *indexed == 0 || *scanned != 0 {
		t.Fatalf("fixture broken: %d sparse sweeps, %d shards by index, %d by scan", e.Stats().SparseSweeps-sweeps, *indexed, *scanned)
	}
	if most != base || runtime.NumGoroutine() != base {
		t.Fatalf("goroutines went from %d to %d during a resident BFS (%d after)", base, most, runtime.NumGoroutine())
	}
}

// TestShardOfMatchesHome: the unit-granular vertex → shard map agrees
// with the store's partitioning on every vertex, including layouts
// whose trailing or leading ranges are empty (fewer vertices than
// aligned ranges).
func TestShardOfMatchesHome(t *testing.T) {
	for _, tc := range []struct{ n, p int }{{32, 4}, {64, 3}, {65, 4}, {200, 8}, {1000, 7}, {4096, 16}} {
		g := gen.ErdosRenyi(tc.n, int64(4*tc.n), 5)
		e := buildTestEngine(t, g, tc.p, Options{})
		for v := 0; v < tc.n; v++ {
			if got, want := e.shardOf(graph.VID(v)), e.st.Home(graph.VID(v)); got != want {
				t.Fatalf("n=%d p=%d: shardOf(%d) = %d, store says %d", tc.n, tc.p, v, got, want)
			}
		}
	}
}

// BenchmarkSparseSweep times the sparse sweeps of a BFS from a corner of
// a resident road grid — the sparse-frontier workload's shape at a
// quarter of its size — through the inline indexed path EdgeMap takes,
// and through the window the same plans took before it, and reports
// µs per sweep.
func BenchmarkSparseSweep(b *testing.B) {
	g := gen.RoadGrid(256, 256, 1)
	st, err := Create(b.TempDir(), g, WriteOptions{Partitions: 16})
	if err != nil {
		b.Fatal(err)
	}
	for _, path := range []string{"inline", "window"} {
		b.Run(path, func(b *testing.B) {
			h, err := NewHost(st, g, NewSharedCache(4*8*g.NumEdges()), Options{})
			if err != nil {
				b.Fatal(err)
			}
			e := h.NewSession()
			warmAll(e)
			bfs := func() (sweeps int) {
				parents := newParents(g.NumVertices())
				parents[0] = 0
				for f := frontier.FromVertex(g, 0); !f.IsEmpty(); sweeps++ {
					if f.Classify(g, sparseDiv, 2) != frontier.Sparse {
						b.Fatal("fixture broken: a BFS frontier on the road grid is not sparse")
					}
					if path == "inline" {
						f = e.EdgeMap(f, bfsOp(parents), api.DirAuto)
					} else {
						f = e.sweepWindowed(f, bfsOp(parents), e.planSparse(f))
					}
				}
				return sweeps
			}
			bfs() // the inline path builds its indexes on the first query
			b.ResetTimer()
			sweeps := 0
			for i := 0; i < b.N; i++ {
				sweeps += bfs()
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(sweeps), "us/sweep")
		})
	}
}
