package shard

// The shared-cache session battery (the cache's own residency
// invariants live in residency_test.go): the two-query hammer over real
// host sessions, the sharing regressions (concurrent PR + BFS
// bit-identical to solo runs, and concurrent dense PR + CC strictly
// cheaper than the sum of solo runs), and the mid-sweep operator-panic
// teardown with a second session surviving on the same store.

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/algorithms"
	"repro/internal/api"
	"repro/internal/frontier"
	"repro/internal/gen"
	"repro/internal/graph"
)

// fakeResident builds a resident shard of exactly edges edges for cache
// property tests (residentBytes = edges*8 + 16).
func fakeResident(idx, edges int) *resident {
	return &resident{
		idx: idx,
		src: make([]graph.VID, edges),
		dst: make([]graph.VID, edges),
		off: []int{0, edges},
	}
}

// buildHostOver writes g into a fresh store and opens a Host over it
// with the given shared-cache budget.
func buildHostOver(t *testing.T, g *graph.Graph, p int, budget int64, opts Options) *Host {
	t.Helper()
	h, err := BuildHost(t.TempDir(), g, p, NewSharedCache(budget), opts)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestDropStoreCountsEvictions pins the close-store accounting the
// daemon's cache stats report: every shard dropStore retires is one
// eviction, counted at the drop whether it leaves on the spot or — still
// pinned — at its final unpin; another store's shards are untouched.
func TestDropStoreCountsEvictions(t *testing.T) {
	c, st, other := NewSharedCache(1<<20), &Store{}, &Store{}
	var pinned func()
	for k := 0; k < 4; k++ {
		_, release, _ := c.add(cacheKey{st, k}, fakeResident(k, 64))
		if k == 0 {
			pinned = release
		} else {
			release()
		}
	}
	_, release, _ := c.add(cacheKey{other, 0}, fakeResident(0, 64))
	release()
	c.dropStore(st)
	if s := c.Stats(); s.Evictions != 4 || s.Resident != 2 {
		t.Fatalf("dropping 3 cold + 1 pinned shard: %+v, want 4 evictions and 2 residents", s)
	}
	pinned()
	if s := c.Stats(); s.Evictions != 4 || s.Resident != 1 || !c.res.peek(cacheKey{other, 0}) {
		t.Fatalf("after the final unpin: %+v, want the other store's shard alone", s)
	}
}

// TestSharedSessionsTwoQueryHammer runs PageRank and an iterative
// connected-components traversal concurrently, repeatedly, over two
// sessions of one host with a byte budget far below the store — so
// eviction, refused inserts and single-flight sharing all fire under
// contention — and requires both queries' results to stay bit-identical
// to a solo engine's. CI runs this under -race -count=2.
func TestSharedSessionsTwoQueryHammer(t *testing.T) {
	g := gen.TinySocial()
	const shards = 12
	// Budget two average shards: heavy eviction traffic.
	var budget int64 = 2 * (int64(g.NumEdges())/shards*8 + 16)
	h := buildHostOver(t, g, shards, budget, Options{Threads: 4})

	solo, err := Build(t.TempDir(), g, shards, Options{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	wantRanks := prOnSystem(solo, 5)
	wantLabels := ccOnSystem(solo)

	for round := 0; round < 2; round++ {
		pr := h.NewSession()
		cc := h.NewSession()
		var wg sync.WaitGroup
		var gotRanks []float64
		var gotLabels []int32
		wg.Add(2)
		go func() { defer wg.Done(); gotRanks = prOnSystem(pr, 5) }()
		go func() { defer wg.Done(); gotLabels = ccOnSystem(cc) }()
		wg.Wait()
		for v := range wantRanks {
			if math.Float64bits(gotRanks[v]) != math.Float64bits(wantRanks[v]) {
				t.Fatalf("round %d: rank[%d] = %v, want %v (not bit-identical)", round, v, gotRanks[v], wantRanks[v])
			}
		}
		for v := range wantLabels {
			if gotLabels[v] != wantLabels[v] {
				t.Fatalf("round %d: label[%d] = %d, want %d", round, v, gotLabels[v], wantLabels[v])
			}
		}
		checkResidency(t, h.Cache().res)
		if s := h.Cache().Stats(); s.Pinned != 0 {
			t.Fatalf("round %d: queries done but %d shards still pinned", round, s.Pinned)
		}
	}
}

// ccOnSystem is a label-propagation connected components (the min-label
// fixpoint the algorithms package uses), here engine-local so shard
// tests need no import cycle.
func ccOnSystem(sys api.System) []int32 {
	g := sys.Graph()
	n := g.NumVertices()
	labels := make([]int32, n)
	for v := range labels {
		labels[v] = int32(v)
	}
	// Source labels are read while another task's apply may be
	// lowering them, so both sides go through atomics; the min-label
	// fixpoint does not depend on which value a racing read observes.
	relax := func(u, v graph.VID) bool {
		if lu := atomic.LoadInt32(&labels[u]); lu < atomic.LoadInt32(&labels[v]) {
			atomic.StoreInt32(&labels[v], lu)
			return true
		}
		return false
	}
	f := frontier.All(g)
	for rounds := 0; f.Count() > 0 && rounds < n; rounds++ {
		f = sys.EdgeMap(f, api.EdgeOp{Update: relax, UpdateAtomic: relax}, api.DirAuto)
	}
	return labels
}

// TestSharedSessionsFewerLoadsThanSoloSum is the accounting regression
// of a shared host: concurrent dense PageRank + connected components
// on one store must total strictly fewer performed shard loads than the
// sum of the two queries run in isolation. The budget holds the whole
// store, which makes the bound deterministic rather than a race: in the
// shared run each shard is loaded at most once ever (residency plus
// single-flight cover every later fetch, whatever the interleaving),
// while the isolated runs each pay for their own full pass.
func TestSharedSessionsFewerLoadsThanSoloSum(t *testing.T) {
	g := gen.TinySocial()
	const shards = 12
	const budget = 64 << 20

	soloLoads := int64(0)
	for _, run := range []func(api.System){
		func(s api.System) { prOnSystem(s, 5) },
		func(s api.System) { ccOnSystem(s) },
	} {
		h := buildHostOver(t, g, shards, budget, Options{Threads: 4})
		sess := h.NewSession()
		run(sess)
		soloLoads += sess.Stats().ShardLoads
	}

	h := buildHostOver(t, g, shards, budget, Options{Threads: 4})
	pr := h.NewSession()
	cc := h.NewSession()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); prOnSystem(pr, 5) }()
	go func() { defer wg.Done(); ccOnSystem(cc) }()
	wg.Wait()

	concurrent := h.Cache().Stats().Loads
	if pr.Stats().ShardLoads+cc.Stats().ShardLoads != concurrent {
		t.Fatalf("session loads %d+%d do not sum to the cache's %d performed loads",
			pr.Stats().ShardLoads, cc.Stats().ShardLoads, concurrent)
	}
	if concurrent >= soloLoads {
		t.Fatalf("concurrent PR+CC performed %d loads, want strictly fewer than the isolated sum %d",
			concurrent, soloLoads)
	}
	if concurrent > int64(shards) {
		t.Fatalf("whole-store budget but %d loads for %d shards: a shard was read twice", concurrent, shards)
	}
}

// TestSharedSessionsPRBFSBitIdentical: PageRank and BFS running
// concurrently through two sessions of one host must produce
// float64-bit-identical ranks and an identical parent array to solo
// runs on private hosts — and together perform strictly fewer shard
// loads than the two solo runs summed.
func TestSharedSessionsPRBFSBitIdentical(t *testing.T) {
	g := gen.TinySocial()
	const shards = 12
	const budget = 64 << 20
	src := graph.VID(1)

	soloPRHost := buildHostOver(t, g, shards, budget, Options{Threads: 4})
	soloPR := soloPRHost.NewSession()
	wantRanks := prOnSystem(soloPR, 5)
	soloBFSHost := buildHostOver(t, g, shards, budget, Options{Threads: 4})
	soloBFS := soloBFSHost.NewSession()
	wantParents := algorithms.BFS(soloBFS, src).Parents
	soloLoads := soloPR.Stats().ShardLoads + soloBFS.Stats().ShardLoads

	h := buildHostOver(t, g, shards, budget, Options{Threads: 4})
	pr := h.NewSession()
	bfs := h.NewSession()
	var gotRanks []float64
	var gotParents []int32
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); gotRanks = prOnSystem(pr, 5) }()
	go func() { defer wg.Done(); gotParents = algorithms.BFS(bfs, src).Parents }()
	wg.Wait()

	for v := range wantRanks {
		if math.Float64bits(gotRanks[v]) != math.Float64bits(wantRanks[v]) {
			t.Fatalf("rank[%d] = %x, want %x: concurrent PR not bit-identical to solo",
				v, math.Float64bits(gotRanks[v]), math.Float64bits(wantRanks[v]))
		}
	}
	for v := range wantParents {
		if gotParents[v] != wantParents[v] {
			t.Fatalf("parent[%d] = %d, want %d: concurrent BFS diverged from solo",
				v, gotParents[v], wantParents[v])
		}
	}

	concurrent := h.Cache().Stats().Loads
	if concurrent >= soloLoads {
		t.Fatalf("concurrent PR+BFS performed %d loads, want strictly fewer than the solo sum %d",
			concurrent, soloLoads)
	}
	if concurrent > int64(shards) {
		t.Fatalf("whole-store budget but %d loads for %d shards: residency or single-flight leaked a re-read",
			concurrent, shards)
	}
}

// TestSharedSessionPanicTeardown is the battery's fault rung: one
// session's operator panics mid-sweep while a second session keeps
// running PageRank on the same store. The panic must surface on the
// panicking session only; the survivor's ranks stay bit-identical; no
// pipeline goroutine outlives the queries; and the shared LRU is
// restored — zero pinned shards, bytes within budget, and the store
// still serviceable (the panicking session runs a clean query after).
func TestSharedSessionPanicTeardown(t *testing.T) {
	baseline := settledGoroutines()

	g := gen.TinySocial()
	h := buildHostOver(t, g, 12, 64<<20, Options{Threads: 4})
	solo, err := Build(t.TempDir(), g, 12, Options{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := prOnSystem(solo, 5)

	boom := h.NewSession()
	survivor := h.NewSession()

	var wg sync.WaitGroup
	var got []float64
	panicked := make(chan any, 1)
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer func() { panicked <- recover() }()
		boom.EdgeMap(frontier.All(g), api.EdgeOp{
			Update:       func(u, v graph.VID) bool { panic("operator boom") },
			UpdateAtomic: func(u, v graph.VID) bool { panic("operator boom") },
		}, api.DirAuto)
	}()
	go func() { defer wg.Done(); got = prOnSystem(survivor, 5) }()
	wg.Wait()

	if r := <-panicked; r == nil {
		t.Fatal("operator panic did not propagate out of the panicking session")
	}
	for v := range want {
		if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
			t.Fatalf("survivor rank[%d] = %v, want %v after peer panic", v, got[v], want[v])
		}
	}

	// LRU restored: nothing pinned, budget honoured, store serviceable
	// — including by the session that panicked.
	checkResidency(t, h.Cache().res)
	if s := h.Cache().Stats(); s.Pinned != 0 {
		t.Fatalf("peer panic leaked %d pinned shards", s.Pinned)
	}
	reRanks := prOnSystem(boom, 5)
	for v := range want {
		if math.Float64bits(reRanks[v]) != math.Float64bits(want[v]) {
			t.Fatalf("panicked session not reusable: rank[%d] = %v, want %v", v, reRanks[v], want[v])
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for settledGoroutines() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := settledGoroutines(); now > baseline {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutines grew from %d to %d after shared-session teardown:\n%s",
			baseline, now, buf[:runtime.Stack(buf, true)])
	}
}
