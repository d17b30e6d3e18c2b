package shard

// The shared-cache batteries. The residency battery holds the
// byte-budgeted pinned LRU to its invariants through the cache's own
// entry points. The session battery runs real host sessions over it:
// the two-query hammer, the sharing regressions (concurrent PR + BFS
// bit-identical to solo runs, and concurrent dense PR + CC strictly
// cheaper than the sum of solo runs), and the mid-sweep operator-panic
// teardown with a second session surviving on the same store.

import (
	"math"
	"math/rand"
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

// fakeResident builds a resident shard of exactly edges edges (an even
// count), in two-edge runs, for cache property tests: residentBytes =
// 4·edges for the sources + 8·edges/2 for the run table + 16 for the
// one task's offsets = edges*8 + 16.
func fakeResident(idx, edges int) *resident {
	sh := &resident{idx: idx, off: []int{0, edges / 2}}
	sh.src = make([]graph.VID, edges)
	sh.dst = make([]graph.VID, edges/2)
	sh.end = make([]uint32, edges/2)
	for r := range sh.end {
		sh.dst[r], sh.end[r] = graph.VID(r), uint32(2*r+2)
	}
	return sh
}

// buildHostOver writes g into a fresh store and opens a Host over it
// with the given shared-cache budget.
func buildHostOver(t *testing.T, g *graph.Graph, p int, budget int64, opts Options) *Host {
	t.Helper()
	h, err := NewHost(createStore(t, t.TempDir(), g, p), g, NewSharedCache(budget), opts)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// batteryStore namespaces the residency battery's keys.
var batteryStore = &Store{}

func bkey(k int) cacheKey { return cacheKey{batteryStore, k} }

// addSized admits a fake shard of the given byte size (16 plus a
// multiple of 16) under key k.
func addSized(c *SharedCache, k int, bytes int64) (*resident, func(), bool) {
	return c.add(bkey(k), fakeResident(k, int(bytes-16)/8))
}

// pinKey fetches key k pinned; ok is false on a miss.
func pinKey(c *SharedCache, k int) (release func(), ok bool) {
	_, release, ok = c.get(bkey(k))
	return release, ok
}

// cached reports whether k is resident, without promoting or pinning it.
func cached(c *SharedCache, k cacheKey) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.idx[k]
	return ok
}

// checkCache asserts the cache's structural invariants: the index and
// the LRU list agree, accounted bytes match the resident set and never
// exceed the budget, no refcount is negative.
func checkCache(t *testing.T, c *SharedCache) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	var sum int64
	n := 0
	for el := c.ll.Front(); el != nil; el = el.Next() {
		ent := el.Value.(*cacheEntry)
		sum += ent.bytes
		n++
		if ent.pins < 0 {
			t.Fatalf("entry %v has negative refcount %d", ent.key, ent.pins)
		}
		if got, ok := c.idx[ent.key]; !ok || got != el {
			t.Fatalf("LRU list and index disagree on %v", ent.key)
		}
	}
	if n != len(c.idx) {
		t.Fatalf("LRU holds %d entries but index holds %d", n, len(c.idx))
	}
	if sum != c.bytes {
		t.Fatalf("accounted bytes %d != resident sum %d", c.bytes, sum)
	}
	if c.bytes > c.budget || c.peakBytes > c.budget {
		t.Fatalf("resident %d / peak %d bytes exceed budget %d", c.bytes, c.peakBytes, c.budget)
	}
}

// sizeOf gives key i its (fixed) value size for the randomized tests:
// 80..6320 bytes, so eviction has to reason in bytes, not counts, and
// some values exceed the whole 4 KiB budget — the refused-insert path.
func sizeOf(i int) int64 { return 16 + 8*int64(8+(i%40)*20) }

var residencyBattery = map[string]func(t *testing.T){
	// A randomized op sequence — pinning gets, pinned adds, releases —
	// against a budget that holds only a few values, checking after
	// every single operation that bytes never exceed the budget and
	// that no pinned value has been evicted.
	"refcount-property": func(t *testing.T) {
		c := NewSharedCache(1 << 12)
		rng := rand.New(rand.NewSource(41))
		type pin struct {
			key      int
			release  func()
			admitted bool
		}
		var pins []pin
		for step := 0; step < 5000; step++ {
			k := rng.Intn(24)
			switch op := rng.Intn(10); {
			case op < 4:
				if release, ok := pinKey(c, k); ok {
					pins = append(pins, pin{k, release, true})
				}
			case op < 7:
				_, release, admitted := addSized(c, k, sizeOf(k))
				pins = append(pins, pin{k, release, admitted})
			default:
				if len(pins) > 0 {
					j := rng.Intn(len(pins))
					pins[j].release()
					pins = append(pins[:j], pins[j+1:]...)
				}
			}
			checkCache(t, c)
			for _, p := range pins {
				if p.admitted && !cached(c, bkey(p.key)) {
					t.Fatalf("step %d: key %d evicted while pinned", step, p.key)
				}
			}
		}
		for _, p := range pins {
			p.release()
		}
		checkCache(t, c)
		s := c.Stats()
		if s.Pinned != 0 {
			t.Fatalf("all pins released but %d entries still pinned", s.Pinned)
		}
		if s.Rejected == 0 || s.Evictions == 0 || s.Hits == 0 {
			t.Fatalf("op mix too tame: %+v", s)
		}
	},

	// The same property under real concurrency: workers pin, hold and
	// release while a sampler asserts the byte budget at arbitrary
	// observation points. Under -race this also proves the locking.
	"concurrent-sampler": func(t *testing.T) {
		const budget = 1 << 12
		c := NewSharedCache(budget)
		stop := make(chan struct{})
		var sampler sync.WaitGroup
		sampler.Add(1)
		go func() {
			defer sampler.Done()
			for {
				select {
				case <-stop:
					return
				default:
					if s := c.Stats(); s.Bytes > budget || s.PeakBytes > budget {
						t.Errorf("observed %d resident / %d peak bytes over budget %d", s.Bytes, s.PeakBytes, budget)
						return
					}
				}
			}
		}()
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for step := 0; step < 2000; step++ {
					k := rng.Intn(16)
					release, admitted := pinKey(c, k)
					if !admitted {
						_, release, admitted = addSized(c, k, sizeOf(k))
					}
					if admitted && !cached(c, bkey(k)) {
						t.Errorf("key %d not resident while this worker pins it", k)
					}
					release()
				}
			}(int64(100 + w))
		}
		wg.Wait()
		close(stop)
		sampler.Wait()
		checkCache(t, c)
		if s := c.Stats(); s.Pinned != 0 {
			t.Fatalf("workers done but %d entries still pinned", s.Pinned)
		}
	},

	// An insert that cannot fit while everything resident is pinned is
	// refused — never blocked on, never admitted over budget — and the
	// first cold entry is what the next insert evicts, never a pinned one.
	"refuse-when-all-pinned": func(t *testing.T) {
		c := NewSharedCache(10 << 10)
		_, relA, okA := addSized(c, 0, 4<<10)
		_, relB, okB := addSized(c, 1, 4<<10)
		if !okA || !okB {
			t.Fatal("two 4 KiB values refused by an empty 10 KiB budget")
		}
		canon, relC, admitted := addSized(c, 2, 4<<10)
		if admitted || canon == nil {
			t.Fatalf("third value admitted=%v canon=%v with both residents pinned", admitted, canon)
		}
		relC() // a refused insert's release is a no-op
		if s := c.Stats(); s.Rejected != 1 || s.Resident != 2 || s.Evictions != 0 || cached(c, bkey(2)) {
			t.Fatalf("after refusal: %+v", s)
		}
		relB()
		if _, _, ok := addSized(c, 3, 4<<10); !ok {
			t.Fatal("insert refused although an unpinned entry could make room")
		}
		if !cached(c, bkey(0)) || cached(c, bkey(1)) {
			t.Fatalf("eviction took the pinned entry (resident: A=%v B=%v)", cached(c, bkey(0)), cached(c, bkey(1)))
		}
		if s := c.Stats(); s.Evictions != 1 {
			t.Fatalf("evictions = %d, want 1", s.Evictions)
		}
		relA()
		checkCache(t, c)
	},

	// Releases are one-shot: releasing one pin twice must not drop a
	// second holder's pin.
	"double-release": func(t *testing.T) {
		c := NewSharedCache(8 << 10)
		_, rel1, _ := addSized(c, 0, 4<<10)
		rel2, ok := pinKey(c, 0)
		if !ok {
			t.Fatal("resident entry not found")
		}
		rel1()
		rel1()
		if _, _, admitted := addSized(c, 1, 8<<10); admitted || !cached(c, bkey(0)) {
			t.Fatal("a double release dropped the second holder's pin: the entry was evicted")
		}
		rel2()
		if _, _, admitted := addSized(c, 1, 8<<10); !admitted || cached(c, bkey(0)) {
			t.Fatal("fully released entry was not evictable")
		}
		if s := c.Stats(); s.Pinned != 1 {
			t.Fatalf("pinned = %d, want only the new entry", s.Pinned)
		}
		checkCache(t, c)
	},

	// drop removes unpinned entries at once and retires pinned ones at
	// their final unpin, so a dropped namespace drains to zero bytes.
	"drop-retires-at-final-unpin": func(t *testing.T) {
		c := NewSharedCache(8 << 10)
		_, relA, _ := addSized(c, 0, 2<<10)
		relA2, _ := pinKey(c, 0)
		_, relB, _ := addSized(c, 1, 2<<10)
		relB()
		c.dropStore(batteryStore)
		if s := c.Stats(); s.Resident != 1 || s.Bytes != 2<<10 || !cached(c, bkey(0)) || cached(c, bkey(1)) {
			t.Fatalf("after drop with one entry pinned: %+v", s)
		}
		relA()
		if !cached(c, bkey(0)) {
			t.Fatal("entry retired while a second holder still pins it")
		}
		relA2()
		if s := c.Stats(); s.Resident != 0 || s.Bytes != 0 || s.Pinned != 0 {
			t.Fatalf("dropped entries did not drain: %+v", s)
		}
		checkCache(t, c)
	},

	// Racing inserts of one key adopt a single canonical value: one entry,
	// one value's bytes, every holder handed the same value.
	"racing-adds-adopt": func(t *testing.T) {
		c := NewSharedCache(64 << 10)
		const racers = 8
		canons := make([]*resident, racers)
		releases := make([]func(), racers)
		var wg sync.WaitGroup
		for i := range canons {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				var admitted bool
				canons[i], releases[i], admitted = addSized(c, 7, 2<<10)
				if !admitted {
					t.Errorf("racer %d refused by a budget that fits the value", i)
				}
			}(i)
		}
		wg.Wait()
		for i, c := range canons {
			if c != canons[0] {
				t.Fatalf("racer %d was handed %p, racer 0 %p: two canonical values", i, c, canons[0])
			}
		}
		if s := c.Stats(); s.Resident != 1 || s.Bytes != 2<<10 || s.Pinned != 1 {
			t.Fatalf("racing inserts left %+v, want one pinned 2 KiB entry", s)
		}
		for _, rel := range releases {
			rel()
		}
		if s := c.Stats(); s.Pinned != 0 {
			t.Fatalf("%d entries pinned after every racer released", s.Pinned)
		}
		checkCache(t, c)
	},
}

func TestResidencyBattery(t *testing.T) {
	for name, property := range residencyBattery {
		t.Run("SharedCache/"+name, property)
	}
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
	if s := c.Stats(); s.Evictions != 4 || s.Resident != 1 || !cached(c, cacheKey{other, 0}) {
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
		checkCache(t, h.Cache())
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
	checkCache(t, h.Cache())
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
