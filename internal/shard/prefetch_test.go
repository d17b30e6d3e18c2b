package shard

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/frontier"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/sweepref"
)

// passOp is the no-op operator dense-sweep tests drive the engine with.
func passOp() api.EdgeOp {
	return api.EdgeOp{
		Update:       func(u, v graph.VID) bool { return true },
		UpdateAtomic: func(u, v graph.VID) bool { return true },
	}
}

// TestPrefetchOverlapOccurs instruments the load and apply hooks to
// prove the pipeline actually overlaps: the staging goroutine's disk
// load of the second planned shard is held until the sweep goroutine
// has begun applying the first, so when the load proceeds an apply is
// in progress by construction — and the engine must count it as
// overlapped. With a sequential load-then-apply loop this
// synchronisation would deadlock; the timeout converts that into a
// failure.
func TestPrefetchOverlapOccurs(t *testing.T) {
	g := gen.TinySocial()
	e := buildSlotEngine(t, g, 8, 1, Options{})

	applyStarted := make(chan struct{})
	secondLoadDone := make(chan struct{})
	var applyOnce, loadOnce sync.Once
	var loads int64
	e.onApplyBegin = func(int) {
		// Hold the first apply open until the staged load of the next
		// shard has fully completed, so the two provably ran at the
		// same time (and the overlap sampling is deterministic).
		applyOnce.Do(func() {
			close(applyStarted)
			select {
			case <-secondLoadDone:
			case <-time.After(10 * time.Second):
				t.Error("next shard's load never completed while the first apply was held open: pipeline is sequential")
			}
		})
	}
	e.onLoadBegin = func(int) {
		// The first load must proceed unconditionally (nothing is being
		// applied yet); every later load waits for an apply to start.
		if atomic.AddInt64(&loads, 1) == 1 {
			return
		}
		select {
		case <-applyStarted:
		case <-time.After(10 * time.Second):
			t.Error("load of a later shard never saw an apply begin: pipeline is sequential")
		}
	}
	e.onLoadEnd = func(int) {
		if atomic.LoadInt64(&loads) >= 2 {
			loadOnce.Do(func() { close(secondLoadDone) })
		}
	}

	e.EdgeMap(frontier.All(g), passOp(), api.DirAuto)

	st := e.Stats()
	if st.ShardLoads < 2 {
		t.Fatalf("only %d loads; the plan should span several shards", st.ShardLoads)
	}
	if st.OverlappedLoads == 0 {
		t.Fatal("no load overlapped an apply despite the enforced interleaving")
	}
	if st.OverlappedLoads >= st.ShardLoads {
		t.Fatalf("%d of %d loads overlapped; the first load precedes any apply and cannot overlap",
			st.OverlappedLoads, st.ShardLoads)
	}
}

// TestPrefetchServesFromCache: when the cache covers the store, later
// sweeps stage every shard from it and the stager reads no files.
func TestPrefetchServesFromCache(t *testing.T) {
	g := gen.TinySocial()
	const p = 6
	e := buildTestEngine(t, g, p, Options{})
	for i := 0; i < 3; i++ {
		e.EdgeMap(frontier.All(g), passOp(), api.DirAuto)
	}
	st := e.Stats()
	if st.ShardLoads > int64(p) {
		t.Fatalf("%d loads across 3 sweeps, want at most %d", st.ShardLoads, p)
	}
	if want := 2 * st.ShardLoads; st.CacheHits != want {
		t.Fatalf("%d staged shards promoted from the cache across two repeat sweeps of %d shards, want %d",
			st.CacheHits, st.ShardLoads, want)
	}
}

// TestPrefetchTeardownLeaksNoGoroutines is the hand-rolled goleak check
// on a NewEngine-built engine: after full sweeps, a panicking operator
// and a panicking mid-sweep load, the goroutine count settles back to
// the baseline — no staging goroutine outlives its EdgeMap — and on
// each of the three exit paths the engine's cache is left with no pin.
func TestPrefetchTeardownLeaksNoGoroutines(t *testing.T) {
	baseline := settledGoroutines()

	g := gen.TinySocial()
	dir := t.TempDir()
	e, err := NewEngine(createStore(t, dir, g, 12), g, Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}

	// Healthy sweeps, dense and (after the first) cache-assisted.
	for i := 0; i < 3; i++ {
		e.EdgeMap(frontier.All(g), passOp(), api.DirAuto)
	}
	checkQuiescent(t, e)

	// A panicking operator unwinds the sweep mid-plan; the deferred
	// pipeline stop must still reap the staging goroutine and workers.
	// (The window's workers forward panics to the sweep goroutine, so
	// this is recoverable at any thread count; Threads=1 here just keeps
	// the fixture minimal.)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panicking operator did not propagate")
			}
		}()
		e.EdgeMap(frontier.All(g), api.EdgeOp{
			Update:       func(u, v graph.VID) bool { panic("operator boom") },
			UpdateAtomic: func(u, v graph.VID) bool { panic("operator boom") },
		}, api.DirAuto)
	}()
	checkQuiescent(t, e)

	// A mid-sweep load failure: delete a shard file, empty the cache,
	// and sweep again. The staging goroutine delivers the error, the
	// sweep re-panics it, and teardown still reaps everything.
	if err := os.Remove(filepath.Join(dir, "shard-0005.bin")); err != nil {
		t.Fatal(err)
	}
	e.cache.dropStore(e.st)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("mid-sweep load failure did not panic")
			}
		}()
		e.EdgeMap(frontier.All(g), passOp(), api.DirAuto)
	}()
	checkQuiescent(t, e)

	deadline := time.Now().Add(5 * time.Second)
	for settledGoroutines() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := settledGoroutines(); now > baseline {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutines grew from %d to %d after teardown:\n%s",
			baseline, now, buf[:runtime.Stack(buf, true)])
	}
}

// settledGoroutines samples the goroutine count after a GC pass, which
// retires already-finished goroutines' bookkeeping.
func settledGoroutines() int {
	runtime.GC()
	return runtime.NumGoroutine()
}

// TestPipelineMatchesReferenceBitIdentical is the engine-level
// determinism core of the cross-engine differential suite: an iterative
// CAS traversal — the most schedule-sensitive workload — produces
// identical frontier sequences and identical parents on the pipelined
// engine under full parallelism and on the sequential public-API
// reference sweep.
func TestPipelineMatchesReferenceBitIdentical(t *testing.T) {
	g := gen.TinySocial()
	pipelined := buildSlotEngine(t, g, 10, 2, Options{})
	run := func(e api.System) ([]int64, []int32) {
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
		return sizes, parents
	}
	onSizes, onParents := run(pipelined)
	offSizes, offParents := run(sweepref.New(pipelined.st, g))
	requireEvictions(t, pipelined)
	if len(onSizes) != len(offSizes) {
		t.Fatalf("the pipeline ran %d rounds, the reference %d", len(onSizes), len(offSizes))
	}
	for r := range onSizes {
		if onSizes[r] != offSizes[r] {
			t.Fatalf("round %d: frontier %d pipelined vs %d on the reference", r, onSizes[r], offSizes[r])
		}
	}
	for v := range onParents {
		if onParents[v] != offParents[v] {
			t.Fatalf("parent[%d] = %d pipelined vs %d on the reference", v, onParents[v], offParents[v])
		}
	}
}

// TestConcurrentTeardownOnOperatorPanic is the k > 1 fault-path check:
// a multi-threaded sweep with several shards staged ahead
// is torn down cleanly when the operator panics mid-apply — the panic
// propagates to the EdgeMap caller (recoverable), no pipeline goroutine
// leaks, the cache stays inside its budget with nothing pinned, and the
// engine remains fully serviceable: a subsequent healthy sweep produces
// correct counts.
func TestConcurrentTeardownOnOperatorPanic(t *testing.T) {
	baseline := settledGoroutines()

	g := gen.TinySocial()
	e := buildSlotEngine(t, g, 12, 4, Options{Threads: 8})
	boom := api.EdgeOp{
		Update:       func(u, v graph.VID) bool { panic("operator boom") },
		UpdateAtomic: func(u, v graph.VID) bool { panic("operator boom") },
	}
	// Several rounds so teardown is exercised against different cache
	// temperatures (cold, then partially warm).
	for i := 0; i < 3; i++ {
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Error("operator panic did not propagate from the concurrent sweep")
				} else if s, ok := r.(string); !ok || s != "operator boom" {
					t.Errorf("recovered %v, want the original operator panic value", r)
				}
			}()
			e.EdgeMap(frontier.All(g), boom, api.DirAuto)
		}()
		checkQuiescent(t, e)
	}

	// The engine must still work: count in-edges and check them against
	// the graph (concurrent tasks write disjoint destination ranges, so
	// the plain increment is exact).
	counts := make([]int64, g.NumVertices())
	e.EdgeMap(frontier.All(g), api.EdgeOp{
		Update:       func(u, v graph.VID) bool { counts[v]++; return true },
		UpdateAtomic: func(u, v graph.VID) bool { atomic.AddInt64(&counts[v], 1); return true },
	}, api.DirAuto)
	indeg := make([]int64, g.NumVertices())
	for _, ed := range g.Edges() {
		indeg[ed.Dst]++
	}
	for v := range counts {
		if counts[v] != indeg[v] {
			t.Fatalf("post-panic sweep counted %d in-edges for vertex %d, want %d", counts[v], v, indeg[v])
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for settledGoroutines() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := settledGoroutines(); now > baseline {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutines grew from %d to %d after concurrent teardown:\n%s",
			baseline, now, buf[:runtime.Stack(buf, true)])
	}
}

// TestConcurrentTeardownOnLoadError: a shard-read error with k > 1
// shards staged ahead aborts the whole pipeline — the error surfaces as
// the engine's sweep panic, the workers drain without applying stale
// work twice, no goroutine leaks, and the cache budget is intact
// with nothing pinned.
func TestConcurrentTeardownOnLoadError(t *testing.T) {
	baseline := settledGoroutines()

	g := gen.TinySocial()
	dir := t.TempDir()
	e := slotEngine(t, createStore(t, dir, g, 12), g, 2, Options{Threads: 4})
	// Shard 5 is mid-plan for this graph (shards 0..6 carry edges), so
	// the failure strikes with earlier shards already staged and
	// applying.
	if err := os.Remove(filepath.Join(dir, "shard-0005.bin")); err != nil {
		t.Fatal(err)
	}
	applied := make(map[int]int)
	var mu sync.Mutex
	e.onApplyBegin = func(si int) {
		mu.Lock()
		applied[si]++
		mu.Unlock()
	}
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Error("mid-sweep load failure did not panic")
				return
			}
			if s, ok := r.(string); !ok || !strings.Contains(s, "shard: engine sweep:") {
				t.Errorf("recovered %v, want the engine's sweep panic prefix", r)
			}
		}()
		e.EdgeMap(frontier.All(g), passOp(), api.DirAuto)
	}()

	mu.Lock()
	for si, n := range applied {
		if n != 1 {
			t.Errorf("shard %d applied %d times during the aborted sweep", si, n)
		}
		if si == 5 {
			t.Error("the unreadable shard was applied")
		}
	}
	mu.Unlock()
	checkQuiescent(t, e)

	deadline := time.Now().Add(5 * time.Second)
	for settledGoroutines() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := settledGoroutines(); now > baseline {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutines grew from %d to %d after load-error teardown:\n%s",
			baseline, now, buf[:runtime.Stack(buf, true)])
	}
}
