package shard

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/frontier"
	"repro/internal/gen"
)

// TestOneShardPlanRunsOnTheWholePool: a one-shard plan is not confined
// to one worker — the window hands its tasks to the whole pool. The
// first task is held open until a second task of the same shard has
// begun, which only a second worker can do; a window that applied each
// shard on one worker would stall here, and the timeout converts that
// into a failure. The in-degree counts then prove every edge was
// applied exactly once.
func TestOneShardPlanRunsOnTheWholePool(t *testing.T) {
	g := gen.TinySocial()
	e := buildSlotEngine(t, g, 1, 2, Options{Threads: 4})
	if plan := e.planDense(frontier.All(g)); len(plan) != 1 {
		t.Fatalf("fixture broken: dense plan %v, want one shard", plan)
	}
	if tasks := e.taskCount(0); tasks < 2 {
		t.Fatalf("fixture broken: the shard splits into %d task(s), need at least 2", tasks)
	}

	var mu sync.Mutex
	workers := map[int]bool{}
	begun := 0
	second := make(chan struct{})
	e.onTask = func(_, _, worker int) {
		mu.Lock()
		workers[worker] = true
		begun++
		n := begun
		if n == 2 {
			close(second)
		}
		mu.Unlock()
		if n == 1 {
			select {
			case <-second:
			case <-time.After(10 * time.Second):
				t.Error("no second task began while the first was held open: the shard is applied by one worker")
			}
		}
	}

	checkInDegrees(t, e, g)

	mu.Lock()
	defer mu.Unlock()
	if len(workers) < 2 {
		t.Fatalf("the one-shard plan ran on workers %v, want at least 2", workers)
	}
	if begun != e.taskCount(0) {
		t.Fatalf("%d tasks ran, the shard has %d", begun, e.taskCount(0))
	}
}

// TestHeldApplyLetsTheNextShardBegin: holding one shard's apply open
// does not stall the sweep — the other workers finish its remaining
// tasks and begin the next shard, which the window must permit by
// construction (the held shard frees its staging credit, so the stager
// runs ahead). A pipeline that serialised shards would deadlock here;
// the timeout converts that into a failure. The ranks are then checked
// against the serial oracle, so the forced concurrency is also proven
// harmless.
func TestHeldApplyLetsTheNextShardBegin(t *testing.T) {
	g := gen.TinySocial()
	e := buildSlotEngine(t, g, 16, 8, Options{Threads: 4})

	var mu sync.Mutex
	begun := 0
	second := make(chan struct{})
	e.onApplyBegin = func(int) {
		mu.Lock()
		begun++
		n := begun
		if n == 2 {
			close(second)
		}
		mu.Unlock()
		if n == 1 {
			select {
			case <-second:
			case <-time.After(10 * time.Second):
				t.Error("no second shard began while the first was held open: applies are serialised")
			}
		}
	}

	got := prOnSystem(e, 5)
	want := serialPR(g, 5)
	for v := range want {
		if math.Abs(got[v]-want[v]) > 1e-12 {
			t.Fatalf("rank[%d] = %v, want %v under concurrent apply", v, got[v], want[v])
		}
	}
	if st := e.Stats(); st.DenseSweeps == 0 {
		t.Fatal("the PageRank sweeps were not classified dense")
	}
}

// TestStatsSafeUnderConcurrentSweeps hammers Stats() from several
// goroutines while windowed multi-worker sweeps run. Under -race this
// proves the snapshot path is coherent with the concurrent counter
// mutation.
func TestStatsSafeUnderConcurrentSweeps(t *testing.T) {
	g := gen.TinySocial()
	e := buildSlotEngine(t, g, 16, 4, Options{Threads: 4})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if st := e.Stats(); st.ShardLoads < 0 || st.CacheHits < 0 || st.DenseSweeps < 0 {
					t.Error("negative counter in a mid-sweep snapshot")
					return
				}
			}
		}()
	}
	for i := 0; i < 5; i++ {
		e.EdgeMap(frontier.All(g), passOp(), api.DirAuto)
	}
	close(stop)
	wg.Wait()

	if st := e.Stats(); st.DenseSweeps != 5 || st.ShardLoads+st.CacheHits == 0 {
		t.Fatalf("after 5 dense sweeps: %+v", st)
	}
}

// TestSweepWindowInvariants is the property test pinning the pipeline's
// invariants across budgets and thread counts (the window's depth cap),
// asserted from an event trace recorded by the engine hooks:
//
//  1. never more than one uncached load in flight;
//  2. window depth <= max(1, min(2×Threads, slots - applying shards)),
//     slots being the cache budget in largest-shard units, sampled
//     atomically with the applying count at every staging hand-off, and
//     staged + applying shards <= slots + 1 (the engine's footprint:
//     the cache budget plus the read in flight);
//  3. every staged shard is applied exactly once per sweep, and nothing
//     is applied that was not staged;
//  4. never more than Threads shards mid-apply: a shard is applying
//     only while a worker holds one of its tasks.
func TestSweepWindowInvariants(t *testing.T) {
	g := gen.TinySocial()
	configs := []struct {
		slots int
		opts  Options
	}{
		{1, Options{Threads: 1}},
		{2, Options{Threads: 2}},
		{3, Options{Threads: 5}}, // the budget, not the thread count, is the binding bound
		{8, Options{Threads: 4}},
		{4, Options{Threads: 8}},
		{2, Options{Threads: 3}},
		{4, Options{Threads: 4}},
		{4, Options{Threads: 2}},
		{2, Options{Threads: 8}},
		{6, Options{Threads: 2}},
	}
	for ci, c := range configs {
		t.Run(fmt.Sprintf("config-%d", ci), func(t *testing.T) {
			e := buildSlotEngine(t, g, 12, c.slots, c.opts)
			k, budget := e.Threads(), e.slots
			if budget != c.slots {
				t.Fatalf("engine counts %d slots in a budget of %d largest shards", budget, c.slots)
			}

			var mu sync.Mutex
			loadsInFlight, maxLoadsInFlight := 0, 0
			applies, maxApplies := 0, 0
			staged := map[int]int{}
			applied := map[int]int{}
			stageEvents := 0
			e.onLoadBegin = func(int) {
				mu.Lock()
				loadsInFlight++
				if loadsInFlight > maxLoadsInFlight {
					maxLoadsInFlight = loadsInFlight
				}
				mu.Unlock()
			}
			e.onLoadEnd = func(int) {
				mu.Lock()
				loadsInFlight--
				mu.Unlock()
			}
			e.onStage = func(si, depth, applying int) {
				limit := max(1, min(stagedPerWorker*k, budget-applying))
				if depth > limit {
					t.Errorf("window depth %d with %d shards applying exceeds max(1, min(2×Threads=%d, slots=%d - applying)) = %d",
						depth, applying, k, budget, limit)
				}
				if depth+applying > budget+1 {
					t.Errorf("%d staged + %d applying shards exceed the footprint contract of %d slots + 1",
						depth, applying, budget)
				}
				mu.Lock()
				staged[si]++
				stageEvents++
				mu.Unlock()
			}
			e.onApplyBegin = func(si int) {
				mu.Lock()
				applied[si]++
				applies++
				if applies > maxApplies {
					maxApplies = applies
				}
				mu.Unlock()
			}
			e.onApplyEnd = func(int) {
				mu.Lock()
				applies--
				mu.Unlock()
			}

			// A sparse plan the cache holds whole runs inline, outside
			// the window (sparse.go): it must stage nothing and apply each
			// planned shard once. Every other sweep is held to the window
			// invariants.
			inline := map[int]int{}
			e.onInline = func(si int, _ bool) {
				mu.Lock()
				inline[si]++
				mu.Unlock()
			}

			sweep := func(run func()) {
				mu.Lock()
				staged, applied, inline = map[int]int{}, map[int]int{}, map[int]int{}
				mu.Unlock()
				run()
				mu.Lock()
				defer mu.Unlock()
				if len(inline) > 0 {
					if len(staged) > 0 {
						t.Errorf("an inline sweep staged %d shards", len(staged))
					}
					for si, n := range inline {
						if n != 1 {
							t.Errorf("shard %d applied %d times in one inline sweep", si, n)
						}
					}
					return
				}
				for si, n := range staged {
					if applied[si] != n {
						t.Errorf("shard %d staged %d times but applied %d times in one sweep", si, n, applied[si])
					}
					if n != 1 {
						t.Errorf("shard %d staged %d times in one sweep, want exactly once", si, n)
					}
				}
				for si := range applied {
					if staged[si] == 0 {
						t.Errorf("shard %d applied without being staged", si)
					}
				}
			}

			// A dense sweep, then a full multi-round traversal (sparse and
			// dense rounds, cache hits and evictions).
			sweep(func() { e.EdgeMap(frontier.All(g), passOp(), api.DirAuto) })
			parents := newParents(g.NumVertices())
			f := frontier.FromVertex(g, 0)
			parents[0] = 0
			for !f.IsEmpty() {
				next := f
				sweep(func() { next = e.EdgeMap(f, bfsOp(parents), api.DirAuto) })
				f = next
			}

			mu.Lock()
			defer mu.Unlock()
			if maxLoadsInFlight != 1 {
				t.Fatalf("at most %d uncached loads in flight at once, want exactly 1", maxLoadsInFlight)
			}
			if maxApplies > k {
				t.Fatalf("%d shards mid-apply at once, want at most Threads = %d", maxApplies, k)
			}
			if stageEvents == 0 {
				t.Fatal("no shard was staged")
			}
			checkQuiescent(t, e)
		})
	}
}

// newParents returns a parent array initialised to -1, the bfsOp
// convention.
func newParents(n int) []int32 {
	p := make([]int32, n)
	for i := range p {
		p[i] = -1
	}
	return p
}

// TestWindowRunsAheadToDepthK proves the stager actually uses the
// window's depth cap k, two shards per worker: with every apply held
// open (so one shard per worker is applying), the stager must keep
// loading until exactly k shards sit staged, then stall on the window
// bound. Both directions are asserted — reaching k (a shallower window
// would stall early; the hold makes the hand-off deterministic) and
// never exceeding it (checked by TestSweepWindowInvariants' bound too).
func TestWindowRunsAheadToDepthK(t *testing.T) {
	g := gen.TinySocial()
	const threads, k = 2, stagedPerWorker * 2
	e := buildSlotEngine(t, g, 12, 8, Options{Threads: threads})
	if plan := e.planDense(frontier.All(g)); len(plan) < threads+k {
		t.Fatalf("fixture broken: dense plan %v needs at least %d shards", plan, threads+k)
	}

	var mu sync.Mutex
	maxDepth := 0
	deepEnough := make(chan struct{})
	var once sync.Once
	e.onStage = func(_, depth, _ int) {
		mu.Lock()
		if depth > maxDepth {
			maxDepth = depth
		}
		mu.Unlock()
		if depth >= k {
			once.Do(func() { close(deepEnough) })
		}
	}
	e.onApplyBegin = func(int) {
		select {
		case <-deepEnough:
		case <-time.After(10 * time.Second):
			t.Error("stager never filled the window to depth k while the applies were held")
		}
	}

	e.EdgeMap(frontier.All(g), passOp(), api.DirAuto)

	mu.Lock()
	defer mu.Unlock()
	if maxDepth != k {
		t.Fatalf("max window depth %d, want exactly k=%d", maxDepth, k)
	}
}

// sweepHooked calls before ahead of every EdgeMap of the session it
// wraps.
type sweepHooked struct {
	*Engine
	before func()
}

func (s sweepHooked) EdgeMap(f *frontier.Frontier, op api.EdgeOp, d api.Direction) *frontier.Frontier {
	s.before()
	return s.Engine.EdgeMap(f, op, d)
}

// TestHostReadsOneAtATimeInPlanOrder: two sessions of one Host sweep
// concurrently on four threads over a budget of four slots — PageRank
// on one, BFS then PageRank on the other, so dense sweeps overlap
// with both dense and sparse ones. Host-wide, no two disk reads ever overlap
// (the host's read lock), and each session begins its reads in its
// plan order — ascending within every EdgeMap — because its stager
// fetches plan entries one at a time, in order; a read further down the
// plan can never run while the stager waits on an earlier one.
func TestHostReadsOneAtATimeInPlanOrder(t *testing.T) {
	// Uniform destinations: all 16 shards hold in-edges and decode to
	// about the same bytes, so four slots hold a quarter of the store.
	g := gen.ErdosRenyi(1<<10, 1<<13, 7)
	st := createStore(t, t.TempDir(), g, 16)
	h, err := NewHost(st, g, nil, Options{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	h.cache = NewSharedCache(4 * h.maxShardBytes)

	var inFlight, overlaps atomic.Int32
	var sessions [2]*Engine
	var last, reads [2]int // session i's stager writes these; its sweep goroutine reads them between sweeps
	for i := range sessions {
		e := h.NewSession()
		e.onLoadBegin = func(si int) {
			if inFlight.Add(1) > 1 {
				overlaps.Add(1)
			}
			if si <= last[i] {
				t.Errorf("session %d read shard %d after shard %d in one sweep: reads left plan order", i, si, last[i])
			}
			last[i] = si
			reads[i]++
		}
		e.onLoadEnd = func(int) { inFlight.Add(-1) }
		sessions[i] = e
	}
	hooked := func(i int) api.System {
		return sweepHooked{sessions[i], func() { last[i] = -1 }}
	}

	want := serialPR(g, 8)
	var ranks [2][]float64
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		ranks[0] = prOnSystem(hooked(0), 8)
	}()
	go func() {
		defer wg.Done()
		sys := hooked(1)
		parents := newParents(g.NumVertices())
		parents[0] = 0
		for f := frontier.FromVertex(g, 0); !f.IsEmpty(); {
			f = sys.EdgeMap(f, bfsOp(parents), api.DirAuto)
		}
		ranks[1] = prOnSystem(sys, 8)
	}()
	wg.Wait()

	if n := overlaps.Load(); n != 0 {
		t.Fatalf("%d disk reads began while another was in flight on the same host", n)
	}
	for i, r := range ranks {
		if reads[i] == 0 {
			t.Fatalf("session %d read nothing from disk; the budget held the store", i)
		}
		for v := range want {
			if math.Abs(r[v]-want[v]) > 1e-12 {
				t.Fatalf("session %d: rank[%d] = %v, want %v", i, v, r[v], want[v])
			}
		}
	}
	requireEvictions(t, sessions[0])
	checkQuiescent(t, sessions[0])
}
