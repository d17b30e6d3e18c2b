package shard

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/frontier"
	"repro/internal/gen"
	"repro/internal/sched"
)

// TestConcurrentApplyPeakDensePageRank is the headline occupancy check:
// with the paper's 4 domains and a 4-deep window, a dense PageRank
// sweep applies at least two shards simultaneously — the cross-domain
// concurrency the sequential pipeline never had. The interleaving is
// enforced, not hoped for: the first apply is held open until a second
// apply has begun on another domain, which the window must permit by
// construction (the held apply frees its staging credit, so the stager
// runs ahead and the next shard's domain starts immediately). A
// pipeline that serialised applies would deadlock here; the timeout
// converts that into a failure. The ranks are then checked against the
// serial oracle, so the forced concurrency is also proven harmless.
func TestConcurrentApplyPeakDensePageRank(t *testing.T) {
	g := gen.TinySocial()
	e := buildSlotEngine(t, g, 16, 8, Options{
		Threads: 4, Window: 4,
		Topology: sched.Topology{Domains: 4},
	})

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
				t.Error("no second apply began while the first was held open: applies are serialised")
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

	st := e.Stats()
	if st.ConcurrentApplyPeak < 2 {
		t.Fatalf("ConcurrentApplyPeak = %d, want >= 2 with D=4 k=4", st.ConcurrentApplyPeak)
	}
	var multi int64
	for l := 1; l < len(st.ApplyLevels); l++ {
		multi += st.ApplyLevels[l]
	}
	if multi == 0 {
		t.Fatal("ApplyLevels records no apply beginning alongside another")
	}
	if st.DenseSweeps == 0 {
		t.Fatal("the PageRank sweeps were not classified dense")
	}
}

// TestStatsSafeUnderConcurrentSweeps hammers Stats() from several
// goroutines while windowed multi-domain sweeps run. Under -race this
// proves the snapshot path is coherent with the concurrent counter
// mutation (satellite: Stats must be safe before the tentpole lands);
// the shape assertions catch torn or mis-sized snapshots.
func TestStatsSafeUnderConcurrentSweeps(t *testing.T) {
	g := gen.TinySocial()
	e := buildSlotEngine(t, g, 16, 4, Options{Threads: 4, Window: 4})

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
				st := e.Stats()
				if st.ShardLoads < 0 || st.CacheHits < 0 || st.ConcurrentApplyPeak < 0 {
					t.Error("negative counter in a mid-sweep snapshot")
					return
				}
				if len(st.ApplyLevels) != e.Topology().Domains ||
					len(st.WindowDepths) != e.Options().Window+1 {
					t.Errorf("snapshot slice sizes %d/%d drifted", len(st.ApplyLevels), len(st.WindowDepths))
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

	st := e.Stats()
	var applies, domainShards int64
	for _, l := range st.ApplyLevels {
		applies += l
	}
	for _, d := range st.DomainShards {
		domainShards += d
	}
	if applies != domainShards {
		t.Fatalf("ApplyLevels sums to %d applies but DomainShards to %d", applies, domainShards)
	}
}

// TestSweepWindowInvariants is the property test pinning the pipeline's
// invariants across window depths, IO depths, budgets, domain counts
// and thread counts, asserted from an event trace recorded by the
// engine hooks:
//
//  1. never more than IODepth uncached loads in flight (exactly one on
//     the historical IODepth = 1 configurations);
//  2. window depth <= max(IODepth, min(k, slots - in-flight applies)),
//     slots being the cache budget in largest-shard units, sampled
//     atomically with the apply count at every staging hand-off, and
//     staged + mid-apply shards <= slots + IODepth (the engine's
//     footprint: the cache budget plus the reads in flight — the
//     pre-aio "budget + 1" at depth one);
//  3. every staged shard is applied exactly once per sweep, and nothing
//     is applied that was not staged;
//  4. never more than min(Domains, Threads) applies in flight, so
//     Threads keeps meaning total parallelism even when domains
//     outnumber workers and Split dealt borrowed worker IDs.
func TestSweepWindowInvariants(t *testing.T) {
	g := gen.TinySocial()
	configs := []struct {
		slots int
		opts  Options
	}{
		{1, Options{Threads: 1, Window: 1}},
		{2, Options{Threads: 2, Window: 2, Topology: sched.Topology{Domains: 2}}},
		{3, Options{Threads: 4, Window: 5}}, // the budget, not the window, is the binding bound
		{8, Options{Threads: 4, Window: 4}},
		{4, Options{Threads: 2, Window: 1, Topology: sched.Topology{Domains: 8}}},
		{2, Options{Threads: 8, Window: 2, Topology: sched.Topology{Domains: 3}}},
		{4, Options{Threads: 4, Window: 4, IODepth: 2}},
		{4, Options{Threads: 4, Window: 4, IODepth: 4, Topology: sched.Topology{Domains: 2}}},
		{2, Options{Threads: 8, Window: 2, IODepth: 2, Topology: sched.Topology{Domains: 4}}},
		{6, Options{Threads: 2, IODepth: 3}}, // defaulted window must cover the read budget
	}
	for ci, c := range configs {
		t.Run(fmt.Sprintf("config-%d", ci), func(t *testing.T) {
			e := buildSlotEngine(t, g, 12, c.slots, c.opts)
			k, budget, iodepth := e.opts.Window, e.slots, e.opts.IODepth
			if budget != c.slots {
				t.Fatalf("engine counts %d slots in a budget of %d largest shards", budget, c.slots)
			}
			applyCap := e.Topology().Domains
			if th := e.Threads(); th < applyCap {
				applyCap = th
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
				limit := budget - applying
				if limit > k {
					limit = k
				}
				if limit < iodepth {
					limit = iodepth
				}
				if depth > limit {
					t.Errorf("window depth %d with %d applies in flight exceeds max(IODepth=%d, min(k=%d, slots=%d - applying)) = %d",
						depth, applying, iodepth, k, budget, limit)
				}
				if depth+applying > budget+iodepth {
					t.Errorf("%d staged + %d applying shards exceed the footprint contract of %d slots + IODepth %d",
						depth, applying, budget, iodepth)
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

			sweep := func(run func()) {
				mu.Lock()
				staged, applied = map[int]int{}, map[int]int{}
				mu.Unlock()
				run()
				mu.Lock()
				defer mu.Unlock()
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
			if maxLoadsInFlight > iodepth {
				t.Fatalf("%d uncached loads in flight at once, want at most IODepth = %d", maxLoadsInFlight, iodepth)
			}
			if maxLoadsInFlight == 0 {
				t.Fatal("no loads observed; the trace recorded nothing")
			}
			if st := e.Stats(); st.ReadsInFlightPeak < 1 || st.ReadsInFlightPeak > int64(iodepth) {
				t.Fatalf("ReadsInFlightPeak = %d outside [1, IODepth = %d]", st.ReadsInFlightPeak, iodepth)
			}
			if maxApplies > applyCap {
				t.Fatalf("%d applies in flight at once, cap is min(Domains, Threads) = %d", maxApplies, applyCap)
			}
			var histogram int64
			for _, n := range e.Stats().WindowDepths {
				histogram += n
			}
			if int(histogram) != stageEvents {
				t.Fatalf("WindowDepths histogram sums to %d but %d hand-offs were staged", histogram, stageEvents)
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
// configured depth: with the single apply goroutine held open
// (Domains: 1 serialises applies), the stager must keep loading until
// exactly k shards sit staged, then stall on the window bound. Both
// directions are asserted — reaching k (a shallower window would stall
// early; the hold makes the hand-off deterministic) and never
// exceeding it (checked by TestSweepWindowInvariants' bound too).
func TestWindowRunsAheadToDepthK(t *testing.T) {
	g := gen.TinySocial()
	const k = 3
	e := buildSlotEngine(t, g, 12, 8, Options{
		Threads: 1, Window: k,
		Topology: sched.Topology{Domains: 1},
	})

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
	var applyOnce sync.Once
	e.onApplyBegin = func(int) {
		applyOnce.Do(func() {
			select {
			case <-deepEnough:
			case <-time.After(10 * time.Second):
				t.Error("stager never filled the window to depth k while the apply was held")
			}
		})
	}

	e.EdgeMap(frontier.All(g), passOp(), api.DirAuto)

	mu.Lock()
	defer mu.Unlock()
	if maxDepth != k {
		t.Fatalf("max window depth %d, want exactly k=%d", maxDepth, k)
	}
	st := e.Stats()
	if st.WindowDepths[k] == 0 {
		t.Fatalf("WindowDepths[%d] = 0 despite the window provably reaching depth %d: %v", k, k, st.WindowDepths)
	}
}
