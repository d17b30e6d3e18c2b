package shard

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/frontier"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/sweepref"
)

// checkInDegrees sweeps e once with an in-edge counting operator and
// checks every vertex's count against g.
func checkInDegrees(t *testing.T, e *Engine, g *graph.Graph) {
	t.Helper()
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
			t.Fatalf("sweep counted %d in-edges for vertex %d, want %d", counts[v], v, indeg[v])
		}
	}
}

// TestAIOReadsRunAheadToIODepth pins the read path at its fixed depth of
// one read: reads run ahead of the applies — with every apply held
// open, the stager keeps reading until the window is full — yet they are
// issued one at a time and in plan order. The held applies make the
// run-ahead exact: one shard applying per worker plus a full window of
// min(2×Threads, slots − Threads) staged shards is how many reads must
// complete before the stager stalls. A stager that waited on the
// applies would deadlock here; the timeout turns that into a failure.
func TestAIOReadsRunAheadToIODepth(t *testing.T) {
	g := gen.TinySocial()
	const threads, slots = 2, 8
	want := threads + min(stagedPerWorker*threads, slots-threads)
	e := buildSlotEngine(t, g, 12, slots, Options{Threads: threads})
	plan := e.planDense(frontier.All(g))
	if len(plan) <= want {
		t.Fatalf("fixture broken: dense plan %v needs more than %d shards", plan, want)
	}

	var inFlight, overlaps atomic.Int32
	var reads []int // appended on the staging goroutine, read after EdgeMap returns
	windowFull := make(chan struct{})
	e.onLoadBegin = func(si int) {
		if inFlight.Add(1) > 1 {
			overlaps.Add(1)
		}
		reads = append(reads, si)
	}
	e.onLoadEnd = func(int) {
		inFlight.Add(-1)
		if len(reads) == want {
			close(windowFull)
		}
	}
	e.onApplyBegin = func(int) {
		select {
		case <-windowFull:
		case <-time.After(10 * time.Second):
			t.Error("the stager stopped reading while the applies were held: reads do not run ahead of the applies")
		}
	}

	checkInDegrees(t, e, g)

	if n := overlaps.Load(); n != 0 {
		t.Fatalf("%d reads began while another was in flight; the read depth is one", n)
	}
	if !reflect.DeepEqual(reads, plan) {
		t.Fatalf("cold sweep read shards %v, want exactly the plan %v in order", reads, plan)
	}
	if st := e.Stats(); st.OverlappedLoads == 0 {
		t.Fatal("no read overlapped the held apply")
	}
}

// TestAIOJitterBitIdenticalAcrossIODepths is the slow-read fault
// injection ladder. Reads are issued one at a time in plan order, so
// jitter cannot reorder their completions; what it still moves is how
// far the stager runs ahead of the applies — and with it which shards
// are staged, applying or evicted at any moment. With per-shard read
// delays, at window depths 1, 2 and 4 (the thread count), an iterative
// CAS traversal plus PageRank must stay bit-identical to the sequential
// public-API reference sweep.
func TestAIOJitterBitIdenticalAcrossIODepths(t *testing.T) {
	g := gen.TinySocial()
	st := createStore(t, t.TempDir(), g, 10)
	run := func(e api.System) ([]int64, []int32, []float64) {
		parents := newParents(g.NumVertices())
		parents[0] = 0
		var sizes []int64
		f := frontier.FromVertex(g, 0)
		for !f.IsEmpty() {
			f = e.EdgeMap(f, bfsOp(parents), api.DirAuto)
			sizes = append(sizes, f.Count())
		}
		return sizes, parents, prOnSystem(e, 5)
	}

	wantSizes, wantParents, wantRanks := run(sweepref.New(st, g))
	for _, threads := range []int{1, 2, 4} {
		e := slotEngine(t, st, g, 2, Options{Threads: threads})
		e.onLoadBegin = func(si int) {
			// Deterministic per-shard delays, spread so the stager's lead
			// over the applies keeps changing across the plan.
			time.Sleep(time.Duration(si%3) * time.Millisecond)
		}
		sizes, parents, ranks := run(e)
		requireEvictions(t, e)
		if !reflect.DeepEqual(sizes, wantSizes) {
			t.Fatalf("Threads=%d: frontier sizes %v, want %v", threads, sizes, wantSizes)
		}
		if !reflect.DeepEqual(parents, wantParents) {
			t.Fatalf("Threads=%d: BFS parents diverge from the sequential reference", threads)
		}
		if !reflect.DeepEqual(ranks, wantRanks) {
			t.Fatalf("Threads=%d: PageRank diverges bit-wise from the sequential reference", threads)
		}
	}
}

// TestAIOTeardownOnMidFlightReadError: a read failure that strikes while
// earlier shards are staged and applying on other workers aborts the
// sweep with the engine's panic prefix, leaks no goroutine, keeps the
// cache inside its budget with nothing pinned, and leaves the engine
// fully serviceable: once the file is restored, a healthy sweep produces
// correct counts.
func TestAIOTeardownOnMidFlightReadError(t *testing.T) {
	baseline := settledGoroutines()

	g := gen.TinySocial()
	dir := t.TempDir()
	e := slotEngine(t, createStore(t, dir, g, 12), g, 4, Options{Threads: 4})
	victim := filepath.Join(dir, "shard-0005.bin")
	saved, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(victim); err != nil {
		t.Fatal(err)
	}

	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Error("mid-flight read failure did not panic")
				return
			}
			if s, ok := r.(string); !ok || !strings.Contains(s, "shard: engine sweep:") {
				t.Errorf("recovered %v, want the engine's sweep panic prefix", r)
			}
		}()
		e.EdgeMap(frontier.All(g), passOp(), api.DirAuto)
	}()
	checkQuiescent(t, e)

	// The engine must remain reusable once the fault clears.
	if err := os.WriteFile(victim, saved, 0o644); err != nil {
		t.Fatal(err)
	}
	checkInDegrees(t, e, g)

	deadline := time.Now().Add(5 * time.Second)
	for settledGoroutines() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := settledGoroutines(); now > baseline {
		t.Fatalf("goroutines grew from %d to %d after mid-flight-failure teardown", baseline, now)
	}
}
