package shard

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/frontier"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/sched"
	"repro/internal/sweepref"
)

// TestAIOReadsRunAheadToIODepth proves the read pipeline genuinely
// issues concurrent uncached reads: the first shard read is held open
// until a second read has begun, which an IODepth > 1 engine must
// permit by construction (the stager claims window credits and issues
// reads without waiting for earlier completions). The pre-aio engine —
// every load synchronous on the stager — would deadlock here; the
// timeout converts that into a failure. The sweep's output is then
// checked, so the forced read concurrency is also proven harmless.
func TestAIOReadsRunAheadToIODepth(t *testing.T) {
	g := gen.TinySocial()
	const depth = 4
	e := buildSlotEngine(t, g, 12, 8, Options{
		Threads: 2, Window: 4, IODepth: depth,
		Topology: sched.Topology{Domains: 1},
	})

	var loads int64
	second := make(chan struct{})
	e.onLoadBegin = func(int) {
		if atomic.AddInt64(&loads, 1) == 2 {
			close(second)
		}
	}
	var holdOnce sync.Once
	e.onLoadEnd = func(int) {
		// Hold the first completing read until another read has begun,
		// so two reads provably executed at the same time.
		holdOnce.Do(func() {
			select {
			case <-second:
			case <-time.After(10 * time.Second):
				t.Error("no second read began while the first was held open: reads are serialised despite IODepth > 1")
			}
		})
	}

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
			t.Fatalf("concurrent-read sweep counted %d in-edges for vertex %d, want %d", counts[v], v, indeg[v])
		}
	}

	st := e.Stats()
	if st.ReadsInFlightPeak < 2 {
		t.Fatalf("ReadsInFlightPeak = %d, want >= 2 with IODepth = %d and the enforced interleaving", st.ReadsInFlightPeak, depth)
	}
	if st.ReadsInFlightPeak > depth {
		t.Fatalf("ReadsInFlightPeak = %d exceeds IODepth = %d", st.ReadsInFlightPeak, depth)
	}
	if len(st.ReadDepths) != depth+1 {
		t.Fatalf("ReadDepths has %d buckets, want IODepth+1 = %d", len(st.ReadDepths), depth+1)
	}
	var multi int64
	for d := 2; d < len(st.ReadDepths); d++ {
		multi += st.ReadDepths[d]
	}
	if multi == 0 {
		t.Fatalf("ReadDepths records no read beginning alongside another: %v", st.ReadDepths)
	}
}

// TestAIOJitterBitIdenticalAcrossIODepths is the slow-read fault
// injection ladder: per-shard read delays force completions to reorder
// across the in-flight reads, and an iterative CAS traversal plus
// PageRank must still be bit-identical at IODepth 1, 2 and 4 to the
// sequential public-API reference sweep — the engine's
// reap-in-plan-order discipline, not completion timing, decides every
// result.
func TestAIOJitterBitIdenticalAcrossIODepths(t *testing.T) {
	g := gen.TinySocial()
	st := createStore(t, t.TempDir(), g, 10)
	run := func(e api.System) ([]int64, []int32, []float64) {
		parents := make([]int32, g.NumVertices())
		for i := range parents {
			parents[i] = -1
		}
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
	for _, depth := range []int{1, 2, 4} {
		e := slotEngine(t, st, g, 2, Options{Threads: 4, Window: 4, IODepth: depth})
		e.onLoadBegin = func(si int) {
			// Deterministic per-shard delays, spread so that a later
			// plan entry's read regularly completes before an earlier
			// one's.
			time.Sleep(time.Duration(si%3) * time.Millisecond)
		}
		sizes, parents, ranks := run(e)
		requireEvictions(t, e)
		if !reflect.DeepEqual(sizes, wantSizes) {
			t.Fatalf("IODepth=%d: frontier sizes %v, want %v", depth, sizes, wantSizes)
		}
		if !reflect.DeepEqual(parents, wantParents) {
			t.Fatalf("IODepth=%d: BFS parents diverge from the sequential reference", depth)
		}
		if !reflect.DeepEqual(ranks, wantRanks) {
			t.Fatalf("IODepth=%d: PageRank diverges bit-wise from the sequential reference", depth)
		}
	}
}

// TestAIOTeardownOnMidFlightReadError: a read failure with IODepth > 1
// — other reads genuinely in flight when the failure strikes — aborts
// the sweep with the engine's panic prefix, leaks no goroutine (the
// reader's workers included), keeps the cache inside its budget with
// nothing pinned, and leaves the engine fully serviceable: once the
// file is restored, a healthy sweep produces correct counts.
func TestAIOTeardownOnMidFlightReadError(t *testing.T) {
	baseline := settledGoroutines()

	g := gen.TinySocial()
	dir := t.TempDir()
	e := slotEngine(t, createStore(t, dir, g, 12), g, 4, Options{Threads: 4, Window: 4, IODepth: 4})
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
			t.Fatalf("post-failure sweep counted %d in-edges for vertex %d, want %d", counts[v], v, indeg[v])
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for settledGoroutines() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := settledGoroutines(); now > baseline {
		t.Fatalf("goroutines grew from %d to %d after mid-flight-failure teardown", baseline, now)
	}
}
