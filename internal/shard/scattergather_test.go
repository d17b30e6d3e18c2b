package shard

import (
	"encoding/binary"
	"math"
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
)

// decodeBinSegments replays a bin's varint streams back into explicit
// (src, dst) pairs, one slice per segment — the test-side inverse of
// scatterShard's encoder.
func decodeBinSegments(t *testing.T, b *binShard) [][][2]graph.VID {
	t.Helper()
	segs := make([][][2]graph.VID, len(b.segs))
	for ti, seg := range b.segs {
		var prevD, prevS int64
		for pos := 0; pos < len(seg); {
			du, n := binary.Uvarint(seg[pos:])
			if n <= 0 {
				t.Fatalf("shard %d segment %d: truncated destination delta at byte %d", b.idx, ti, pos)
			}
			pos += n
			su, n := binary.Uvarint(seg[pos:])
			if n <= 0 {
				t.Fatalf("shard %d segment %d: truncated source delta at byte %d", b.idx, ti, pos)
			}
			pos += n
			prevD += unzigzag(du)
			prevS += unzigzag(su)
			segs[ti] = append(segs[ti], [2]graph.VID{graph.VID(prevS), b.lo + graph.VID(prevD)})
		}
	}
	return segs
}

// peekBin returns shard si's resident bin without pinning or promoting
// it.
func peekBin(c *binCache, si int) *binShard {
	c.res.mu.Lock()
	defer c.res.mu.Unlock()
	if el, ok := c.res.idx[si]; ok {
		return el.Value.(*resEntry[int, *binShard]).val
	}
	return nil
}

// TestScatterGatherBitIdenticalToEdgeCentric is the engine-level core of
// the differential rungs: the most schedule-sensitive workload (an
// iterative CAS BFS whose rounds cross the sparse/dense boundary, so
// scatter/gather engines mix bin replays with edge-centric fallbacks)
// and float accumulation (PageRank, where any reassociation would move
// bits) produce results identical to the edge-centric mode under a
// tight cache budget that forces bin reuse to matter.
func TestScatterGatherBitIdenticalToEdgeCentric(t *testing.T) {
	g := gen.TinySocial()
	bfs := func(mode SweepMode) ([]int64, []int32) {
		e := buildSlotEngine(t, g, 10, 2, Options{Threads: 4, SweepMode: mode})
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
	ecSizes, ecParents := bfs(SweepEdgeCentric)
	sgSizes, sgParents := bfs(SweepScatterGather)
	if len(ecSizes) != len(sgSizes) {
		t.Fatalf("edge-centric BFS ran %d rounds, scatter/gather ran %d", len(ecSizes), len(sgSizes))
	}
	for r := range ecSizes {
		if ecSizes[r] != sgSizes[r] {
			t.Fatalf("round %d: frontier %d edge-centric vs %d scatter/gather", r, ecSizes[r], sgSizes[r])
		}
	}
	for v := range ecParents {
		if ecParents[v] != sgParents[v] {
			t.Fatalf("parent[%d] = %d edge-centric vs %d scatter/gather", v, ecParents[v], sgParents[v])
		}
	}

	ec := buildSlotEngine(t, g, 10, 2, Options{Threads: 4})
	sg := buildSlotEngine(t, g, 10, 2, Options{Threads: 4, SweepMode: SweepScatterGather})
	ecRanks := prOnSystem(ec, 10)
	sgRanks := prOnSystem(sg, 10)
	for v := range ecRanks {
		if math.Float64bits(ecRanks[v]) != math.Float64bits(sgRanks[v]) {
			t.Fatalf("rank[%d] = %v edge-centric vs %v scatter/gather: modes are not bit-identical", v, ecRanks[v], sgRanks[v])
		}
	}
	if got := sg.Stats().ScatterGatherSweeps; got != 10 {
		t.Fatalf("scatter/gather engine ran %d two-phase sweeps across 10 dense PR iterations, want 10", got)
	}
}

// TestScatterGatherBinsPartitionShards is the bin-partition property
// test: after one complete dense sweep, the retained bins (a) decode to
// exactly the store's edge multiset — bins cover every shard's
// destination range, no edge dropped or duplicated; (b) keep every
// destination inside the owning shard's 64-aligned range; (c) keep
// segments on disjoint 64-vertex units, the invariant that makes
// gather's parallel replay write-exclusive; and (d) are gathered only
// by the shard's own modelled NUMA domain.
func TestScatterGatherBinsPartitionShards(t *testing.T) {
	g := gen.TinySocial()
	const p = 8
	e := buildTestEngine(t, g, p, Options{Threads: 4, SweepMode: SweepScatterGather})
	e.EdgeMap(frontier.All(g), passOp(), api.DirAuto)

	want := make(map[[2]graph.VID]int)
	for _, ed := range g.Edges() {
		want[[2]graph.VID{ed.Src, ed.Dst}]++
	}
	got := make(map[[2]graph.VID]int)
	binsPerDomain := make([]int64, e.opts.Topology.Domains)
	for si := 0; si < e.st.NumShards(); si++ {
		b := peekBin(e.bins, si)
		if b == nil {
			continue
		}
		binsPerDomain[e.domainOf[si]]++
		lo, hi := e.st.Range(si)
		if b.lo != lo {
			t.Fatalf("shard %d bin base %d, want range start %d", si, b.lo, lo)
		}
		unitOwner := make(map[int]int)
		for ti, seg := range decodeBinSegments(t, b) {
			for _, ed := range seg {
				u, v := ed[0], ed[1]
				if int(u) >= g.NumVertices() {
					t.Fatalf("shard %d decoded source %d out of range", si, u)
				}
				if v < lo || v >= hi {
					t.Fatalf("shard %d decoded destination %d outside its range [%d,%d)", si, v, lo, hi)
				}
				unit := int(v-lo) / 64
				if owner, ok := unitOwner[unit]; ok && owner != ti {
					t.Fatalf("shard %d: 64-vertex unit %d written by segments %d and %d — gather would race", si, unit, owner, ti)
				}
				unitOwner[unit] = ti
				got[[2]graph.VID{u, v}]++
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("bins decode %d distinct edges, store holds %d", len(got), len(want))
	}
	for ed, n := range want {
		if got[ed] != n {
			t.Fatalf("edge %v appears %d times in bins, %d in the graph", ed, got[ed], n)
		}
	}

	st := e.Stats()
	for d := range binsPerDomain {
		if st.DomainShards[d] != binsPerDomain[d] {
			t.Fatalf("domain %d gathered %d bins, owns %d — bins crossed domains", d, st.DomainShards[d], binsPerDomain[d])
		}
	}
}

// TestScatterGatherReusesBins pins the mode's bytes-moved win: an
// iterative dense run scatters each shard once, then every later sweep
// replays the retained bins — no further shard loads, bin bytes read
// each sweep, bin bytes written only the first.
func TestScatterGatherReusesBins(t *testing.T) {
	g := gen.TinySocial()
	const iters = 5
	ec := buildSlotEngine(t, g, 8, 2, Options{Threads: 4})
	sg := buildSlotEngine(t, g, 8, 2, Options{Threads: 4, SweepMode: SweepScatterGather})
	prOnSystem(ec, iters)
	prOnSystem(sg, iters)
	requireEvictions(t, ec)

	ecs, sgs := ec.Stats(), sg.Stats()
	if sgs.ScatterGatherSweeps != iters {
		t.Fatalf("ScatterGatherSweeps = %d, want %d", sgs.ScatterGatherSweeps, iters)
	}
	if sgs.BinShardsReused == 0 {
		t.Fatal("no bin was reused across dense iterations")
	}
	if sgs.BinBytesWritten == 0 || sgs.BinBytesRead == 0 {
		t.Fatalf("bin traffic not recorded: written %d, read %d", sgs.BinBytesWritten, sgs.BinBytesRead)
	}
	if sgs.BinBytesRead <= sgs.BinBytesWritten {
		t.Fatalf("BinBytesRead %d <= BinBytesWritten %d; retained bins should be read every sweep but written once",
			sgs.BinBytesRead, sgs.BinBytesWritten)
	}
	if sgs.ShardLoads >= ecs.ShardLoads {
		t.Fatalf("scatter/gather loaded %d shards, edge-centric %d; bin retention should beat the thrashing cache",
			sgs.ShardLoads, ecs.ShardLoads)
	}
	// The first sweep scatters every planned shard; later sweeps load
	// nothing, so total loads equal the distinct planned shards and the
	// read volume is one cold pass over the store. (The thrashing
	// edge-centric engine pays about that per sweep — about, because
	// which cold shard its cache evicts depends on apply timing.)
	if planned := int64(len(sg.planDense(frontier.All(g)))); sgs.ShardLoads != planned {
		t.Fatalf("scatter/gather loaded %d shards across %d iterations over a %d-shard plan; expected exactly one cold pass",
			sgs.ShardLoads, iters, planned)
	}
}

// TestScatterGatherSparseFallsBack: sparse frontiers take the
// edge-centric path — no two-phase sweep, no bin traffic — and the
// traversal still matches the edge-centric engine exactly.
func TestScatterGatherSparseFallsBack(t *testing.T) {
	g := gen.Chain(256)
	e := buildSlotEngine(t, g, 8, 2, Options{Threads: 2, SweepMode: SweepScatterGather})
	parents := make([]int32, g.NumVertices())
	for i := range parents {
		parents[i] = -1
	}
	parents[0] = 0
	f := frontier.FromVertex(g, 0)
	f = e.EdgeMap(f, bfsOp(parents), api.DirAuto)
	st := e.Stats()
	if st.SparseSweeps != 1 {
		t.Fatalf("single-vertex chain frontier classified as dense (SparseSweeps = %d)", st.SparseSweeps)
	}
	if st.ScatterGatherSweeps != 0 || st.BinBytesWritten != 0 || st.BinBytesRead != 0 {
		t.Fatalf("sparse sweep took the scatter/gather path: %+v", st)
	}
	if f.Count() != 1 || parents[1] != 0 {
		t.Fatalf("sparse fallback produced a wrong BFS step: frontier %d, parent[1] = %d", f.Count(), parents[1])
	}

	// A dense sweep on the same engine still runs two-phase.
	e.EdgeMap(frontier.All(g), passOp(), api.DirAuto)
	if got := e.Stats().ScatterGatherSweeps; got != 1 {
		t.Fatalf("dense sweep after the sparse fallback ran %d two-phase sweeps, want 1", got)
	}
}

// TestScatterGatherTeardownOnOperatorPanic mirrors the edge-centric
// fault battery for the two-phase path: a panicking operator strikes
// during gather (scatter runs no operator code), the original panic
// value propagates from EdgeMap, no gather or pipeline goroutine leaks,
// the cache stays inside budget with nothing pinned, the retained bins
// stay valid, and the
// engine remains fully serviceable. Round 0 panics with fresh scatters;
// later rounds panic with every bin reused — both teardown shapes.
func TestScatterGatherTeardownOnOperatorPanic(t *testing.T) {
	baseline := settledGoroutines()

	g := gen.TinySocial()
	e := buildSlotEngine(t, g, 12, 4, Options{Threads: 8, Window: 4, SweepMode: SweepScatterGather})
	boom := api.EdgeOp{
		Update:       func(u, v graph.VID) bool { panic("operator boom") },
		UpdateAtomic: func(u, v graph.VID) bool { panic("operator boom") },
	}
	for i := 0; i < 3; i++ {
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Error("operator panic did not propagate from the scatter/gather sweep")
				} else if s, ok := r.(string); !ok || s != "operator boom" {
					t.Errorf("recovered %v, want the original operator panic value", r)
				}
			}()
			e.EdgeMap(frontier.All(g), boom, api.DirAuto)
		}()
		checkQuiescent(t, e)
	}

	// Bins scattered before the aborted gathers are just the shards
	// re-encoded, so they must replay correctly: count in-edges through
	// the gather path and check against the graph.
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
			t.Fatalf("post-panic gather counted %d in-edges for vertex %d, want %d", counts[v], v, indeg[v])
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for settledGoroutines() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := settledGoroutines(); now > baseline {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutines grew from %d to %d after scatter/gather teardown:\n%s",
			baseline, now, buf[:runtime.Stack(buf, true)])
	}
}

// TestScatterGatherTeardownOnLoadError: a shard-read failure mid-scatter
// aborts the sweep before gather runs — the engine's sweep panic
// surfaces, the failed shard is neither scattered nor binned, no
// goroutine leaks, the cache budget holds with nothing pinned, and once
// the file returns the
// engine produces exact results again.
func TestScatterGatherTeardownOnLoadError(t *testing.T) {
	baseline := settledGoroutines()

	g := gen.TinySocial()
	dir := t.TempDir()
	e := slotEngine(t, createStore(t, dir, g, 12), g, 2, Options{Threads: 4, Window: 2, SweepMode: SweepScatterGather})
	victim := filepath.Join(dir, "shard-0005.bin")
	aside := victim + ".aside"
	if err := os.Rename(victim, aside); err != nil {
		t.Fatal(err)
	}
	scattered := make(map[int]int)
	var mu sync.Mutex
	e.onApplyBegin = func(si int) {
		mu.Lock()
		scattered[si]++
		mu.Unlock()
	}
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Error("mid-scatter load failure did not panic")
				return
			}
			if s, ok := r.(string); !ok || !strings.Contains(s, "shard: engine sweep:") {
				t.Errorf("recovered %v, want the engine's sweep panic prefix", r)
			}
		}()
		e.EdgeMap(frontier.All(g), passOp(), api.DirAuto)
	}()

	mu.Lock()
	for si, n := range scattered {
		if n != 1 {
			t.Errorf("shard %d scattered %d times during the aborted sweep", si, n)
		}
		if si == 5 {
			t.Error("the unreadable shard was scattered")
		}
	}
	mu.Unlock()
	if peekBin(e.bins, 5) != nil {
		t.Error("the unreadable shard acquired a bin")
	}
	checkQuiescent(t, e)

	// Engine reusable once the file is back: the in-edge count must be
	// exact, mixing bins retained from the aborted sweep with a fresh
	// scatter of shard 5.
	if err := os.Rename(aside, victim); err != nil {
		t.Fatal(err)
	}
	e.onApplyBegin = nil
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
			t.Fatalf("post-recovery sweep counted %d in-edges for vertex %d, want %d", counts[v], v, indeg[v])
		}
	}

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
