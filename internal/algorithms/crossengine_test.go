package algorithms

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/frontier"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/ligra"
	"repro/internal/partition"
	"repro/internal/polymer"
	"repro/internal/shard"
	"repro/internal/sweepref"
)

// Cross-engine property tests: on randomly generated graphs, every
// engine must agree with the serial oracle for every algorithm. This is
// the broad-coverage counterpart to the fixed-fixture tests in
// algorithms_test.go.

// randomGraph deterministically expands fuzz bytes into a graph.
func randomGraph(raw []uint16, nBits uint8) *graph.Graph {
	n := 1 << (3 + nBits%6) // 8..256 vertices
	edges := make([]graph.Edge, 0, len(raw)/2)
	for i := 0; i+1 < len(raw); i += 2 {
		edges = append(edges, graph.Edge{
			Src: graph.VID(int(raw[i]) % n),
			Dst: graph.VID(int(raw[i+1]) % n),
		})
	}
	return graph.FromEdges(n, edges)
}

// oocStore writes g into a fresh temp directory with p partitions.
func oocStore(t *testing.T, g *graph.Graph, p int) *shard.Store {
	t.Helper()
	st, err := shard.Create(t.TempDir(), g, shard.WriteOptions{Partitions: p})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// legacyStore writes g with p partitions as a store in an older shard
// encoding, v1 or v2 — byte for byte what Create wrote for that format
// when it still wrote it: the v3 store Create writes, its base files
// re-encoded from the partitioner's parts (v1 in their CSR order as
// the raw count and two arrays, v2 (dst,src)-sorted as magic, count
// and one delta+uvarint stream) and its manifest magic renamed. Only
// the readers of those formats are production code; this writer is
// the test's own.
func legacyStore(t *testing.T, g *graph.Graph, p int, format shard.Format) *shard.Store {
	t.Helper()
	dir := t.TempDir()
	if _, err := shard.Create(dir, g, shard.WriteOptions{Partitions: p}); err != nil {
		t.Fatal(err)
	}
	pt := partition.ByDestination(g, p, partition.BalanceEdges)
	for i, part := range partition.NewPCOO(g, pt).Parts {
		var buf []byte
		switch format {
		case shard.FormatV1:
			buf = binary.LittleEndian.AppendUint64(buf, uint64(len(part.Src)))
			for _, arr := range [][]graph.VID{part.Src, part.Dst} {
				for _, v := range arr {
					buf = binary.LittleEndian.AppendUint32(buf, v)
				}
			}
		case shard.FormatV2:
			order := make([]int, len(part.Src))
			for e := range order {
				order[e] = e
			}
			sort.SliceStable(order, func(a, b int) bool { return part.Dst[order[a]] < part.Dst[order[b]] })
			buf = binary.AppendUvarint(append(buf, "GGS2"...), uint64(len(order)))
			var prevDst, prevSrc graph.VID
			for k, e := range order {
				d, s := part.Dst[e], part.Src[e]
				buf = binary.AppendUvarint(buf, uint64(d-prevDst))
				if k > 0 && d == prevDst {
					buf = binary.AppendUvarint(buf, uint64(s-prevSrc))
				} else {
					buf = binary.AppendUvarint(buf, uint64(s))
				}
				prevDst, prevSrc = d, s
			}
		default:
			t.Fatalf("legacyStore: %v is not a legacy format", format)
		}
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("shard-%04d.bin", i)), buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(dir, "manifest.json")
	m, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	m = bytes.Replace(m, []byte(`"ggrind-shards-v3"`), []byte(`"ggrind-shards-`+format.String()+`"`), 1)
	if err := os.WriteFile(path, m, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := shard.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Format() != format {
		t.Fatalf("legacyStore wrote a %v store, want %v", st.Format(), format)
	}
	return st
}

// oocCaches remembers the cache behind every engine oocBudget built (for
// the life of its test), so the ladder can hold each rung to its budget
// without the engine exposing the host it is a session of.
var oocCaches sync.Map // *shard.Engine -> *shard.SharedCache

// oocBudget opens an engine over st behind a cache of its own with the
// given byte budget.
func oocBudget(t *testing.T, st *shard.Store, g *graph.Graph, cacheBytes int64, opts shard.Options) *shard.Engine {
	t.Helper()
	h, err := shard.NewHost(st, g, shard.NewSharedCache(cacheBytes), opts)
	if err != nil {
		t.Fatal(err)
	}
	e := h.NewSession()
	oocCaches.Store(e, h.Cache())
	t.Cleanup(func() { oocCaches.Delete(e) })
	return e
}

// oocTight is oocBudget at half the store's decoded edge bytes — 4 an
// edge for the sources, 8 a destination run (a vertex with an in-edge)
// for the run table: every dense sweep evicts and re-reads, so the
// differential suite also exercises the residency path (the ladder
// asserts the pressure was real).
func oocTight(t *testing.T, st *shard.Store, g *graph.Graph, opts shard.Options) *shard.Engine {
	t.Helper()
	var runs int64
	for v := 0; v < g.NumVertices(); v++ {
		if g.InDegree(graph.VID(v)) > 0 {
			runs++
		}
	}
	return oocBudget(t, st, g, (4*st.NumEdges()+8*runs)/2, opts)
}

// oocReference is the ladder's baseline rung: the sequential sweep
// written only against the store's public read API — calling goroutine,
// shard-file order, no cache, no pipeline, no task split.
func oocReference(t *testing.T, g *graph.Graph) api.System {
	t.Helper()
	return sweepref.New(oocStore(t, g, 4), g)
}

// oocEngine shards g into a fresh temp directory and returns the
// out-of-core engine over it at its defaults, behind a half-store
// cache.
func oocEngine(t *testing.T, g *graph.Graph) *shard.Engine {
	t.Helper()
	return oocTight(t, oocStore(t, g, 4), g, shard.Options{})
}

// oocSequentialEngine is the pipeline's narrow end: one worker, so one
// shard staged ahead and one applying — the engine at its least
// concurrent — so every oracle-agreement property doubles as a
// pipeline-narrow/wide equivalence check.
func oocSequentialEngine(t *testing.T, g *graph.Graph) *shard.Engine {
	t.Helper()
	return oocTight(t, oocStore(t, g, 4), g, shard.Options{Threads: 1})
}

// oocWindowEngine is the concurrent-apply differential variant: a pool
// of the given thread count — which is also the staging window's depth
// — so tasks of up to that many shards are applied simultaneously, with
// the whole store resident. Every oracle-agreement property therefore
// also pins the concurrent sweep to the sequential semantics.
func oocWindowEngine(t *testing.T, g *graph.Graph, threads int) *shard.Engine {
	t.Helper()
	e, err := shard.Build(t.TempDir(), g, 4, shard.Options{Threads: threads})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// oocTightWindowEngine is the streaming counterpart of
// oocWindowEngine: four workers applying concurrently over eight
// shards behind a half-store cache, so the stager's plan-ordered reads
// and the budget's evictions interleave with concurrent applies.
func oocTightWindowEngine(t *testing.T, g *graph.Graph) *shard.Engine {
	t.Helper()
	return oocTight(t, oocStore(t, g, 8), g, shard.Options{Threads: 4})
}

// oocFormatEngine is the on-disk format differential variant: the same
// pipelined engine over a store in an older shard encoding — the raw
// (v1) or the delta+uvarint (v2) one, which stay readable — instead of
// the run-grouped v3 that Create writes. Loaded shards must be
// element-for-element identical across formats, so every
// oracle-agreement property and the full pipeline ladder also pin v1-,
// v2- and v3-store execution to bit-identical results.
func oocFormatEngine(t *testing.T, g *graph.Graph, format shard.Format) *shard.Engine {
	t.Helper()
	return oocTight(t, legacyStore(t, g, 4, format), g, shard.Options{})
}

// oocSharedSessionEngine is the multi-tenant differential variant: a
// session of a shard.Host handed an explicit daemon-style SharedCache.
// The deliberately tiny byte budget keeps the cache evicting and
// refusing inserts (transient shards) mid-algorithm, so every
// oracle-agreement property also pins the refused-insert path.
func oocSharedSessionEngine(t *testing.T, g *graph.Graph) *shard.Engine {
	t.Helper()
	return oocBudget(t, oocStore(t, g, 4), g, 1<<13, shard.Options{Threads: 2})
}

// oocMutatedStoreEngine is the log-structured differential variant: the
// engine runs over a store whose content equals g's edge multiset but
// arrived there through mutation — an eighth of g's edges held back and
// re-inserted via ApplyBatch, plus a few foreign edges (absent from g)
// planted at creation and tombstoned by the same batch. With compact
// set, the deltas are additionally folded into generation-suffixed base
// files before the engine is built. Either way the engine must be
// bit-identical to one over a from-scratch store of g: base+delta
// merging (and compaction) preserve per-destination edge streams
// exactly, which is all any sweep path observes.
func oocMutatedStoreEngine(t *testing.T, g *graph.Graph, compact bool) *shard.Engine {
	t.Helper()
	edges := g.Edges()
	k := len(edges) / 8
	held := edges[:k]
	present := make(map[graph.Edge]bool, len(edges))
	for _, e := range edges {
		present[e] = true
	}
	var foreign []graph.Edge
	n := graph.VID(g.NumVertices())
	for s := graph.VID(0); s < n && len(foreign) < 3; s++ {
		e := graph.Edge{Src: s, Dst: (s*7 + 3) % n}
		if !present[e] {
			foreign = append(foreign, e)
		}
	}
	initial := append(append([]graph.Edge(nil), edges[k:]...), foreign...)
	dir := t.TempDir()
	st, err := shard.Create(dir, graph.FromEdges(g.NumVertices(), initial), shard.WriteOptions{Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.ApplyBatch(held, foreign); err != nil {
		t.Fatal(err)
	}
	if compact {
		if _, err := st.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	// Reopen: the engine sees the store exactly as a later process would.
	st, err = shard.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return oocTight(t, st, g, shard.Options{})
}

// residentRung is what the ladder holds a resident rung to: its cache,
// the store's decoded bytes, the loads warming took, and whether the
// budget leaves room for source indexes.
type residentRung struct {
	cache      *shard.SharedCache
	decoded    int64
	warmLoads  int64
	indexRooms bool
}

// oocResidentRungs maps every engine oocResidentEngine built (for the
// life of its test) to its rung.
var oocResidentRungs sync.Map // *shard.Engine -> *residentRung

// oocResidentEngine is the resident sparse-sweep differential variant:
// the whole store decoded in the cache before the algorithm starts, so
// every sparse plan is a cache hit. With room, the budget is four times
// the store's decoded bytes and the sparse sweeps run inline through
// per-shard source indexes; without, it is exactly the decoded bytes,
// so no index fits and every resident sparse plan takes the window.
func oocResidentEngine(t *testing.T, g *graph.Graph, room bool) *shard.Engine {
	t.Helper()
	st := oocStore(t, g, 4)
	opts := shard.Options{Threads: 2}
	warm := func(sys api.System) {
		sys.EdgeMap(frontier.All(g), api.EdgeOp{
			Update:       func(u, v graph.VID) bool { return false },
			UpdateAtomic: func(u, v graph.VID) bool { return false },
		}, api.DirAuto)
	}
	probe, err := shard.NewHost(st, g, shard.NewSharedCache(1<<40), opts)
	if err != nil {
		t.Fatal(err)
	}
	warm(probe.NewSession())
	decoded := probe.Cache().Stats().Bytes
	budget := max(decoded, 1)
	if room {
		budget *= 4
	}
	h, err := shard.NewHost(st, g, shard.NewSharedCache(budget), opts)
	if err != nil {
		t.Fatal(err)
	}
	e := h.NewSession()
	warm(e)
	rr := &residentRung{cache: h.Cache(), decoded: decoded, warmLoads: h.Cache().Stats().Loads, indexRooms: room}
	if cs := rr.cache.Stats(); cs.Bytes != decoded {
		t.Fatalf("fixture broken: warm cache holds %d of %d decoded bytes", cs.Bytes, decoded)
	}
	oocResidentRungs.Store(e, rr)
	t.Cleanup(func() { oocResidentRungs.Delete(e) })
	return e
}

// check holds a resident rung to its claim after an algorithm ran on
// e: nothing was loaded or evicted past warm-up (every plan hit), and
// the cache's bytes show the indexes — attached by every rung with
// room whose algorithm swept sparsely, by none without.
func (rr *residentRung) check(t *testing.T, label string, e *shard.Engine) {
	t.Helper()
	cs := rr.cache.Stats()
	if cs.Loads != rr.warmLoads || cs.Evictions != 0 || cs.Rejected != 0 {
		t.Fatalf("%s: resident rung loaded, evicted or refused after warm-up: %+v (warm-up loads %d)", label, cs, rr.warmLoads)
	}
	switch indexed := cs.Bytes - rr.decoded; {
	case !rr.indexRooms && indexed != 0:
		t.Fatalf("%s: no-room rung holds %d bytes over the decoded store", label, indexed)
	case rr.indexRooms && e.Stats().SparseSweeps > 0 && indexed <= 0:
		t.Fatalf("%s: %d sparse sweeps on the indexed rung attached no index", label, e.Stats().SparseSweeps)
	}
}

func enginesFor(t *testing.T, g *graph.Graph) []api.System {
	return []api.System{
		core.NewEngine(g, core.Options{}),
		core.NewEngine(g, core.Options{Layout: core.LayoutCOO}),
		core.NewEngine(g, core.Options{Layout: core.LayoutCSC}),
		ligra.New(g, 0),
		polymer.New(g, polymer.GGv1(), 0),
		oocReference(t, g),
		oocEngine(t, g),
		oocSequentialEngine(t, g),
		oocWindowEngine(t, g, 4),
		oocTightWindowEngine(t, g),
		oocFormatEngine(t, g, shard.FormatV1),
		oocFormatEngine(t, g, shard.FormatV2),
		oocSharedSessionEngine(t, g),
		oocMutatedStoreEngine(t, g, false),
		oocMutatedStoreEngine(t, g, true),
		oocResidentEngine(t, g, true),
		oocResidentEngine(t, g, false),
	}
}

// TestSystemConformance gates the differential suite: every registered
// engine must satisfy the api.System contract checks on representative
// graphs before algorithm agreement means anything.
func TestSystemConformance(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"social": gen.TinySocial(),
		"road":   gen.TinyRoad(),
		"star":   gen.Star(100),
		"empty":  graph.FromEdges(16, nil),
	}
	for gname, g := range graphs {
		for _, sys := range enginesFor(t, g) {
			if err := api.CheckSystem(sys); err != nil {
				t.Errorf("%s: %v", gname, err)
			}
		}
	}
}

func TestCrossEngineBFSProperty(t *testing.T) {
	f := func(raw []uint16, nBits uint8) bool {
		g := randomGraph(raw, nBits)
		if g.NumEdges() == 0 {
			return true
		}
		src := SourceVertex(g)
		want := SerialBFSDepths(g, src)
		for _, sys := range enginesFor(t, g) {
			got := BFSDepths(g, BFS(sys, src).Parents, src)
			for v := range want {
				if got[v] != want[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCrossEngineCCProperty(t *testing.T) {
	f := func(raw []uint16, nBits uint8) bool {
		g := randomGraph(raw, nBits)
		want := SerialCCLabels(g)
		for _, sys := range enginesFor(t, g) {
			got := CC(sys).Labels
			for v := range want {
				if got[v] != want[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCrossEngineSSSPProperty(t *testing.T) {
	f := func(raw []uint16, nBits uint8) bool {
		g := randomGraph(raw, nBits)
		if g.NumEdges() == 0 {
			return true
		}
		src := SourceVertex(g)
		want := SerialSSSP(g, src)
		for _, sys := range enginesFor(t, g) {
			got := BellmanFord(sys, src).Dist
			for v := range want {
				wInf := math.IsInf(float64(want[v]), 1)
				gInf := math.IsInf(float64(got[v]), 1)
				if wInf != gInf {
					return false
				}
				if !wInf && math.Abs(float64(got[v]-want[v])) > 1e-4 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCrossEngineSPMVProperty(t *testing.T) {
	f := func(raw []uint16, nBits uint8) bool {
		g := randomGraph(raw, nBits)
		want := SerialSPMV(g)
		for _, sys := range enginesFor(t, g) {
			got := SPMV(sys).Y
			for v := range want {
				if math.Abs(got[v]-want[v]) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCrossEnginePRProperty(t *testing.T) {
	f := func(raw []uint16, nBits uint8) bool {
		g := randomGraph(raw, nBits)
		want := SerialPR(g, 5)
		for _, sys := range enginesFor(t, g) {
			got := PR(sys, 5).Ranks
			for v := range want {
				if math.Abs(got[v]-want[v]) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestCrossEngineBCProperty(t *testing.T) {
	f := func(raw []uint16, nBits uint8) bool {
		g := randomGraph(raw, nBits)
		if g.NumEdges() == 0 {
			return true
		}
		src := SourceVertex(g)
		want := SerialBC(g, src)
		rg := g.Reverse()
		pairs := [][2]api.System{
			{core.NewEngine(g, core.Options{}), core.NewEngine(rg, core.Options{})},
			{ligra.New(g, 0), ligra.New(rg, 0)},
			{oocEngine(t, g), oocEngine(t, rg)},
		}
		for _, pair := range pairs {
			got := BC(pair[0], pair[1], src).Scores
			for v := range want {
				if math.Abs(got[v]-want[v]) > 1e-6 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
