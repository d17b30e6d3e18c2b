// Out-of-core example: shard a graph to disk GraphChi-style (the system
// the paper's partitioning-by-destination comes from) and run the
// ordinary algorithm suite on shard.Engine — the same PageRank and BFS
// code that runs on the in-memory engines, but with edge data streaming
// from disk through the concurrent sweep (plan → stage → apply →
// publish): the planner picks the shard set, a staging goroutine
// fetches it in ascending order — a cache hit, else a synchronous read
// — keeping up to 2×Threads shards staged ahead, the pool's workers claim
// the staged shards' destination-range tasks in plan order, and the
// byte-budgeted shard cache keeps hot shards resident across
// iterations. See README.md for the window and scheduling in detail.
package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"

	"repro"
	"repro/internal/algorithms"
	"repro/internal/graph"
	"repro/internal/shard"
)

// engineOver opens an engine over st behind a cache of its own with the
// given byte budget: the engine's memory bound is stated in bytes, and
// it is the cache's, not an engine option.
func engineOver(st *shard.Store, g *graph.Graph, cacheBytes int64, opts shard.Options) *shard.Engine {
	h, err := shard.NewHost(st, g, shard.NewSharedCache(cacheBytes), opts)
	if err != nil {
		panic(err)
	}
	return h.NewSession()
}

func main() {
	g := repro.Preset("livejournal-sm")
	fmt.Printf("graph: livejournal-sm, %d vertices, %d edges\n",
		g.NumVertices(), g.NumEdges())

	dir := filepath.Join(os.TempDir(), "ggrind-shards")
	defer os.RemoveAll(dir)

	const shards = 24
	store, err := shard.Create(dir, g, shard.WriteOptions{Partitions: shards})
	if err != nil {
		panic(err)
	}
	// decoded is what the store's edges occupy once decoded: a
	// resident keeps each edge's source (4 bytes) and, per destination
	// run, the destination and the run's end (8 bytes), so every vertex
	// with an in-edge costs 8 bytes once. Every budget below is a
	// fraction of it. A sixth — 4 of 24 shards' worth: resident edge
	// data stays bounded by that however many iterations run, and it
	// leaves the staging window room to run ahead of the shards being
	// applied.
	decoded := 4 * g.NumEdges()
	for v := 0; v < g.NumVertices(); v++ {
		if g.InDegree(graph.VID(v)) > 0 {
			decoded += 8
		}
	}
	ooc := engineOver(store, g, decoded/6, shard.Options{})
	bytes, err := store.DiskBytes()
	if err != nil {
		panic(err)
	}
	fmt.Printf("sharded to %s: %d shards (%v format), %.1f MiB on disk (%.2f bytes/edge), cache budget %.1f MiB, %d workers\n",
		dir, store.NumShards(), store.Format(), float64(bytes)/(1<<20),
		float64(bytes)/float64(g.NumEdges()), float64(decoded/6)/(1<<20), ooc.Threads())

	// 1. The generic algorithm layer runs unmodified out of core;
	// PageRank matches the in-memory engine exactly.
	oocPR := algorithms.PR(ooc, 10).Ranks
	inMem := repro.PageRank(repro.NewEngine(g, repro.Options{}), 10)
	maxDiff := maxAbsDiff(oocPR, inMem)
	st := ooc.Stats()
	fmt.Printf("PageRank (10 dense sweeps, streaming): max diff vs in-memory %.2e, %d disk loads\n",
		maxDiff, st.ShardLoads)
	fmt.Printf("  io: %.1f MiB decoded from disk, %.1f MiB at raw v1 pricing — %.2fx compression in flight\n",
		float64(st.BytesRead)/(1<<20), float64(st.BytesLogical)/(1<<20),
		float64(st.BytesLogical)/float64(st.BytesRead))
	fmt.Printf("  pipeline: %d of %d loads overlapped an apply\n", st.OverlappedLoads, st.ShardLoads)
	if maxDiff > 1e-9 {
		panic("results diverge")
	}

	// 2. BFS from a low-degree vertex: early wavefronts are sparse, so
	// the frontier-aware planner loads only shards fed by active
	// sources and skips the rest.
	src := minDegreeVertex(g)
	before := ooc.Stats()
	bfs := algorithms.BFS(ooc, src)
	after := ooc.Stats()
	reached := 0
	for _, p := range bfs.Parents {
		if p >= 0 {
			reached++
		}
	}
	fmt.Printf("BFS from low-degree vertex %d: reached %d vertices in %d rounds\n",
		src, reached, bfs.Rounds)
	fmt.Printf("  %d sparse + %d dense sweeps, skipped %d shard visits\n",
		after.SparseSweeps-before.SparseSweeps,
		after.DenseSweeps-before.DenseSweeps,
		after.ShardsSkipped-before.ShardsSkipped)

	// 3. With the cache sized to the store (twice its decoded edge
	// bytes: room for the task offsets too), iterative algorithms pay
	// the disk exactly once per shard and run from memory afterwards.
	cached := engineOver(ooc.Store(), g, 2*decoded, shard.Options{})
	algorithms.PR(cached, 10)
	cst := cached.Stats()
	fmt.Printf("PageRank with a store-sized cache: %d disk loads, %d cache hits\n",
		cst.ShardLoads, cst.CacheHits)

	// 4. The store is mutable, log-structured-ly: ApplyBatch validates
	// the batch, appends one delta shard per affected base shard
	// (inserts plus tombstones — a tombstone removes every copy of its
	// edge) and swings the manifest to a new generation; untouched
	// shards are not rewritten and live files are never modified.
	// Engines are pinned to the generation they were built over, so
	// mutate, reopen, rebuild — the serve daemon does exactly this.
	hub := g.Edges()[0]
	ins := []graph.Edge{{Src: hub.Dst, Dst: hub.Src}, {Src: hub.Src, Dst: hub.Src + 1}}
	res, err := ooc.Store().ApplyBatch(ins, []graph.Edge{hub})
	if err != nil {
		panic(err)
	}
	fmt.Printf("ApplyBatch: generation %d, +%d/-%d edges (tombstones remove all copies), %d/%d shards dirty\n",
		res.Generation, res.Inserted, res.Deleted, len(res.Dirty), shards)

	// Reopen at the new generation; sweeps now merge base + deltas in
	// the same per-destination order a rebuilt store would have. PageRank
	// needs degrees only, so the engine serves the degree-only graph of
	// the store's per-vertex Meta (a nil graph): no edge is read to host.
	// Its ranks match the in-memory engine over the mutated edge list.
	mst, err := shard.Open(dir)
	if err != nil {
		panic(err)
	}
	mutated := append([]graph.Edge(nil), ins...)
	for _, e := range g.Edges() {
		if e != hub {
			mutated = append(mutated, e)
		}
	}
	mg := graph.FromEdges(g.NumVertices(), mutated)
	mPR := algorithms.PR(engineOver(mst, nil, 2*decoded, shard.Options{}), 10).Ranks
	mMem := repro.PageRank(repro.NewEngine(mg, repro.Options{}), 10)
	mDiff := maxAbsDiff(mPR, mMem)
	fmt.Printf("PageRank on the reopened store (%d edges): max diff vs in-memory %.2e\n", mst.NumEdges(), mDiff)
	if mst.NumEdges() != mg.NumEdges() || mDiff > 1e-9 {
		panic("mutated store diverges from the in-memory engine")
	}

	// Compaction folds the deltas into fresh generation-suffixed base
	// files. The old generation's files stay on disk, so engines (and
	// serve sessions) pinned to it remain readable until they finish.
	gen, err := mst.Compact()
	if err != nil {
		panic(err)
	}
	cst2, err := shard.Open(dir)
	if err != nil {
		panic(err)
	}
	fmt.Printf("compacted to base generation %d: %d edges, %d delta files pending\n",
		gen, cst2.NumEdges(), cst2.PendingDeltas())

	fmt.Println("out-of-core engine matches the in-memory engine ✓")
}

// maxAbsDiff returns the largest |a[v] - b[v]|.
func maxAbsDiff(a, b []float64) float64 {
	var m float64
	for v := range a {
		m = max(m, math.Abs(a[v]-b[v]))
	}
	return m
}

// minDegreeVertex returns the vertex with the smallest nonzero
// out-degree (lowest ID on ties) — a deliberately peripheral BFS root.
func minDegreeVertex(g *graph.Graph) graph.VID {
	var best graph.VID
	var bestDeg int64 = math.MaxInt64
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.OutDegree(graph.VID(v)); d > 0 && d < bestDeg {
			bestDeg, best = d, graph.VID(v)
		}
	}
	return best
}
