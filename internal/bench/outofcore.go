package bench

import (
	"fmt"
	"math"
	"path/filepath"
	"time"

	"repro/internal/algorithms"
	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/shard"
)

// OutOfCoreResult is one algorithm's in-memory vs. out-of-core timing.
type OutOfCoreResult struct {
	Alg       string
	InMemory  float64 // seconds
	OutOfCore float64 // seconds
	Slowdown  float64 // OutOfCore / InMemory
}

// FormatResult is the shard-format ablation: the same graph written as
// a v1 (raw uint32 pairs, 8 bytes/edge) and a v2 (delta+uvarint
// compressed) store, each swept by a cold-cache multi-iteration
// PageRank. Bytes are the engines' Stats.BytesRead — the on-disk size
// of every shard file decoded over the measured runs — so Ratio is the
// live answer to the question the ablation asks: how many fewer bytes
// does each dense sweep pull from disk once the store is compressed?
type FormatResult struct {
	V1Time  float64 // seconds, cold-cache PR over the v1 store
	V2Time  float64 // seconds, cold-cache PR over the v2 store
	Speedup float64 // V1Time / V2Time: >1 means compression won time too

	V1Bytes int64   // bytes decoded from disk across the v1 runs
	V2Bytes int64   // bytes decoded from disk across the v2 runs
	Ratio   float64 // V1Bytes / V2Bytes: the compression ratio

	V1Disk int64 // v1 store size on disk (shard files only)
	V2Disk int64 // v2 store size on disk (shard files only)

	V1BytesPerEdge float64 // V1Disk / |E|
	V2BytesPerEdge float64 // V2Disk / |E|
}

// UpdateResult is the log-structured-update ablation: the store holds
// two disjoint copies of the graph, an edge batch confined to the
// second copy arrives through ApplyBatch (a delta append, not a
// rebuild), and PageRank is re-converged two ways over the mutated
// store — from scratch, and incrementally from the pre-batch fixed
// point seeded at the batch's dirty shards. Locality is the claim
// under test: the incremental run may only ever sweep the mutated
// copy's shards, so it must load strictly fewer shards than the full
// re-run while landing on the same fixed point to within IncTolerance.
type UpdateResult struct {
	ApplyTime   float64 // seconds: ApplyBatch (delta append + manifest swing)
	CompactTime float64 // seconds: folding the deltas into a new base generation
	Inserted    int64   // edges the batch added
	Deleted     int64   // edge copies the batch tombstoned
	DirtyShards int     // shards the batch left dirty
	TotalShards int

	FullTime   float64 // seconds: re-convergence from scratch on the mutated store
	IncTime    float64 // seconds: incremental re-convergence from the pre-batch ranks
	Speedup    float64 // FullTime / IncTime: >1 means locality won
	FullLoads  int64   // Stats.ShardLoads, full re-run
	IncLoads   int64   // Stats.ShardLoads, incremental re-run
	FullVisits int64   // FixedPoint.ShardVisits, full re-run
	IncVisits  int64   // FixedPoint.ShardVisits, incremental re-run
	MaxDiff    float64 // max |incremental - full| over all ranks
}

// IncTolerance is the per-vertex convergence tolerance the update
// ablation re-converges to; two runs converged this tightly agree to
// well within 1e-12 per rank.
const IncTolerance = 1e-15

// Report is everything OutOfCore measures: the headline in-memory vs.
// out-of-core comparison and one result per ablation.
type Report struct {
	// Figure has one X index per algorithm (the note lines give the
	// mapping) and one series per engine.
	Figure  *Figure
	Results []OutOfCoreResult
	Format  FormatResult
	Update  UpdateResult
}

// budgetEngine opens an engine over st behind a cache of its own with
// the given byte budget — every ablation states its memory in bytes.
func budgetEngine(st *shard.Store, g *graph.Graph, cacheBytes int64, opts shard.Options) (*shard.Engine, error) {
	h, err := shard.NewHost(st, g, shard.NewSharedCache(cacheBytes), opts)
	if err != nil {
		return nil, err
	}
	return h.NewSession(), nil
}

// decodedBytes is what st's edges occupy once decoded (8 bytes each) —
// the unit the ablations' cache budgets are fractions of.
func decodedBytes(st *shard.Store) int64 { return 8 * st.NumEdges() }

// streamingCache is a cache budget no shard fits: every insert is
// refused, so every sweep streams its whole plan from disk and the
// engine's footprint is the staging window alone.
const streamingCache int64 = 1

// OutOfCore runs a representative algorithm slate on the in-memory
// GG-v2 engine and on the shard.Engine over the same graph, reporting
// the streaming overhead the shard cache and frontier-aware sweeps are
// meant to bound, plus two ablations: the on-disk format — the same
// store written v1 (raw) vs v2 (delta+uvarint), bytes and time per
// cold-cache PageRank sweep; and log-structured updates — an edge batch
// applied as delta shards, then incremental vs from-scratch
// re-convergence over the mutated store. dir receives the shard files;
// shards and threads 0 select defaults.
func OutOfCore(g *graph.Graph, dir string, shards, threads, reps int) (*Report, error) {
	if shards <= 0 {
		shards = 16
	}
	inMem := core.NewEngine(g, core.Options{Threads: threads})
	ooc, err := shard.Build(dir, g, shards, shard.Options{Threads: threads})
	if err != nil {
		return nil, err
	}
	st := ooc.Store()
	runs := []struct {
		alg string
		run func(sys api.System)
	}{
		{"PR", func(sys api.System) { algorithms.PR(sys, 10) }},
		{"BFS", func(sys api.System) { algorithms.BFS(sys, algorithms.SourceVertex(g)) }},
		{"CC", func(sys api.System) { algorithms.CC(sys) }},
		{"SPMV", func(sys api.System) { algorithms.SPMV(sys) }},
	}
	fig := &Figure{
		ID:     "OOC",
		Title:  "in-memory vs. out-of-core engine",
		XLabel: "algorithm#",
		YLabel: "seconds",
		Series: []Series{{Name: "GG-v2"}, {Name: "OOC"}},
	}
	rep := &Report{Figure: fig}
	for i, r := range runs {
		mem := MedianTime(reps, func() { r.run(inMem) })
		str := MedianTime(reps, func() { r.run(ooc) })
		res := OutOfCoreResult{
			Alg:       r.alg,
			InMemory:  Seconds(mem),
			OutOfCore: Seconds(str),
			Slowdown:  Speedup(str, mem),
		}
		rep.Results = append(rep.Results, res)
		fig.Series[0].X = append(fig.Series[0].X, float64(i))
		fig.Series[0].Y = append(fig.Series[0].Y, res.InMemory)
		fig.Series[1].X = append(fig.Series[1].X, float64(i))
		fig.Series[1].Y = append(fig.Series[1].Y, res.OutOfCore)
		fig.Notes = append(fig.Notes, fmt.Sprintf("alg %d = %s (%.1fx streaming overhead)", i, r.alg, res.Slowdown))
	}
	ost := ooc.Stats()
	fig.Notes = append(fig.Notes, fmt.Sprintf(
		"OOC engine: %d shards, %d disk loads, %d cache hits, %d shard visits skipped",
		st.NumShards(), ost.ShardLoads, ost.CacheHits, ost.ShardsSkipped))

	// Format ablation: the same graph written as a v1 (raw) and a v2
	// (compressed) store, each swept by the cold-cache 10-iteration
	// PageRank. A cache that admits nothing makes every iteration
	// re-decode the whole store, so BytesRead is 10× the store size per
	// run and the bytes ratio is exactly the per-sweep disk traffic
	// saved.
	fr, err := formatAblation(g, dir, shards, threads, reps)
	if err != nil {
		return nil, err
	}
	rep.Format = fr
	fig.Notes = append(fig.Notes, fmt.Sprintf(
		"format ablation: v1 %.2f B/edge on disk vs v2 %.2f B/edge; cold-cache PR read %.2fx fewer bytes (v1 %.3fs, v2 %.3fs, %.2fx)",
		fr.V1BytesPerEdge, fr.V2BytesPerEdge, fr.Ratio, fr.V1Time, fr.V2Time, fr.Speedup))

	// Update ablation: a batch lands as delta shards on one half of a
	// two-copy store; incremental re-convergence sweeps only the dirty
	// half while the from-scratch re-run walks everything. Loads are
	// the headline; the two fixed points must agree to ~1e-12.
	ur, err := updateAblation(g, dir, shards, threads, reps)
	if err != nil {
		return nil, err
	}
	rep.Update = ur
	fig.Notes = append(fig.Notes, fmt.Sprintf(
		"update ablation: batch +%d/-%d edges dirtied %d/%d shards in %.3fs; incremental re-convergence %.3fs / %d loads / %d visits vs full %.3fs / %d loads / %d visits (%.2fx), max rank diff %.2g; compaction %.3fs",
		ur.Inserted, ur.Deleted, ur.DirtyShards, ur.TotalShards, ur.ApplyTime,
		ur.IncTime, ur.IncLoads, ur.IncVisits, ur.FullTime, ur.FullLoads, ur.FullVisits,
		ur.Speedup, ur.MaxDiff, ur.CompactTime))
	return rep, nil
}

// updateAblation builds a store holding two vertex-disjoint copies of
// g with every eighth edge of the second copy held back, converges
// PageRank, then applies the held-back edges as one ApplyBatch — a
// delta append. The mutated store is re-converged from scratch and
// incrementally (pre-batch ranks, seeded at the batch's dirty shards)
// on separate engines with the whole store cache-resident, so
// ShardLoads counts exactly the distinct shards each run touched. The
// copies are vertex-disjoint, so the incremental run can never have a
// reason to sweep the untouched first copy.
func updateAblation(g *graph.Graph, dir string, shards, threads, reps int) (UpdateResult, error) {
	var ur UpdateResult
	n := g.NumVertices()
	base := g.Edges()
	all := make([]graph.Edge, 0, 2*len(base))
	all = append(all, base...)
	for _, e := range base {
		all = append(all, graph.Edge{Src: e.Src + graph.VID(n), Dst: e.Dst + graph.VID(n)})
	}
	// Hold back every eighth edge of the second copy; they arrive later
	// as the update batch.
	var initial, held []graph.Edge
	for i, e := range all {
		if i >= len(base) && i%8 == 0 {
			held = append(held, e)
		} else {
			initial = append(initial, e)
		}
	}

	udir := filepath.Join(dir, "upd")
	st, err := shard.Create(udir, graph.FromEdges(2*n, initial), shard.WriteOptions{Partitions: shards})
	if err != nil {
		return UpdateResult{}, err
	}
	// Twice the decoded store: everything stays resident, offsets and all.
	opts, resident := shard.Options{Threads: threads}, 2*8*int64(len(all))
	pre, err := budgetEngine(st, graph.FromEdges(2*n, initial), resident, opts)
	if err != nil {
		return UpdateResult{}, err
	}
	before, err := pre.IncrementalPR(nil, nil, IncTolerance, 1000)
	if err != nil {
		return UpdateResult{}, err
	}

	applyStart := time.Now()
	res, err := st.ApplyBatch(held, nil)
	if err != nil {
		return UpdateResult{}, err
	}
	ur.ApplyTime = Seconds(time.Since(applyStart))
	ur.Inserted, ur.Deleted = res.Inserted, res.Deleted
	ur.DirtyShards, ur.TotalShards = len(res.Dirty), st.NumShards()

	// Both re-convergence engines reopen the store at its mutated
	// generation over the merged topology.
	mst, err := shard.Open(udir)
	if err != nil {
		return UpdateResult{}, err
	}
	merged := graph.FromEdges(2*n, all)
	full, err := budgetEngine(mst, merged, resident, opts)
	if err != nil {
		return UpdateResult{}, err
	}
	inc, err := budgetEngine(mst, merged, resident, opts)
	if err != nil {
		return UpdateResult{}, err
	}
	var fullFP, incFP *shard.FixedPoint
	fullT := MedianTime(reps, func() {
		fullFP, err = full.IncrementalPR(nil, nil, IncTolerance, 1000)
	})
	if err != nil {
		return UpdateResult{}, err
	}
	incT := MedianTime(reps, func() {
		incFP, err = inc.IncrementalPR(before.Ranks, res.Dirty, IncTolerance, 1000)
	})
	if err != nil {
		return UpdateResult{}, err
	}
	ur.FullTime, ur.IncTime, ur.Speedup = Seconds(fullT), Seconds(incT), Speedup(fullT, incT)
	ur.FullLoads, ur.IncLoads = full.Stats().ShardLoads, inc.Stats().ShardLoads
	ur.FullVisits, ur.IncVisits = fullFP.ShardVisits, incFP.ShardVisits
	for v := range fullFP.Ranks {
		if d := math.Abs(incFP.Ranks[v] - fullFP.Ranks[v]); d > ur.MaxDiff {
			ur.MaxDiff = d
		}
	}

	// Compaction comes last: it bumps the generation, after which the
	// engines above may not be swept again.
	compactStart := time.Now()
	if _, err := mst.Compact(); err != nil {
		return UpdateResult{}, err
	}
	ur.CompactTime = Seconds(time.Since(compactStart))
	return ur, nil
}

// formatAblation writes g in both shard-file formats under dir and
// times a cold-cache PageRank over each, collecting the byte counters.
func formatAblation(g *graph.Graph, dir string, shards, threads, reps int) (FormatResult, error) {
	var fr FormatResult
	type column struct {
		format shard.Format
		time   *float64
		bytes  *int64
		disk   *int64
		bpe    *float64
	}
	cols := []column{
		{shard.FormatV1, &fr.V1Time, &fr.V1Bytes, &fr.V1Disk, &fr.V1BytesPerEdge},
		{shard.FormatV2, &fr.V2Time, &fr.V2Bytes, &fr.V2Disk, &fr.V2BytesPerEdge},
	}
	for _, col := range cols {
		st, err := shard.Create(filepath.Join(dir, "fmt-"+col.format.String()), g, shard.WriteOptions{Partitions: shards, Format: col.format})
		if err != nil {
			return FormatResult{}, err
		}
		eng, err := budgetEngine(st, g, streamingCache, shard.Options{Threads: threads})
		if err != nil {
			return FormatResult{}, err
		}
		*col.time = Seconds(MedianTime(reps, func() { algorithms.PR(eng, 10) }))
		*col.bytes = eng.Stats().BytesRead
		if *col.disk, err = st.DiskBytes(); err != nil {
			return FormatResult{}, err
		}
		if e := g.NumEdges(); e > 0 {
			*col.bpe = float64(*col.disk) / float64(e)
		}
	}
	fr.Speedup = fr.V1Time / fr.V2Time
	if fr.V2Bytes > 0 {
		fr.Ratio = float64(fr.V1Bytes) / float64(fr.V2Bytes)
	}
	return fr, nil
}
