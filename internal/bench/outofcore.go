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
	"repro/internal/sched"
	"repro/internal/shard"
)

// OutOfCoreResult is one algorithm's in-memory vs. out-of-core timing.
type OutOfCoreResult struct {
	Alg       string
	InMemory  float64 // seconds
	OutOfCore float64 // seconds
	Slowdown  float64 // OutOfCore / InMemory
}

// WindowResult is the staging-window occupancy ablation: the same
// multi-iteration PageRank with a 1-deep window (the original double
// buffer's staging depth) and a D-deep window, both with cross-domain
// concurrent apply over the default topology. The peaks report how many
// shards the engine actually had mid-apply simultaneously — the
// Polymer-style all-domains-at-once execution the deeper window is
// meant to feed.
type WindowResult struct {
	K1      float64 // seconds, window depth 1
	KD      float64 // seconds, window depth = Domains
	Speedup float64 // K1 / KD: >1 means the deeper window won
	PeakK1  int64   // max simultaneous applies, k=1 run
	PeakKD  int64   // max simultaneous applies, k=D run
	Domains int     // modelled NUMA domains (= the deep window's k)
}

// IODepthResult is the async-read ablation: the same cold-cache
// multi-iteration PageRank with the aio reader capped at one in-flight
// read (the synchronous pipeline's budget) and at IODepth = D, behind a
// cache too small to admit any shard, so every sweep reads its whole
// plan from disk and the read overlap is the only difference between
// the columns. The loads and bytes columns must match exactly — depth
// may change only when a read happens, never what is read or computed.
type IODepthResult struct {
	D1      float64 // seconds, IODepth 1
	DN      float64 // seconds, IODepth = Depth
	Speedup float64 // D1 / DN: >1 means the deeper read queue won
	Depth   int     // the deep column's IODepth (= modelled domains)
	PeakD1  int64   // Stats.ReadsInFlightPeak, depth-1 run
	PeakDN  int64   // Stats.ReadsInFlightPeak, depth-D run
	LoadsD1 int64   // Stats.ShardLoads, depth-1 run
	LoadsDN int64   // Stats.ShardLoads, depth-D run
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

// OrderColumn is one sweep-order policy's column in the order ablation:
// a cold-start multi-iteration dense PageRank over the shared store with
// a cache budget of half the store's decoded bytes, the regime where
// ascending order's cyclic evictions hit hardest.
type OrderColumn struct {
	Order          shard.Order
	Time           float64 // seconds
	Loads          int64   // Stats.ShardLoads across the measured runs
	CacheHits      int64   // Stats.CacheHits across the measured runs
	BytesRead      int64   // Stats.BytesRead across the measured runs
	ReloadsAvoided int64   // Stats.ReloadsAvoided: loads saved vs the whole-run ascending baseline
}

// OrderResult is the sweep-order ablation: the same 10-iteration dense
// PageRank once per Options.Order policy, all over the same store and
// cache budget, bit-identical by construction — only the disk traffic
// may differ. Columns follows shard.Orders() order: ascending (the
// baseline), zigzag, residency-first.
type OrderResult struct {
	CacheBytes int64 // the cache budget all columns ran with (half the decoded store)
	Columns    []OrderColumn
}

// ScatterGatherResult is the sweep-mode ablation: the same cold-cache
// 10-iteration dense PageRank over one raw (v1) store — so disk bytes
// are priced identically, 8 per edge — swept edge-centric (the tight
// cache thrashes, so every iteration re-reads most of the store from
// disk) and scatter/gather (the first iteration scatters each shard
// once into compact delta-encoded update bins; every later iteration
// gathers the retained bins with zero disk traffic). The claim under
// test is bytes moved, not wall-clock: SGMovedBytes — disk reads plus
// bin writes plus bin replays — must come in strictly under the
// edge-centric disk column, while the ranks match float64-bit exactly.
type ScatterGatherResult struct {
	ECTime  float64 // seconds, edge-centric sweeps
	SGTime  float64 // seconds, scatter/gather sweeps
	Speedup float64 // ECTime / SGTime: >1 means two-phase won time too

	CacheBytes      int64 // the tight cache budget both columns ran with
	ECDiskBytes     int64 // edge-centric Stats.BytesRead across the measured runs
	SGDiskBytes     int64 // scatter/gather Stats.BytesRead (the cold scatter passes)
	BinBytesWritten int64 // bytes appended to update bins at scatter
	BinBytesRead    int64 // bin bytes replayed at gather
	BinShardsReused int64 // gathers served from retained bins with no scatter
	SGMovedBytes    int64 // SGDiskBytes + BinBytesWritten + BinBytesRead

	RanksIdentical bool // float64-bit-exact PageRank agreement across modes
}

// BinBudgetColumn is one budget setting's column in the bin-budget
// ablation: the same cold-cache 10-iteration dense PageRank over an
// identical raw store in scatter/gather mode, differing only in
// Options.BinBudgetBytes. MovedBytes is the column's total traffic —
// shard bytes decoded for scatter passes, bin bytes appended at
// scatter, bin bytes gathered, bin bytes spilled to disk and spill
// bytes replayed back — the figure the budget is supposed to trade
// against memory footprint.
type BinBudgetColumn struct {
	Budget     int64   // Options.BinBudgetBytes (0 = unbounded)
	Time       float64 // seconds
	Loads      int64   // Stats.ShardLoads across the measured runs
	DiskBytes  int64   // Stats.BytesRead: shard bytes decoded for scatter passes
	BinWrites  int64   // Stats.BinBytesWritten: bytes appended to bins at scatter
	BinReads   int64   // Stats.BinBytesRead: resident bin bytes gathered
	Spilled    int64   // Stats.BinBytesSpilled: bin bytes written to spill files
	SpillReads int64   // Stats.BinSpillBytesRead: spill-file bytes replayed
	Evictions  int64   // Stats.BinShardsEvicted
	Replays    int64   // Stats.BinSpillReplays
	MovedBytes int64   // DiskBytes + BinWrites + BinReads + Spilled + SpillReads
}

// BinBudgetResult is the bin-budget ablation: the scatter/gather sweep
// with the bin store unbounded (the legacy retain-everything footprint),
// budgeted at half the measured footprint, and budgeted at
// MinBinBudgetBytes — too small to hold even one of this store's bins,
// so every gather replays from spill files. The claims under test are
// categorical: the budget must only change where bin bytes live, never
// what is computed (ranks bit-identical across all three columns and
// the edge-centric reference), the half column must move strictly fewer
// bytes than the everything-spills column, and even the worst case —
// every bin replayed from disk every sweep — must pull strictly fewer
// disk bytes than the edge-centric mode's re-reads over the same store.
type BinBudgetResult struct {
	Footprint  int64 // unbounded column's total bin bytes: the budget baseline
	CacheBytes int64 // the tight shard-cache budget every column ran with

	Full BinBudgetColumn // BinBudgetBytes = 0, nothing spills
	Half BinBudgetColumn // BinBudgetBytes = Footprint/2, cold tail spills
	Zero BinBudgetColumn // BinBudgetBytes = MinBinBudgetBytes, everything spills

	ECDiskBytes    int64 // edge-centric Stats.BytesRead over the same store
	RanksIdentical bool  // float64-bit-exact PageRank agreement across all columns
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
	Figure        *Figure
	Results       []OutOfCoreResult
	Window        WindowResult
	IODepth       IODepthResult
	Format        FormatResult
	Order         OrderResult
	ScatterGather ScatterGatherResult
	BinBudget     BinBudgetResult
	Update        UpdateResult
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
// meant to bound, plus a stack of ablations on multi-iteration
// PageRank: the staging window k=1 vs k=D with concurrent domain apply;
// the async-read queue at IODepth=1 vs IODepth=D; the on-disk format —
// the same store written v1 (raw) vs v2 (delta+uvarint), bytes and time
// per cold-cache sweep; the sweep order — ascending vs zigzag vs
// residency-first over a half-store cache, loads and bytes per policy;
// the sweep mode — edge-centric vs partition-centric scatter/gather
// over a raw store, total bytes moved per mode and bit-exact rank
// agreement; the bin budget — the scatter/gather bin store unbounded vs
// half-footprint vs minimum budget, spill traffic per column and
// bit-exact rank agreement; and log-structured updates — an edge batch
// applied as delta shards, then incremental vs from-scratch
// re-convergence over the mutated store. dir receives the shard files;
// shards and threads 0 select defaults.
func OutOfCore(g *graph.Graph, dir string, shards, threads, reps int) (*Report, error) {
	if shards <= 0 {
		shards = 16
	}
	inMem := core.NewEngine(g, core.Options{Threads: threads})
	// Domains: 1 keeps the headline Slowdown column measuring streaming
	// overhead alone, comparable with pre-placement numbers — the
	// default 4-domain topology would confine each apply to a quarter
	// of the pool. The ablations below run the shipped default.
	ooc, err := shard.Build(dir, g, shards, shard.Options{Threads: threads, Topology: sched.Topology{Domains: 1}})
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

	// Occupancy ablation: the same 10-iteration PageRank with a 1-deep
	// vs a D-deep staging window, both with concurrent domain apply and
	// a cache budget of D shards' worth of the store (big enough to let
	// the deep window actually fill, small enough against the store to
	// keep the sweep streaming).
	d := sched.DefaultTopology().Domains
	dShards := decodedBytes(st) * int64(d) / int64(st.NumShards())
	wOne, err := budgetEngine(st, g, dShards, shard.Options{Threads: threads, Window: 1})
	if err != nil {
		return nil, err
	}
	wDeep, err := budgetEngine(st, g, dShards, shard.Options{Threads: threads, Window: d})
	if err != nil {
		return nil, err
	}
	k1 := MedianTime(reps, func() { algorithms.PR(wOne, 10) })
	kD := MedianTime(reps, func() { algorithms.PR(wDeep, 10) })
	win := WindowResult{
		K1: Seconds(k1), KD: Seconds(kD), Speedup: Speedup(k1, kD),
		PeakK1:  wOne.Stats().ConcurrentApplyPeak,
		PeakKD:  wDeep.Stats().ConcurrentApplyPeak,
		Domains: d,
	}
	rep.Window = win
	fig.Notes = append(fig.Notes, fmt.Sprintf(
		"occupancy ablation: window k=1 %.3fs (peak %d concurrent applies) vs k=%d %.3fs (peak %d), %.2fx",
		win.K1, win.PeakK1, win.Domains, win.KD, win.PeakKD, win.Speedup))
	wst := wDeep.Stats()
	fig.Notes = append(fig.Notes, fmt.Sprintf(
		"OOC window k=%d: %d loads (%d overlapped an apply), domain shards %v, apply levels %v, hand-off depth histogram %v",
		win.Domains, wst.ShardLoads, wst.OverlappedLoads, wst.DomainShards, wst.ApplyLevels, wst.WindowDepths))

	// Async-read ablation: the same 10-iteration PageRank with one
	// in-flight read (the synchronous budget) vs IODepth = D, both over
	// the D-deep window and a cache that admits nothing, so every sweep
	// reads every planned shard from disk: the disk traffic columns are
	// byte-identical and only the overlap (and the peak) may differ.
	io1, err := budgetEngine(st, g, streamingCache, shard.Options{Threads: threads, Window: d, IODepth: 1})
	if err != nil {
		return nil, err
	}
	ioD, err := budgetEngine(st, g, streamingCache, shard.Options{Threads: threads, Window: d, IODepth: d})
	if err != nil {
		return nil, err
	}
	d1 := MedianTime(reps, func() { algorithms.PR(io1, 10) })
	dN := MedianTime(reps, func() { algorithms.PR(ioD, 10) })
	iod := IODepthResult{
		D1: Seconds(d1), DN: Seconds(dN), Speedup: Speedup(d1, dN),
		Depth:   d,
		PeakD1:  io1.Stats().ReadsInFlightPeak,
		PeakDN:  ioD.Stats().ReadsInFlightPeak,
		LoadsD1: io1.Stats().ShardLoads,
		LoadsDN: ioD.Stats().ShardLoads,
	}
	rep.IODepth = iod
	fig.Notes = append(fig.Notes, fmt.Sprintf(
		"async-read ablation: iodepth=1 %.3fs (peak %d reads in flight) vs iodepth=%d %.3fs (peak %d), %.2fx; read depth histogram %v",
		iod.D1, iod.PeakD1, iod.Depth, iod.DN, iod.PeakDN, iod.Speedup, ioD.Stats().ReadDepths))

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

	// Sweep-order ablation: the same 10-iteration dense PageRank over
	// the shared store under each Options.Order policy, with the cache at
	// half the store — the paper-motivated regime where ascending order
	// evicts the tail of sweep i exactly before sweep i+1 needs it while
	// zigzag and residency-first start each sweep on what is still
	// resident. Results are bit-identical across policies (plan order
	// changes when a shard is read, never what is computed); loads and
	// BytesRead are the whole point.
	or, err := orderAblation(st, g, threads, reps)
	if err != nil {
		return nil, err
	}
	rep.Order = or
	for _, col := range or.Columns {
		fig.Notes = append(fig.Notes, fmt.Sprintf(
			"order ablation (%.1f KiB cache): %s %.3fs, %d loads, %d cache hits, %.1f KiB read, %d reloads avoided",
			float64(or.CacheBytes)/1024, col.Order, col.Time, col.Loads, col.CacheHits,
			float64(col.BytesRead)/1024, col.ReloadsAvoided))
	}

	// Sweep-mode ablation: the same cold-cache dense PageRank over a raw
	// (v1) store in both sweep modes, with the cache tight enough that
	// the edge-centric column re-reads the store every iteration while
	// the scatter/gather column pays one cold pass and then replays
	// retained bins. Bytes moved is the headline; ranks must agree bit
	// for bit.
	sgr, err := scatterGatherAblation(g, dir, shards, threads, reps)
	if err != nil {
		return nil, err
	}
	rep.ScatterGather = sgr
	fig.Notes = append(fig.Notes, fmt.Sprintf(
		"scatter/gather ablation (v1 store, %.1f KiB cache): edge-centric moved %.1f KiB from disk vs scatter/gather %.1f KiB total (%.1f disk + %.1f bin writes + %.1f bin replays), %d bin reuses, ranks bit-identical=%v",
		float64(sgr.CacheBytes)/1024, float64(sgr.ECDiskBytes)/1024, float64(sgr.SGMovedBytes)/1024,
		float64(sgr.SGDiskBytes)/1024, float64(sgr.BinBytesWritten)/1024, float64(sgr.BinBytesRead)/1024,
		sgr.BinShardsReused, sgr.RanksIdentical))

	// Bin-budget ablation: the scatter/gather sweep with the bin store
	// unbounded, halved and starved. Budget placement only moves bytes
	// between memory and spill files — ranks must stay bit-identical —
	// and even the everything-spills column's disk traffic must come in
	// under the edge-centric re-reads over the same store.
	bbr, err := binBudgetAblation(g, dir, shards, threads, reps)
	if err != nil {
		return nil, err
	}
	rep.BinBudget = bbr
	fig.Notes = append(fig.Notes, fmt.Sprintf(
		"bin-budget ablation (v1 store, %.1f KiB cache, footprint %.1f KiB): unbounded moved %.1f KiB; half budget moved %.1f KiB (%.1f KiB spilled, %d replays); min budget moved %.1f KiB (%.1f KiB spilled, %d replays); edge-centric re-read %.1f KiB; ranks bit-identical=%v",
		float64(bbr.CacheBytes)/1024, float64(bbr.Footprint)/1024, float64(bbr.Full.MovedBytes)/1024,
		float64(bbr.Half.MovedBytes)/1024, float64(bbr.Half.Spilled)/1024, bbr.Half.Replays,
		float64(bbr.Zero.MovedBytes)/1024, float64(bbr.Zero.Spilled)/1024, bbr.Zero.Replays,
		float64(bbr.ECDiskBytes)/1024, bbr.RanksIdentical))

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

// scatterGatherAblation writes its own raw (v1) store — raw pricing
// makes the disk columns comparable byte for byte — and runs the
// cold-cache 10-iteration dense PageRank once per sweep mode over the
// same quarter-store cache budget, collecting the movement counters and
// the final ranks from each side.
func scatterGatherAblation(g *graph.Graph, dir string, shards, threads, reps int) (ScatterGatherResult, error) {
	var sgr ScatterGatherResult
	st, err := shard.Create(filepath.Join(dir, "sg-v1"), g, shard.WriteOptions{Partitions: shards, Format: shard.FormatV1})
	if err != nil {
		return ScatterGatherResult{}, err
	}
	sgr.CacheBytes = decodedBytes(st) / 4
	ec, err := budgetEngine(st, g, sgr.CacheBytes, shard.Options{Threads: threads})
	if err != nil {
		return ScatterGatherResult{}, err
	}
	sg, err := budgetEngine(st, g, sgr.CacheBytes, shard.Options{Threads: threads, SweepMode: shard.SweepScatterGather})
	if err != nil {
		return ScatterGatherResult{}, err
	}
	var ecRanks, sgRanks []float64
	ecT := MedianTime(reps, func() { ecRanks = algorithms.PR(ec, 10).Ranks })
	sgT := MedianTime(reps, func() { sgRanks = algorithms.PR(sg, 10).Ranks })
	sgr.ECTime, sgr.SGTime, sgr.Speedup = Seconds(ecT), Seconds(sgT), Speedup(ecT, sgT)
	ecs, sgs := ec.Stats(), sg.Stats()
	sgr.ECDiskBytes = ecs.BytesRead
	sgr.SGDiskBytes = sgs.BytesRead
	sgr.BinBytesWritten = sgs.BinBytesWritten
	sgr.BinBytesRead = sgs.BinBytesRead
	sgr.BinShardsReused = sgs.BinShardsReused
	sgr.SGMovedBytes = sgr.SGDiskBytes + sgr.BinBytesWritten + sgr.BinBytesRead
	sgr.RanksIdentical = len(ecRanks) == len(sgRanks)
	for i := 0; sgr.RanksIdentical && i < len(ecRanks); i++ {
		if math.Float64bits(ecRanks[i]) != math.Float64bits(sgRanks[i]) {
			sgr.RanksIdentical = false
		}
	}
	return sgr, nil
}

// binBudgetAblation runs the budget columns, each over its own freshly
// written raw store so one column's spill files can never satisfy
// another column's replays (spill names are generation-suffixed and the
// stores share a generation counter start). The unbounded column runs
// first and its BinWrites — every bin scattered exactly once, retained
// for the engine's lifetime — is the measured footprint the half budget
// derives from. The edge-centric reference runs over the unbounded
// column's store with the same cache budget, pricing what the sweeps
// would have re-read with no bins at all.
func binBudgetAblation(g *graph.Graph, dir string, shards, threads, reps int) (BinBudgetResult, error) {
	var br BinBudgetResult
	run := func(sub string, budget int64) (BinBudgetColumn, []float64, *shard.Store, error) {
		st, err := shard.Create(filepath.Join(dir, sub), g, shard.WriteOptions{Partitions: shards, Format: shard.FormatV1})
		if err != nil {
			return BinBudgetColumn{}, nil, nil, err
		}
		br.CacheBytes = decodedBytes(st) / 4
		eng, err := budgetEngine(st, g, br.CacheBytes, shard.Options{
			Threads: threads, SweepMode: shard.SweepScatterGather, BinBudgetBytes: budget,
		})
		if err != nil {
			return BinBudgetColumn{}, nil, nil, err
		}
		var ranks []float64
		t := MedianTime(reps, func() { ranks = algorithms.PR(eng, 10).Ranks })
		s := eng.Stats()
		col := BinBudgetColumn{
			Budget: budget, Time: Seconds(t), Loads: s.ShardLoads,
			DiskBytes: s.BytesRead, BinWrites: s.BinBytesWritten, BinReads: s.BinBytesRead,
			Spilled: s.BinBytesSpilled, SpillReads: s.BinSpillBytesRead,
			Evictions: s.BinShardsEvicted, Replays: s.BinSpillReplays,
		}
		col.MovedBytes = col.DiskBytes + col.BinWrites + col.BinReads + col.Spilled + col.SpillReads
		return col, ranks, st, nil
	}
	full, fullRanks, fullStore, err := run("bb-full", 0)
	if err != nil {
		return BinBudgetResult{}, err
	}
	br.Full, br.Footprint = full, full.BinWrites
	halfBudget := br.Footprint / 2
	if halfBudget < shard.MinBinBudgetBytes {
		halfBudget = shard.MinBinBudgetBytes
	}
	half, halfRanks, _, err := run("bb-half", halfBudget)
	if err != nil {
		return BinBudgetResult{}, err
	}
	br.Half = half
	zero, zeroRanks, _, err := run("bb-zero", shard.MinBinBudgetBytes)
	if err != nil {
		return BinBudgetResult{}, err
	}
	br.Zero = zero

	ec, err := budgetEngine(fullStore, g, br.CacheBytes, shard.Options{Threads: threads})
	if err != nil {
		return BinBudgetResult{}, err
	}
	var ecRanks []float64
	MedianTime(reps, func() { ecRanks = algorithms.PR(ec, 10).Ranks })
	br.ECDiskBytes = ec.Stats().BytesRead

	br.RanksIdentical = true
	for _, other := range [][]float64{halfRanks, zeroRanks, ecRanks} {
		if len(other) != len(fullRanks) {
			br.RanksIdentical = false
			break
		}
		for i := range fullRanks {
			if math.Float64bits(other[i]) != math.Float64bits(fullRanks[i]) {
				br.RanksIdentical = false
				break
			}
		}
	}
	return br, nil
}

// orderAblation runs the cold-start order columns over an
// already-written store with a half-store cache budget.
func orderAblation(st *shard.Store, g *graph.Graph, threads, reps int) (OrderResult, error) {
	or := OrderResult{CacheBytes: decodedBytes(st) / 2}
	for _, order := range shard.Orders() {
		eng, err := budgetEngine(st, g, or.CacheBytes, shard.Options{Threads: threads, Order: order})
		if err != nil {
			return OrderResult{}, err
		}
		t := Seconds(MedianTime(reps, func() { algorithms.PR(eng, 10) }))
		s := eng.Stats()
		or.Columns = append(or.Columns, OrderColumn{
			Order: order, Time: t, Loads: s.ShardLoads, CacheHits: s.CacheHits,
			BytesRead: s.BytesRead, ReloadsAvoided: s.ReloadsAvoided,
		})
	}
	return or, nil
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
