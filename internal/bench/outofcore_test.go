package bench

import (
	"strings"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/gen"
	"repro/internal/shard"
)

func TestOutOfCoreComparisonRuns(t *testing.T) {
	g := gen.TinySocial()
	rep, err := OutOfCore(g, t.TempDir(), 8, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	fig, results, win, iod, fr := rep.Figure, rep.Results, rep.Window, rep.IODepth, rep.Format
	or, sgr, bbr, ur := rep.Order, rep.ScatterGather, rep.BinBudget, rep.Update
	if len(results) != 4 {
		t.Fatalf("got %d results, want 4", len(results))
	}
	for _, r := range results {
		if r.InMemory <= 0 || r.OutOfCore <= 0 {
			t.Fatalf("%s: non-positive timing %+v", r.Alg, r)
		}
	}
	// The ablations must produce real timings for every column; which
	// side wins on a micro graph under the OS page cache is not a
	// stable property, so only the shape is asserted here.
	if win.K1 <= 0 || win.KD <= 0 || win.Speedup <= 0 {
		t.Fatalf("window ablation has non-positive timings: %+v", win)
	}
	if win.PeakK1 < 1 || win.PeakKD < 1 {
		t.Fatalf("window ablation recorded no applies: %+v", win)
	}
	if win.Domains < 2 {
		t.Fatalf("window ablation ran with %d domains; the occupancy comparison needs several", win.Domains)
	}
	// The async-read ablation's traffic claims are categorical: the
	// depth-1 column is the synchronous pipeline (never more than one
	// read in flight), the deep column may not exceed its budget, and
	// plan-ordered admission makes the disk traffic identical across
	// depths. Wall-clock stays shape-only (a regression guard with
	// generous slack — which depth wins on a micro graph under the OS
	// page cache is not a stable property).
	if iod.D1 <= 0 || iod.DN <= 0 || iod.Speedup <= 0 {
		t.Fatalf("iodepth ablation has non-positive timings: %+v", iod)
	}
	if iod.Depth < 2 {
		t.Fatalf("iodepth ablation ran at depth %d; the overlap comparison needs several", iod.Depth)
	}
	if iod.PeakD1 != 1 {
		t.Fatalf("depth-1 run peaked at %d reads in flight, want exactly 1", iod.PeakD1)
	}
	if iod.PeakDN < 1 || iod.PeakDN > int64(iod.Depth) {
		t.Fatalf("depth-%d run peaked at %d reads in flight, want within [1, %d]", iod.Depth, iod.PeakDN, iod.Depth)
	}
	if iod.LoadsD1 != iod.LoadsDN {
		t.Fatalf("disk traffic differs across IO depths: %d loads at depth 1, %d at depth %d", iod.LoadsD1, iod.LoadsDN, iod.Depth)
	}
	if iod.LoadsD1 <= 0 {
		t.Fatalf("iodepth ablation recorded no loads: %+v", iod)
	}
	if iod.DN > 2*iod.D1 {
		t.Fatalf("deep read queue regressed cold-cache wall time beyond slack: depth 1 %.3fs, depth %d %.3fs", iod.D1, iod.Depth, iod.DN)
	}
	// The format ablation's claim is categorical, not statistical: on the
	// standard micro graph the compressed store must be strictly smaller
	// on disk AND the cold-cache sweep must decode strictly fewer bytes.
	// (Timings stay shape-only — which format wins wall-clock on a micro
	// graph under the OS page cache is not a stable property.)
	if fr.V1Time <= 0 || fr.V2Time <= 0 || fr.Speedup <= 0 {
		t.Fatalf("format ablation has non-positive timings: %+v", fr)
	}
	if fr.V2Disk >= fr.V1Disk {
		t.Fatalf("v2 store is not smaller on disk: v1 %d bytes, v2 %d bytes", fr.V1Disk, fr.V2Disk)
	}
	if fr.V2Bytes >= fr.V1Bytes {
		t.Fatalf("v2 sweep did not read fewer bytes: v1 %d, v2 %d", fr.V1Bytes, fr.V2Bytes)
	}
	if fr.Ratio <= 1 {
		t.Fatalf("compression ratio %.3f not > 1: %+v", fr.Ratio, fr)
	}
	if fr.V1BytesPerEdge <= fr.V2BytesPerEdge || fr.V2BytesPerEdge <= 0 {
		t.Fatalf("bytes/edge not improved: v1 %.2f, v2 %.2f", fr.V1BytesPerEdge, fr.V2BytesPerEdge)
	}
	// The order ablation's claims are categorical on the deterministic
	// fixture: same store, same cache budget, only the plan order differs,
	// so the locality-aware policies must never load more shards — or
	// read more bytes — than the ascending baseline, and with the cache
	// at half the store zigzag's boustrophedon must strictly win.
	if len(or.Columns) != 3 {
		t.Fatalf("order ablation has %d columns, want 3: %+v", len(or.Columns), or)
	}
	asc, zig, res := or.Columns[0], or.Columns[1], or.Columns[2]
	if asc.Order != shard.OrderAscending || zig.Order != shard.OrderZigzag || res.Order != shard.OrderResidencyFirst {
		t.Fatalf("order ablation columns out of order: %+v", or.Columns)
	}
	for _, col := range or.Columns {
		if col.Time <= 0 || col.Loads <= 0 {
			t.Fatalf("order ablation column %s has non-positive entries: %+v", col.Order, col)
		}
	}
	if asc.ReloadsAvoided != 0 {
		t.Fatalf("ascending baseline avoided %d reloads, want 0 by definition", asc.ReloadsAvoided)
	}
	if res.Loads > asc.Loads || res.BytesRead > asc.BytesRead {
		t.Fatalf("residency-first must never load more than ascending: %+v vs %+v", res, asc)
	}
	if zig.Loads > asc.Loads || zig.BytesRead > asc.BytesRead {
		t.Fatalf("zigzag must never load more than ascending: %+v vs %+v", zig, asc)
	}
	if zig.Loads >= asc.Loads || zig.ReloadsAvoided <= 0 {
		t.Fatalf("zigzag should strictly beat ascending with a half-store cache: %+v vs %+v", zig, asc)
	}
	if res.Loads >= asc.Loads || res.ReloadsAvoided <= 0 {
		t.Fatalf("residency-first should strictly beat ascending with a half-store cache: %+v vs %+v", res, asc)
	}
	// The sweep-mode ablation's claim is categorical, the whole reason the
	// scatter/gather mode exists: at high frontier density over a raw
	// store with a thrashing cache, the two-phase sweep must move strictly
	// fewer total bytes (disk + bin writes + bin replays) than the
	// edge-centric re-reads — while producing bit-identical ranks. The
	// cold pass must really have happened (disk bytes and bin writes
	// positive) and later iterations must really have reused bins.
	if sgr.ECTime <= 0 || sgr.SGTime <= 0 || sgr.Speedup <= 0 {
		t.Fatalf("scatter/gather ablation has non-positive timings: %+v", sgr)
	}
	if sgr.ECDiskBytes <= 0 || sgr.SGDiskBytes <= 0 || sgr.BinBytesWritten <= 0 || sgr.BinBytesRead <= 0 {
		t.Fatalf("scatter/gather ablation has idle byte counters: %+v", sgr)
	}
	if sgr.BinShardsReused <= 0 {
		t.Fatalf("scatter/gather ablation never reused a bin across iterations: %+v", sgr)
	}
	if sgr.SGMovedBytes != sgr.SGDiskBytes+sgr.BinBytesWritten+sgr.BinBytesRead {
		t.Fatalf("SGMovedBytes does not add up: %+v", sgr)
	}
	if sgr.SGMovedBytes >= sgr.ECDiskBytes {
		t.Fatalf("scatter/gather moved %d bytes, edge-centric re-read %d — the bytes-moved win is the mode's whole claim",
			sgr.SGMovedBytes, sgr.ECDiskBytes)
	}
	if !sgr.RanksIdentical {
		t.Fatalf("scatter/gather PageRank diverged from edge-centric: %+v", sgr)
	}
	// The bin-budget ablation's claims are categorical, the whole reason
	// the budget exists: the budget may only move bin bytes between
	// memory and spill files, never change what is computed (ranks
	// bit-identical across every column and the edge-centric reference);
	// the unbounded column must never spill; the half column must move
	// strictly fewer bytes than the everything-spills column; and even
	// the worst case — every bin replayed from disk every sweep — must
	// pull strictly fewer disk bytes than edge-centric re-reads.
	if bbr.Footprint <= 0 || bbr.Footprint != bbr.Full.BinWrites {
		t.Fatalf("bin-budget ablation footprint does not match the unbounded column's bin writes: %+v", bbr)
	}
	if bbr.Half.Budget <= shard.MinBinBudgetBytes || bbr.Half.Budget >= bbr.Footprint {
		t.Fatalf("half budget %d not strictly between MinBinBudgetBytes and the footprint %d — the columns would not separate", bbr.Half.Budget, bbr.Footprint)
	}
	for _, col := range []BinBudgetColumn{bbr.Full, bbr.Half, bbr.Zero} {
		if col.Time <= 0 || col.Loads <= 0 || col.DiskBytes <= 0 || col.BinWrites <= 0 || col.BinReads <= 0 {
			t.Fatalf("bin-budget column (budget %d) has idle counters: %+v", col.Budget, col)
		}
	}
	if bbr.Full.Spilled != 0 || bbr.Full.SpillReads != 0 || bbr.Full.Evictions != 0 || bbr.Full.Replays != 0 {
		t.Fatalf("unbounded column spilled or evicted bins: %+v", bbr.Full)
	}
	if bbr.Zero.Spilled <= 0 || bbr.Zero.Replays <= 0 {
		t.Fatalf("minimum-budget column never spilled or replayed — the starved rung exercised nothing: %+v", bbr.Zero)
	}
	if bbr.Half.MovedBytes >= bbr.Zero.MovedBytes {
		t.Fatalf("half budget moved %d bytes, minimum budget %d — residency under the larger budget must save traffic", bbr.Half.MovedBytes, bbr.Zero.MovedBytes)
	}
	if zeroDisk := bbr.Zero.DiskBytes + bbr.Zero.SpillReads; zeroDisk >= bbr.ECDiskBytes {
		t.Fatalf("everything-spills column pulled %d bytes from disk, edge-centric re-read %d — compressed replays beating raw re-reads is the spill path's whole claim", zeroDisk, bbr.ECDiskBytes)
	}
	if !bbr.RanksIdentical {
		t.Fatalf("bin budget changed PageRank bits: %+v", bbr)
	}
	// The update ablation's claims are categorical, the whole reason the
	// delta layer exists: the batch must have really appended deltas and
	// dirtied a strict subset of the store, the incremental re-run must
	// load strictly fewer shards (and make strictly fewer shard visits)
	// than the from-scratch re-run, and both must land on the same fixed
	// point to within 1e-12 per rank. Wall-clock stays shape-only.
	if ur.ApplyTime <= 0 || ur.CompactTime <= 0 || ur.FullTime <= 0 || ur.IncTime <= 0 || ur.Speedup <= 0 {
		t.Fatalf("update ablation has non-positive timings: %+v", ur)
	}
	if ur.Inserted <= 0 || ur.Deleted != 0 {
		t.Fatalf("update ablation batch miscounted: %+v", ur)
	}
	if ur.DirtyShards <= 0 || ur.DirtyShards >= ur.TotalShards {
		t.Fatalf("batch dirtied %d of %d shards; the ablation needs a strict subset so locality has something to save", ur.DirtyShards, ur.TotalShards)
	}
	if ur.IncLoads >= ur.FullLoads {
		t.Fatalf("incremental re-convergence loaded %d shards, full re-run %d — strictly fewer is the delta layer's whole claim", ur.IncLoads, ur.FullLoads)
	}
	if ur.IncVisits >= ur.FullVisits {
		t.Fatalf("incremental re-convergence visited %d shards, full re-run %d, want strictly fewer", ur.IncVisits, ur.FullVisits)
	}
	if ur.MaxDiff > 1e-12 {
		t.Fatalf("incremental and full fixed points disagree by %g, want <= 1e-12", ur.MaxDiff)
	}
	text := fig.Render()
	for _, want := range []string{"GG-v2", "OOC", "cache hits", "overlapped an apply", "domain shards", "occupancy ablation", "apply levels", "async-read ablation", "format ablation", "order ablation", "scatter/gather ablation", "bin-budget ablation", "update ablation"} {
		if !strings.Contains(text, want) {
			t.Fatalf("rendered figure missing %q:\n%s", want, text)
		}
	}
}

// TestOutOfCoreComparisonAgrees pins the comparison to correctness, not
// just timing: the engine being benchmarked must produce the in-memory
// engine's PageRank.
func TestOutOfCoreComparisonAgrees(t *testing.T) {
	g := gen.TinySocial()
	ooc, err := shard.Build(t.TempDir(), g, 8, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := algorithms.PR(ooc, 10).Ranks
	want := algorithms.SerialPR(g, 10)
	for v := range want {
		diff := got[v] - want[v]
		if diff < -1e-12 || diff > 1e-12 {
			t.Fatalf("rank[%d] = %v, want %v", v, got[v], want[v])
		}
	}
}
