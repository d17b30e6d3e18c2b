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
	fig, results, fr, ur := rep.Figure, rep.Results, rep.Format, rep.Update
	if len(results) != 4 {
		t.Fatalf("got %d results, want 4", len(results))
	}
	for _, r := range results {
		if r.InMemory <= 0 || r.OutOfCore <= 0 {
			t.Fatalf("%s: non-positive timing %+v", r.Alg, r)
		}
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
	for _, want := range []string{"GG-v2", "OOC", "cache hits", "format ablation", "update ablation"} {
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
