package shard

import (
	"math"
	"testing"

	"repro/internal/graph"
)

// twoClusters builds a graph of two disjoint 256-vertex communities
// (a chain plus some longer chords each), so with 64-aligned
// partitioning the shards split cleanly into cluster-A shards and
// cluster-B shards and a batch confined to cluster B has a dirty
// frontier that never reaches cluster A.
func twoClusters() []graph.Edge {
	var edges []graph.Edge
	for c := 0; c < 2; c++ {
		base := graph.VID(c * 256)
		for v := graph.VID(0); v < 255; v++ {
			edges = append(edges, graph.Edge{Src: base + v, Dst: base + v + 1})
		}
		for v := graph.VID(0); v < 256-17; v += 13 {
			edges = append(edges, graph.Edge{Src: base + v + 17, Dst: base + v})
		}
	}
	return edges
}

const tcN = 512 // twoClusters vertex count

// buildMutated creates a store missing `held`, applies held as a
// batch, and returns the store reopened at the new generation plus
// the merged graph — the standard mutate-then-requery fixture.
func buildMutated(t *testing.T, dir string, all, held []graph.Edge, p int) (*Store, *graph.Graph, []int) {
	t.Helper()
	heldSet := make(map[graph.Edge]bool, len(held))
	for _, e := range held {
		heldSet[e] = true
	}
	var initial []graph.Edge
	for _, e := range all {
		if !heldSet[e] {
			initial = append(initial, e)
		}
	}
	st, err := Create(dir, graph.FromEdges(tcN, initial), WriteOptions{Partitions: p})
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.ApplyBatch(held, nil)
	if err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return reopened, graph.FromEdges(tcN, all), res.Dirty
}

// TestIncrementalPRMatchesFull pins the re-convergence contract: after
// a batch confined to one community, restarting from the previous
// fixed point over only the dirty shards lands within 1e-12 of a full
// recompute on the mutated store — while loading strictly fewer
// shards.
func TestIncrementalPRMatchesFull(t *testing.T) {
	const p, tol = 8, 1e-15
	all := twoClusters()
	// Hold back some cluster-B chords: the batch's sources and
	// destinations all live in [256, 512).
	var held []graph.Edge
	for _, e := range all {
		if e.Src >= 256 && e.Src != e.Dst+17 && e.Src < e.Dst {
			held = append(held, e)
		}
	}
	if len(held) == 0 {
		t.Fatal("fixture holds back no edges")
	}

	dir := t.TempDir()
	st, g, dirty := buildMutated(t, dir, all, held, p)
	for _, si := range dirty {
		if lo, _ := st.Range(si); lo < 256 {
			t.Fatalf("batch confined to cluster B dirtied cluster-A shard %d", si)
		}
	}

	// The previous fixed point: converge on the pre-batch store.
	preDir := t.TempDir()
	heldSet := make(map[graph.Edge]bool)
	for _, e := range held {
		heldSet[e] = true
	}
	var initial []graph.Edge
	for _, e := range all {
		if !heldSet[e] {
			initial = append(initial, e)
		}
	}
	g0 := graph.FromEdges(tcN, initial)
	st0, err := Create(preDir, g0, WriteOptions{Partitions: p})
	if err != nil {
		t.Fatal(err)
	}
	e0, err := NewEngine(st0, g0, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	prev, err := e0.IncrementalPR(nil, nil, tol, 1000)
	if err != nil {
		t.Fatal(err)
	}

	// The default cache holds the store, so ShardLoads counts distinct
	// shards visited: the locality claim is about I/O, not visit
	// arithmetic.
	eInc, err := NewEngine(st, g, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	inc, err := eInc.IncrementalPR(prev.Ranks, dirty, tol, 1000)
	if err != nil {
		t.Fatal(err)
	}
	eFull, err := NewEngine(st, g, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	full, err := eFull.IncrementalPR(nil, nil, tol, 1000)
	if err != nil {
		t.Fatal(err)
	}

	var maxDiff float64
	for v := range full.Ranks {
		if d := math.Abs(full.Ranks[v] - inc.Ranks[v]); d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff > 1e-12 {
		t.Fatalf("incremental ranks diverge from full recompute by %g, want <= 1e-12", maxDiff)
	}
	incLoads, fullLoads := eInc.Stats().ShardLoads, eFull.Stats().ShardLoads
	if incLoads >= fullLoads {
		t.Fatalf("incremental loaded %d shards, full loaded %d — no locality win", incLoads, fullLoads)
	}
	if inc.ShardVisits >= full.ShardVisits {
		t.Fatalf("incremental visited %d shards, full visited %d", inc.ShardVisits, full.ShardVisits)
	}
}

// TestIncrementalCCInsertOnlyExact pins exactness: labels are monotone
// under insert-only batches, so re-converging from the previous fixed
// point equals a full recompute bit-for-bit — here with a batch that
// merges the two communities.
func TestIncrementalCCInsertOnlyExact(t *testing.T) {
	const p = 8
	all := twoClusters()
	bridge := []graph.Edge{{Src: 3, Dst: 300}, {Src: 7, Dst: 400}}
	all = append(all, bridge...)

	dir := t.TempDir()
	st, g, dirty := buildMutated(t, dir, all, bridge, p)

	// Previous fixed point on the pre-batch (disconnected) store.
	var initial []graph.Edge
	for _, e := range all[:len(all)-len(bridge)] {
		initial = append(initial, e)
	}
	g0 := graph.FromEdges(tcN, initial)
	st0, err := Create(t.TempDir(), g0, WriteOptions{Partitions: p})
	if err != nil {
		t.Fatal(err)
	}
	e0, err := NewEngine(st0, g0, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	prev, err := e0.IncrementalCC(nil, nil, tcN+1)
	if err != nil {
		t.Fatal(err)
	}
	// The two communities must be distinct before the bridge for the
	// test to show propagation across them.
	if prev.Labels[300] == prev.Labels[3] {
		t.Fatal("communities already merged before the bridge batch")
	}

	eInc, err := NewEngine(st, g, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	inc, err := eInc.IncrementalCC(prev.Labels, dirty, tcN+1)
	if err != nil {
		t.Fatal(err)
	}
	eFull, err := NewEngine(st, g, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	full, err := eFull.IncrementalCC(nil, nil, tcN+1)
	if err != nil {
		t.Fatal(err)
	}
	for v := range full.Labels {
		if full.Labels[v] != inc.Labels[v] {
			t.Fatalf("vertex %d: incremental label %d, full label %d", v, inc.Labels[v], full.Labels[v])
		}
	}
	if inc.Labels[300] != inc.Labels[3] {
		t.Fatal("bridge edge did not propagate the lower community's label")
	}
	if inc.ShardVisits >= full.ShardVisits {
		t.Fatalf("incremental visited %d shards, full visited %d", inc.ShardVisits, full.ShardVisits)
	}
}

// TestIncrementalValidation pins the argument errors.
func TestIncrementalValidation(t *testing.T) {
	g := graph.FromEdges(tcN, twoClusters())
	st, err := Create(t.TempDir(), g, WriteOptions{Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(st, g, Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.IncrementalPR(make([]float64, 3), nil, 1e-9, 10); err == nil {
		t.Fatal("short prev ranks accepted")
	}
	if _, err := e.IncrementalPR(nil, nil, 0, 10); err == nil {
		t.Fatal("zero tolerance accepted")
	}
	if _, err := e.IncrementalPR(nil, []int{99}, 1e-9, 10); err == nil {
		t.Fatal("out-of-range seed shard accepted")
	}
	if _, err := e.IncrementalCC(make([]int32, 3), nil, 10); err == nil {
		t.Fatal("short prev labels accepted")
	}
	if _, err := e.IncrementalPR(nil, nil, 1e-9, 0); err == nil {
		t.Fatal("zero sweep budget converged")
	}
}
