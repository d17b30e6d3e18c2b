package shard

import (
	"errors"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// The delta-layer contract under test: after any sequence of
// ApplyBatch calls (and optional Compacts and reopens), the store's
// per-destination edge streams are identical to a store rebuilt from
// scratch from the merged edge multiset. Per-destination identity is
// the strongest equivalence the engine can observe — all application
// order derives from it — so it is what the property battery compares.

// edgeMultiset tracks the expected live multiset under the batch
// semantics: inserts add copies, a tombstone removes all copies.
type edgeMultiset map[graph.Edge]int

func (m edgeMultiset) apply(ins, del []graph.Edge) {
	for _, e := range ins {
		m[e]++
	}
	for _, e := range del {
		delete(m, e)
	}
}

// deleted returns how many live copies del's tombstones remove from m
// once ins is added: the copies of each distinct tombstoned pair after
// the same batch's inserts.
func (m edgeMultiset) deleted(ins, del []graph.Edge) int64 {
	after := maps.Clone(m)
	for _, e := range ins {
		after[e]++
	}
	var n int64
	for _, e := range del {
		n += int64(after[e])
		delete(after, e)
	}
	return n
}

// checkRunTables holds the engine's load of every shard of st to the
// decoded-run invariants: non-empty runs, strictly ascending
// destinations inside the shard's range, ends reaching the last source,
// and the manifest's live edge count.
func checkRunTables(t *testing.T, st *Store) {
	t.Helper()
	for i := 0; i < st.NumShards(); i++ {
		r, _, err := st.loadRuns(i)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := st.Range(i)
		checkDecodedInvariants(t, r, st.m.EdgeCounts[i], st.NumVertices(), lo, hi)
	}
}

func (m edgeMultiset) edges() []graph.Edge {
	var out []graph.Edge
	for e, c := range m {
		for i := 0; i < c; i++ {
			out = append(out, e)
		}
	}
	return out
}

// perDest sweeps st into per-destination source sequences.
func perDest(t *testing.T, st *Store) map[graph.VID][]graph.VID {
	t.Helper()
	out := make(map[graph.VID][]graph.VID)
	if err := st.Sweep(func(u, v graph.VID) { out[v] = append(out[v], u) }); err != nil {
		t.Fatal(err)
	}
	return out
}

// checkEquivalent asserts st is per-destination identical to a store
// rebuilt from scratch from want's multiset, with the same geometry.
func checkEquivalent(t *testing.T, st *Store, want edgeMultiset) {
	t.Helper()
	n := st.NumVertices()
	ref, err := Create(t.TempDir(), graph.FromEdges(n, want.edges()), WriteOptions{Partitions: st.NumShards()})
	if err != nil {
		t.Fatal(err)
	}
	got, wantStreams := perDest(t, st), perDest(t, ref)
	if !reflect.DeepEqual(got, wantStreams) {
		t.Fatalf("mutated store diverges from from-scratch rebuild: %d vs %d destinations", len(got), len(wantStreams))
	}
	var total int64
	for _, c := range want {
		total += int64(c)
	}
	if st.NumEdges() != total {
		t.Fatalf("store says %d edges, multiset has %d", st.NumEdges(), total)
	}
}

func multisetOf(g *graph.Graph) edgeMultiset {
	m := make(edgeMultiset)
	for _, e := range g.Edges() {
		m[e]++
	}
	return m
}

// TestApplyBatchRandomEquivalence is the property battery: random
// batches of inserts and deletes against random graphs, checked after
// every batch — through the live store, through a reopen, and again
// after compaction — against a from-scratch rebuild.
func TestApplyBatchRandomEquivalence(t *testing.T) {
	for _, format := range []Format{FormatV1, FormatV2, FormatV3} {
		for seed := int64(1); seed <= 3; seed++ {
			g := gen.ErdosRenyi(320, 1200, uint64(seed))
			n := g.NumVertices()
			dir := t.TempDir()
			st, err := createFormat(dir, g, 5, format)
			if err != nil {
				t.Fatal(err)
			}
			want := multisetOf(g)
			rng := rand.New(rand.NewSource(seed * 7919))
			existing := g.Edges()
			for round := 0; round < 4; round++ {
				var ins, del []graph.Edge
				for i := 0; i < 30; i++ {
					ins = append(ins, graph.Edge{Src: graph.VID(rng.Intn(n)), Dst: graph.VID(rng.Intn(n))})
				}
				for i := 0; i < 10; i++ {
					del = append(del, existing[rng.Intn(len(existing))]) // often present
					del = append(del, graph.Edge{Src: graph.VID(rng.Intn(n)), Dst: graph.VID(rng.Intn(n))})
				}
				prevGen := st.Generation()
				res, err := st.ApplyBatch(ins, del)
				if err != nil {
					t.Fatal(err)
				}
				if res.Generation != prevGen+1 || st.Generation() != res.Generation {
					t.Fatalf("generation %d after batch on %d", st.Generation(), prevGen)
				}
				wantDel := want.deleted(ins, del)
				want.apply(ins, del)
				checkEquivalent(t, st, want)
				checkRunTables(t, st)
				if res.Inserted != int64(len(ins)) || res.Deleted != wantDel {
					t.Fatalf("batch reports %d inserted / %d deleted, want %d / %d", res.Inserted, res.Deleted, len(ins), wantDel)
				}
				reopened, err := Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				checkEquivalent(t, reopened, want)
				if reopened.Generation() != st.Generation() || reopened.PendingDeltas() != st.PendingDeltas() {
					t.Fatal("reopen does not round-trip the delta layer")
				}
			}
			if st.PendingDeltas() == 0 {
				t.Fatal("no deltas pending before compaction — test lost its bite")
			}
			cgen, err := st.Compact()
			if err != nil {
				t.Fatal(err)
			}
			if st.PendingDeltas() != 0 || cgen != st.Generation() {
				t.Fatalf("compaction left %d deltas at generation %d (returned %d)", st.PendingDeltas(), st.Generation(), cgen)
			}
			checkEquivalent(t, st, want)
			reopened, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			checkEquivalent(t, reopened, want)
			// Compaction is idempotent with nothing pending: no bump.
			if g2, err := st.Compact(); err != nil || g2 != cgen {
				t.Fatalf("second compact returned (%d, %v), want (%d, nil)", g2, err, cgen)
			}
		}
	}
}

func TestApplyBatchEdgeCases(t *testing.T) {
	g := gen.TinySocial()
	dir := t.TempDir()
	st, err := Create(dir, g, WriteOptions{Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := multisetOf(g)

	t.Run("EmptyBatchIsNoOp", func(t *testing.T) {
		res, err := st.ApplyBatch(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Generation != 0 || st.Generation() != 0 || st.PendingDeltas() != 0 {
			t.Fatalf("empty batch bumped the store to generation %d", st.Generation())
		}
	})

	t.Run("DeleteMissingEdge", func(t *testing.T) {
		missing := graph.Edge{Src: 0, Dst: graph.VID(g.NumVertices() - 1)}
		if want[missing] != 0 {
			t.Fatal("fixture edge unexpectedly present")
		}
		res, err := st.ApplyBatch(nil, []graph.Edge{missing})
		if err != nil {
			t.Fatal(err)
		}
		if res.Deleted != 0 || res.Inserted != 0 {
			t.Fatalf("deleting a missing edge reported %d deleted / %d inserted", res.Deleted, res.Inserted)
		}
		checkEquivalent(t, st, want)
	})

	t.Run("InsertThenDeleteInOneBatch", func(t *testing.T) {
		var e graph.Edge
		for s := 0; want[e] != 0 || s == 0; s++ {
			e = graph.Edge{Src: graph.VID(s % g.NumVertices()), Dst: graph.VID((s * 3) % g.NumVertices())}
		}
		res, err := st.ApplyBatch([]graph.Edge{e}, []graph.Edge{e})
		if err != nil {
			t.Fatal(err)
		}
		// The tombstone removes all copies, including the same batch's
		// insert: the edge nets to absent, and both counters saw it.
		if res.Inserted != 1 || res.Deleted != 1 {
			t.Fatalf("insert-then-delete reported %d inserted / %d deleted, want 1 / 1", res.Inserted, res.Deleted)
		}
		checkEquivalent(t, st, want)
	})

	t.Run("TombstoneRemovesAllCopies", func(t *testing.T) {
		e := graph.Edge{Src: 3, Dst: 4}
		if _, err := st.ApplyBatch([]graph.Edge{e, e, e}, nil); err != nil {
			t.Fatal(err)
		}
		want.apply([]graph.Edge{e, e, e}, nil)
		checkEquivalent(t, st, want)
		res, err := st.ApplyBatch(nil, []graph.Edge{e})
		if err != nil {
			t.Fatal(err)
		}
		if res.Deleted != int64(want[e]) {
			t.Fatalf("tombstone removed %d copies, want %d", res.Deleted, want[e])
		}
		want.apply(nil, []graph.Edge{e})
		checkEquivalent(t, st, want)
	})

	t.Run("TombstoneOnlyBatchRoundTrips", func(t *testing.T) {
		reopened, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		checkEquivalent(t, reopened, want)
	})
}

// TestApplyBatchRunTableEdgeCases drives the run merge through the
// shapes a run table takes at its edges: a destination losing every
// in-edge, a whole shard emptied, new destinations before the first run
// and after the last, and a pair tombstoned in one generation and
// re-inserted in the next. After every batch the engine's load of every
// shard holds to the run invariants — an empty run left in the table
// would put a destination with no in-edges into PageRank's next
// frontier — and the store to a from-scratch rebuild, as it does again
// after a reopen and a compaction.
func TestApplyBatchRunTableEdgeCases(t *testing.T) {
	g := gen.ErdosRenyi(1024, 8000, 11)
	dir := t.TempDir()
	st, err := Create(dir, g, WriteOptions{Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < st.NumShards(); i++ {
		if st.m.EdgeCounts[i] < 64 {
			t.Fatalf("fixture shard %d holds %d edges: too few for the cases below", i, st.m.EdgeCounts[i])
		}
	}
	want := multisetOf(g)
	apply := func(t *testing.T, ins, del []graph.Edge) {
		t.Helper()
		wantDel := want.deleted(ins, del)
		res, err := st.ApplyBatch(ins, del)
		if err != nil {
			t.Fatal(err)
		}
		if res.Inserted != int64(len(ins)) || res.Deleted != wantDel {
			t.Fatalf("batch reports %d inserted / %d deleted, want %d / %d", res.Inserted, res.Deleted, len(ins), wantDel)
		}
		want.apply(ins, del)
		checkRunTables(t, st)
		checkEquivalent(t, st, want)
	}
	load := func(t *testing.T, si int) *Runs {
		t.Helper()
		r, err := st.LoadShard(si)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	// inEdges returns every live in-edge of the destinations of shard si
	// that keep returns true for.
	inEdges := func(t *testing.T, si int, keep func(graph.VID) bool) []graph.Edge {
		var es []graph.Edge
		r := load(t, si)
		for k := range r.NumRuns() {
			v, srcs := r.Run(k)
			for _, u := range srcs {
				if keep(v) {
					es = append(es, graph.Edge{Src: u, Dst: v})
				}
			}
		}
		return es
	}

	t.Run("TombstoneEveryInEdgeOfOneDestination", func(t *testing.T) {
		r := load(t, 1)
		v, _ := r.Run(r.NumRuns() / 2)
		apply(t, nil, inEdges(t, 1, func(d graph.VID) bool { return d == v }))
		if r := load(t, 1); slices.Contains(r.dst, v) {
			t.Fatalf("destination %d keeps a run after losing every in-edge", v)
		}
	})

	t.Run("EmptyAWholeShard", func(t *testing.T) {
		apply(t, nil, inEdges(t, 2, func(graph.VID) bool { return true }))
		if r := load(t, 2); r.NumRuns() != 0 || r.NumEdges() != 0 {
			t.Fatalf("emptied shard loads %d edges in %d runs", r.NumEdges(), r.NumRuns())
		}
		apply(t, []graph.Edge{{Src: 7, Dst: st.m.Bounds[2]}}, nil)
	})

	t.Run("InsertBeforeFirstAndAfterLastRun", func(t *testing.T) {
		lo, hi := st.Range(3)
		apply(t, nil, inEdges(t, 3, func(d graph.VID) bool { return d == lo || d == hi-1 }))
		if r := load(t, 3); r.dst[0] == lo || r.dst[len(r.dst)-1] == hi-1 {
			t.Fatalf("shard 3's runs still span [%d,%d]", r.dst[0], r.dst[len(r.dst)-1])
		}
		apply(t, []graph.Edge{{Src: 9, Dst: hi - 1}, {Src: 3, Dst: lo}, {Src: 4, Dst: lo}}, nil)
		r := load(t, 3)
		if first, firstSrc := r.Run(0); first != lo || !slices.Equal(firstSrc, []graph.VID{3, 4}) {
			t.Fatalf("first run is destination %d with sources %v, want %d with [3 4]", first, firstSrc, lo)
		}
		if last, lastSrc := r.Run(r.NumRuns() - 1); last != hi-1 || !slices.Equal(lastSrc, []graph.VID{9}) {
			t.Fatalf("last run is destination %d with sources %v, want %d with [9]", last, lastSrc, hi-1)
		}
	})

	t.Run("ReinsertTombstonedPairNextGeneration", func(t *testing.T) {
		e := g.Edges()[len(g.Edges())/3]
		apply(t, nil, []graph.Edge{e})
		apply(t, []graph.Edge{e, e}, nil)
		if want[e] != 2 {
			t.Fatalf("fixture holds %d copies of %v, want 2", want[e], e)
		}
	})

	t.Run("ReopenAndCompact", func(t *testing.T) {
		if st, err = Open(dir); err != nil {
			t.Fatal(err)
		}
		checkRunTables(t, st)
		if _, err := st.Compact(); err != nil {
			t.Fatal(err)
		}
		checkRunTables(t, st)
		checkEquivalent(t, st, want)
	})
}

func TestApplyBatchValidation(t *testing.T) {
	st, err := Create(t.TempDir(), gen.TinySocial(), WriteOptions{Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	n := graph.VID(st.NumVertices())
	cases := []struct {
		name     string
		ins, del []graph.Edge
		op, fld  string
	}{
		{"InsertBadSource", []graph.Edge{{Src: n, Dst: 0}}, nil, "insert", "source"},
		{"InsertBadDestination", []graph.Edge{{Src: 0, Dst: n + 5}}, nil, "insert", "destination"},
		{"DeleteBadSource", nil, []graph.Edge{{Src: n, Dst: 0}}, "delete", "source"},
		{"DeleteBadDestination", nil, []graph.Edge{{Src: 0, Dst: n}}, "delete", "destination"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := st.ApplyBatch(tc.ins, tc.del)
			var be *BatchError
			if !errors.As(err, &be) {
				t.Fatalf("got %v, want *BatchError", err)
			}
			if be.Op != tc.op || be.Field != tc.fld || be.Hi != n {
				t.Fatalf("BatchError = %+v, want op=%s field=%s hi=%d", be, tc.op, tc.fld, n)
			}
			if st.Generation() != 0 || st.PendingDeltas() != 0 {
				t.Fatal("rejected batch mutated the store")
			}
		})
	}
}

// TestPinnedGenerationStaysReadable is the retention contract: a Store
// value opened before mutations keeps serving exactly its generation's
// content — ApplyBatch and Compact never overwrite or delete the files
// an older manifest names.
func TestPinnedGenerationStaysReadable(t *testing.T) {
	g := gen.TinySocial()
	dir := t.TempDir()
	if _, err := Create(dir, g, WriteOptions{Partitions: 4}); err != nil {
		t.Fatal(err)
	}
	pinned, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	original := multisetOf(g)

	mutator, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	batch := []graph.Edge{{Src: 0, Dst: 1}, {Src: 5, Dst: 0}}
	if _, err := mutator.ApplyBatch(batch, g.Edges()[:3]); err != nil {
		t.Fatal(err)
	}
	checkEquivalent(t, pinned, original)
	if _, err := mutator.Compact(); err != nil {
		t.Fatal(err)
	}
	checkEquivalent(t, pinned, original)

	// And a second mutation epoch on top of the compacted base.
	if _, err := mutator.ApplyBatch(batch, nil); err != nil {
		t.Fatal(err)
	}
	checkEquivalent(t, pinned, original)
}

// TestEngineGenerationGuard pins the staleness contract: an engine
// built over generation G panics out of EdgeMap once the store has
// moved on, rather than sweeping a mix of old residents and new files.
func TestEngineGenerationGuard(t *testing.T) {
	g := gen.TinySocial()
	dir := t.TempDir()
	st, err := Create(dir, g, WriteOptions{Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(st, g, Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.ApplyBatch([]graph.Edge{{Src: 0, Dst: 1}}, nil); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("stale engine swept a newer-generation store without panicking")
		}
	}()
	e.checkGen()
}
