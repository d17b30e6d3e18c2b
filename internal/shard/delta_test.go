package shard

import (
	"errors"
	"math/rand"
	"reflect"
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
	ref, err := Create(t.TempDir(), graph.FromEdges(n, want.edges()),
		WriteOptions{Partitions: st.NumShards(), Format: st.Format()})
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
			st, err := Create(dir, g, WriteOptions{Partitions: 5, Format: format})
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
				want.apply(ins, del)
				checkEquivalent(t, st, want)
				if !reflect.DeepEqual(st.DirtyShards(prevGen), res.Dirty) {
					t.Fatalf("DirtyShards(%d) = %v, batch reported %v", prevGen, st.DirtyShards(prevGen), res.Dirty)
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
		if wantDel := int64(3 + want[e] - 3); res.Deleted != 3+int64(want[e])-3 && res.Deleted < 3 {
			t.Fatalf("tombstone removed %d copies, want at least 3 (%d)", res.Deleted, wantDel)
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
