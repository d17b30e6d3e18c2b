package shard

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// mutatedFixture builds a store with pending deltas and returns its
// dir and the expected (post-batch) edge multiset.
func mutatedFixture(t *testing.T) (string, edgeMultiset) {
	t.Helper()
	g := gen.TinySocial()
	dir := t.TempDir()
	st, err := Create(dir, g, WriteOptions{Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := multisetOf(g)
	ins := []graph.Edge{{Src: 0, Dst: 9}, {Src: 9, Dst: 0}, {Src: 3, Dst: 3}}
	del := g.Edges()[:2]
	if _, err := st.ApplyBatch(ins, del); err != nil {
		t.Fatal(err)
	}
	want.apply(ins, del)
	if st.PendingDeltas() == 0 {
		t.Fatal("fixture has no pending deltas")
	}
	return dir, want
}

// TestCrashMidCompactionLeavesOldGeneration is the regression test for
// the half-swapped-generation hole: a compactor killed after writing
// its new base files but before the manifest rename must leave the
// directory reopening as the previous generation, deltas and all, with
// content intact. The property holds because compaction writes its
// bases under fresh generation-suffixed names — were it to rewrite the
// live shard-NNNN.bin files in place, the old manifest would name
// half-new half-old files and this test would read merged garbage.
func TestCrashMidCompactionLeavesOldGeneration(t *testing.T) {
	dir, want := mutatedFixture(t)
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	gen0, pend0 := st.Generation(), st.PendingDeltas()

	// Simulate the crash: run compaction's file-writing half by hand —
	// every new base file durable under its next-generation name — and
	// stop before the manifest swap.
	next := gen0 + 1
	for i := 0; i < st.NumShards(); i++ {
		if len(st.deltas(i)) == 0 {
			continue
		}
		r, _, err := st.loadRuns(i)
		if err != nil {
			t.Fatal(err)
		}
		if err := writeShardFile(filepath.Join(dir, compactedShardName(i, next)), r); err != nil {
			t.Fatal(err)
		}
	}
	// And a torn manifest temp file from the dying rename, plus garbage
	// shard temps — all inert.
	for _, name := range []string{"manifest.json.tmp", compactedShardName(0, next) + ".tmp"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	reopened, err := Open(dir)
	if err != nil {
		t.Fatalf("reopening after a simulated mid-compaction crash: %v", err)
	}
	if reopened.Generation() != gen0 || reopened.PendingDeltas() != pend0 {
		t.Fatalf("reopened at generation %d with %d deltas, want %d with %d",
			reopened.Generation(), reopened.PendingDeltas(), gen0, pend0)
	}
	checkEquivalent(t, reopened, want)

	// The interrupted compaction can simply be rerun — the orphaned
	// gen-files are overwritten or superseded, never load-bearing.
	if _, err := reopened.Compact(); err != nil {
		t.Fatal(err)
	}
	checkEquivalent(t, reopened, want)
	final, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if final.PendingDeltas() != 0 {
		t.Fatalf("rerun compaction left %d deltas", final.PendingDeltas())
	}
	checkEquivalent(t, final, want)
}

// TestCompactionKeepsOldFiles pins the retention half of the contract:
// after a successful compaction the previous generation's base and
// delta files are still on disk (pinned sessions keep reading them),
// and the new manifest names only generation-suffixed bases.
func TestCompactionKeepsOldFiles(t *testing.T) {
	dir, want := mutatedFixture(t)
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var oldFiles []string
	for i := 0; i < st.NumShards(); i++ {
		oldFiles = append(oldFiles, st.basePath(i))
		for _, ref := range st.deltas(i) {
			oldFiles = append(oldFiles, filepath.Join(dir, ref.File))
		}
	}
	if _, err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	for _, path := range oldFiles {
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("compaction removed %s: %v", path, err)
		}
	}
	checkEquivalent(t, st, want)
}

// TestManifestRejectsBadDeltaLayer covers Open's validation of the new
// manifest fields: lengths tied to the shard count, file names confined
// to the directory, generations consistent, and counts bounded.
func TestManifestRejectsBadDeltaLayer(t *testing.T) {
	cases := []struct {
		name string
		edit func(*manifest)
	}{
		{"NegativeGeneration", func(m *manifest) { m.Generation = -1 }},
		{"BaseFilesShort", func(m *manifest) { m.BaseFiles = m.BaseFiles[:1] }},
		{"BaseEdgeCountsShort", func(m *manifest) { m.BaseEdgeCounts = m.BaseEdgeCounts[:1] }},
		{"DeltasShort", func(m *manifest) { m.Deltas = m.Deltas[:1] }},
		{"BaseFileEscapesDir", func(m *manifest) { m.BaseFiles[0] = "../evil.bin" }},
		{"BaseFileEmpty", func(m *manifest) { m.BaseFiles[0] = "" }},
		{"DeltaFileEscapesDir", func(m *manifest) { m.Deltas[0][0].File = "/etc/passwd" }},
		{"DeltaGenBeyondManifest", func(m *manifest) { m.Deltas[0][0].Gen = m.Generation + 1 }},
		{"DeltaGenNotIncreasing", func(m *manifest) { m.Deltas[0][0].Gen = 0 }},
		{"DeltaCountNegative", func(m *manifest) { m.Deltas[0][0].Ins = -1 }},
		{"DeltaCountHuge", func(m *manifest) { m.Deltas[0][0].Del = 1 << 62 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir, _ := mutatedFixture(t)
			// Materialize every optional field so edits have something
			// to corrupt: compact-then-mutate yields BaseFiles and
			// Deltas both non-nil.
			st, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := st.Compact(); err != nil {
				t.Fatal(err)
			}
			if _, err := st.ApplyBatch([]graph.Edge{{Src: 1, Dst: 0}}, nil); err != nil {
				t.Fatal(err)
			}
			// Normalize so shard 0 definitely carries a delta ref.
			if len(st.deltas(0)) == 0 {
				t.Skip("fixture batch landed on another shard")
			}
			rewriteManifest(t, dir, tc.edit)
			if _, err := Open(dir); err == nil {
				t.Fatal("Open accepted a manifest with a corrupt delta layer")
			}
		})
	}
}

// TestApplyBatchDropsLegacyDirtyGen: stores written by earlier versions
// carry a per-shard "dirty_gen" array in their manifest. Such a store
// must still open and sweep the same edges, and the next batch's
// manifest swap must leave the array behind.
func TestApplyBatchDropsLegacyDirtyGen(t *testing.T) {
	dir, want := mutatedFixture(t)
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	before := perDest(t, st)
	editManifest(t, dir, func(m map[string]any) {
		gen := st.Generation()
		dirty := make([]any, st.NumShards())
		for i := range dirty {
			dirty[i] = gen * int64(i%2)
		}
		m["dirty_gen"] = dirty
	})
	legacy, err := Open(dir)
	if err != nil {
		t.Fatalf("Open refused a manifest carrying dirty_gen: %v", err)
	}
	if !reflect.DeepEqual(perDest(t, legacy), before) {
		t.Fatal("a manifest carrying dirty_gen sweeps different edges")
	}
	ins := []graph.Edge{{Src: 2, Dst: 5}}
	if _, err := legacy.ApplyBatch(ins, nil); err != nil {
		t.Fatal(err)
	}
	want.apply(ins, nil)
	checkEquivalent(t, legacy, want)
	data, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if _, ok := m["dirty_gen"]; ok {
		t.Fatal("ApplyBatch carried dirty_gen into the new manifest")
	}
}
