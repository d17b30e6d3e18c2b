package shard

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
)

// Create and Compact write v3 only, but v1 and v2 stores stay readable
// and compactable, so the format, delta and fuzz batteries still need
// files in those layouts. The encoders below are the ones Create used
// for them; they live in tests only.

// writeShardFormat writes c as one shard file in format f: v1 as the
// edge count and the two arrays in the order given, v2 as the magic,
// the count and one v2 stream (c must be (dst,src)-sorted), v3 through
// writeShardFile.
func writeShardFormat(path string, c *graph.COO, f Format) error {
	if f == FormatV3 {
		return writeShardFile(path, c)
	}
	return writeFileAtomic(path, func(file *os.File) error {
		switch f {
		case FormatV1:
			if err := binary.Write(file, binary.LittleEndian, int64(len(c.Src))); err != nil {
				return err
			}
			if err := binary.Write(file, binary.LittleEndian, c.Src); err != nil {
				return err
			}
			return binary.Write(file, binary.LittleEndian, c.Dst)
		case FormatV2:
			// A bufio.Writer's error is sticky, so Flush reports any.
			w := bufio.NewWriter(file)
			w.Write(shardMagicV2[:])
			putUvarint(w, uint64(len(c.Src)))
			encodeV2Stream(w, c.Src, c.Dst)
			return w.Flush()
		}
		return fmt.Errorf("shard: cannot write format %v", f)
	})
}

// createFormat writes g as a p-shard store in format f. For v1 and v2
// the directory is byte for byte what Create wrote for that format:
// the v3 store, its base files re-encoded from the partitioner's parts
// (v1 in their CSR order, v2 (dst,src)-sorted) and its manifest magic
// renamed. The Meta file does not depend on the format.
func createFormat(dir string, g *graph.Graph, p int, f Format) (*Store, error) {
	st, err := Create(dir, g, WriteOptions{Partitions: p})
	if err != nil || f == FormatV3 {
		return st, err
	}
	pt := partition.ByDestination(g, p, partition.BalanceEdges)
	for i, part := range partition.NewPCOO(g, pt).Parts {
		if f == FormatV2 {
			part = sortByDst(part, pt.Bounds[i], pt.Bounds[i+1])
		}
		if err := writeShardFormat(shardPath(dir, i), part, f); err != nil {
			return nil, err
		}
	}
	st.m.Magic = f.manifestMagic()
	if err := writeManifest(dir, st.m); err != nil {
		return nil, err
	}
	st.format = f
	return st, nil
}

// copyDir copies the plain files of src into a fresh temp directory.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// sameDirs fails unless directories a and b hold the same files with
// the same bytes.
func sameDirs(t *testing.T, a, b string) {
	t.Helper()
	ea, err := os.ReadDir(a)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := os.ReadDir(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(ea) != len(eb) {
		t.Fatalf("%s has %d files, %s has %d", a, len(ea), b, len(eb))
	}
	for i := range ea {
		if ea[i].Name() != eb[i].Name() {
			t.Fatalf("file %d: %s vs %s", i, ea[i].Name(), eb[i].Name())
		}
		da, err := os.ReadFile(filepath.Join(a, ea[i].Name()))
		if err != nil {
			t.Fatal(err)
		}
		db, err := os.ReadFile(filepath.Join(b, eb[i].Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(da, db) {
			t.Fatalf("%s differs (%d vs %d bytes)", ea[i].Name(), len(da), len(db))
		}
	}
}

// loadAll loads every shard of st.
func loadAll(t *testing.T, st *Store) []*graph.COO {
	t.Helper()
	out := make([]*graph.COO, st.NumShards())
	for i := range out {
		c, err := st.LoadShard(i)
		if err != nil {
			t.Fatalf("load shard %d: %v", i, err)
		}
		out[i] = c
	}
	return out
}

// TestLegacyFixtureStores runs the committed v1 and v2 stores under
// testdata/legacy — written from gen.TinySocial() with four partitions
// by the Create that still wrote those formats — through the legacy
// surface: each opens, sweeps to the generator's edges and takes a
// batch, and compaction turns it into a v3 store with the same shards
// while a Store opened before the compaction keeps reading the old
// files. createFormat, which the format batteries write their legacy
// stores with, must reproduce each fixture byte for byte.
func TestLegacyFixtureStores(t *testing.T) {
	g := gen.TinySocial()
	for _, f := range []Format{FormatV1, FormatV2} {
		t.Run(f.String(), func(t *testing.T) {
			fixture := filepath.Join("testdata", "legacy", f.String())
			dir := t.TempDir()
			if _, err := createFormat(dir, g, 4, f); err != nil {
				t.Fatal(err)
			}
			sameDirs(t, dir, fixture)

			dir = copyDir(t, fixture)
			st, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if st.Format() != f || st.NumShards() != 4 {
				t.Fatalf("fixture opens as %v with %d shards, want %v with 4", st.Format(), st.NumShards(), f)
			}
			got := make(edgeMultiset)
			got.apply(collectEdges(t, st), nil)
			if !maps.Equal(got, multisetOf(g)) {
				t.Fatalf("fixture sweeps a different edge multiset from the generator's")
			}

			// The batch touches shard 0 alone, so compaction must also
			// rewrite the three shards that have no deltas.
			_, hi := st.Range(0)
			ins := []graph.Edge{{Src: 1, Dst: 0}, {Src: 2, Dst: hi - 1}}
			var del []graph.Edge
			for _, e := range g.Edges() {
				if e.Dst < hi && len(del) < 3 {
					del = append(del, e)
				}
			}
			if _, err := st.ApplyBatch(ins, del); err != nil {
				t.Fatal(err)
			}
			if st.PendingDeltas() != 1 {
				t.Fatalf("batch left %d delta files, want 1 (shard 0's)", st.PendingDeltas())
			}
			pinned, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			before := loadAll(t, pinned)
			if _, err := st.Compact(); err != nil {
				t.Fatal(err)
			}
			compacted, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range []*Store{st, compacted} {
				if s.Format() != FormatV3 || s.PendingDeltas() != 0 {
					t.Fatalf("compacted store is %v with %d deltas pending, want v3 with none", s.Format(), s.PendingDeltas())
				}
			}
			for i := 0; i < compacted.NumShards(); i++ {
				if compacted.m.BaseFiles[i] != compactedShardName(i, compacted.Generation()) {
					t.Fatalf("shard %d still based on %s after compaction", i, compacted.m.BaseFiles[i])
				}
			}
			after := loadAll(t, compacted)
			for i, c := range loadAll(t, pinned) {
				if !slices.Equal(c.Src, before[i].Src) || !slices.Equal(c.Dst, before[i].Dst) ||
					!slices.Equal(c.Src, after[i].Src) || !slices.Equal(c.Dst, after[i].Dst) {
					t.Fatalf("shard %d differs across compaction or for the pinned store", i)
				}
			}
		})
	}
}
