package shard

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// storeEdges drains a store into a sorted-insensitive edge multiset
// keyed by (src, dst) for before/after comparison.
func storeEdges(t *testing.T, s *Store) map[[2]graph.VID]int {
	t.Helper()
	edges := map[[2]graph.VID]int{}
	if err := s.Sweep(func(u, v graph.VID) { edges[[2]graph.VID{u, v}]++ }); err != nil {
		t.Fatalf("sweeping the store: %v", err)
	}
	return edges
}

// TestWriteLeavesNoTempFiles: the atomic-rename write path must not
// litter the store directory — every temp name is renamed into place
// or removed, so Open never has stale partial files to trip over.
func TestWriteLeavesNoTempFiles(t *testing.T) {
	dir := t.TempDir()
	if _, err := Create(dir, gen.TinySocial(), WriteOptions{Partitions: 8}); err != nil {
		t.Fatal(err)
	}
	tmps, err := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tmps) != 0 {
		t.Fatalf("Write left temp files behind: %v", tmps)
	}
}

// TestCrashMidRewriteLeavesOldStore simulates a writer killed partway
// through re-converting a store: the temp files it was building (shard
// and manifest alike, filled with garbage) are still on disk, but the
// rename never happened. Because the manifest is only renamed into
// place after every shard file it names is durable, the directory must
// reopen as the old, complete store with its edge multiset intact —
// the stale temp files are inert.
func TestCrashMidRewriteLeavesOldStore(t *testing.T) {
	dir := t.TempDir()
	g := gen.TinySocial()
	s, err := Create(dir, g, WriteOptions{Partitions: 8})
	if err != nil {
		t.Fatal(err)
	}
	want := storeEdges(t, s)

	garbage := []byte("torn half-written shard data from a dead writer")
	for _, name := range []string{"shard-0003.bin.tmp", "shard-0007.bin.tmp", "manifest.json.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, name), garbage, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	reopened, err := Open(dir)
	if err != nil {
		t.Fatalf("reopening after a simulated mid-rewrite crash: %v", err)
	}
	if got := storeEdges(t, reopened); len(got) != len(want) {
		t.Fatalf("reopened store has %d distinct edges, want %d", len(got), len(want))
	} else {
		for e, n := range want {
			if got[e] != n {
				t.Fatalf("edge %v appears %d times after reopen, want %d", e, got[e], n)
			}
		}
	}
}

// TestTornShardFileNeverDecodesSilently: a shard file that disagrees
// with the manifest — here rewritten with a different edge count, as a
// torn or swapped file would be — must surface as a typed validation
// error from the read path, never as silently wrong edges.
func TestTornShardFileNeverDecodesSilently(t *testing.T) {
	for _, format := range []Format{FormatV1, FormatV2, FormatV3} {
		t.Run(format.String(), func(t *testing.T) {
			dir := t.TempDir()
			if _, err := Create(dir, gen.TinySocial(), WriteOptions{Partitions: 8, Format: format}); err != nil {
				t.Fatal(err)
			}
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			// A well-formed shard file whose edge count provably
			// contradicts the manifest: one edge more than it declares.
			n := s.m.EdgeCounts[2] + 1
			bad := &graph.COO{N: s.m.Vertices, Src: make([]graph.VID, n), Dst: make([]graph.VID, n)}
			if err := writeShardFile(shardPath(dir, 2), bad, format); err != nil {
				t.Fatal(err)
			}
			if _, err := s.LoadShard(2); err == nil {
				t.Fatal("LoadShard decoded a shard file that contradicts the manifest")
			} else if !strings.Contains(err.Error(), "manifest says") {
				t.Fatalf("LoadShard error %q, want the edge-count-vs-manifest rejection", err)
			}
			// Truncation — the classic torn write — is rejected too.
			path := shardPath(dir, 3)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := s.LoadShard(3); err == nil {
				t.Fatal("LoadShard decoded a truncated shard file")
			}
		})
	}
}
