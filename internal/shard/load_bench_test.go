package shard

import (
	"os"
	"runtime"
	"testing"

	"repro/internal/gen"
)

// BenchmarkLoadShard times the engine's shard load — read + decode into
// the runs a resident keeps — over every shard of the serve-mixed
// workload's graph, per format, and reports the two numbers a format
// exists for: ns/edge to load and B/edge on disk.
func BenchmarkLoadShard(b *testing.B) {
	g := gen.RMAT(17, 8, 0.57, 0.19, 0.19, 1)
	for _, format := range []Format{FormatV1, FormatV2, FormatV3} {
		b.Run(format.String(), func(b *testing.B) {
			st, err := createFormat(b.TempDir(), g, 24, format)
			if err != nil {
				b.Fatal(err)
			}
			disk, err := st.DiskBytes()
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for si := 0; si < st.NumShards(); si++ {
					if _, _, err := st.loadRuns(si); err != nil {
						b.Fatal(err)
					}
				}
			}
			edges := float64(g.NumEdges())
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*edges), "ns/edge")
			b.ReportMetric(float64(disk)/edges, "B/edge")
		})
	}
}

// TestLoadShardV3Allocations is the guard behind peak_rss_mb: loading a
// clean v3 shard through the public COO API allocates a small constant
// number of objects, and no edge-proportional bytes beyond the two
// arrays the caller keeps — the read buffer is a pooled, file-sized
// slab, the run table the destinations are expanded from costs 8 bytes
// a run, and nothing regroups or copies the decoded edges. (The v2 path
// allocates the same two arrays plus a bufio buffer; the path this
// replaced allocated four arrays.) The byte bound leaves room for one
// slab, which the pool may drop at any garbage collection; a third
// array would not fit under it.
func TestLoadShardV3Allocations(t *testing.T) {
	g := gen.RMAT(14, 8, 0.57, 0.19, 0.19, 3)
	st, err := Create(t.TempDir(), g, WriteOptions{Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	edges := st.m.EdgeCounts[0]
	fi, err := os.Stat(st.basePath(0))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() >= 4*edges {
		t.Fatalf("shard 0 is %d bytes for %d edges: too sparse for the byte bound below to exclude a third array", fi.Size(), edges)
	}
	load := func() {
		if _, err := st.LoadShard(0); err != nil {
			t.Fatal(err)
		}
	}
	if objects := testing.AllocsPerRun(20, load); objects > 16 {
		t.Errorf("loading a clean v3 shard allocates %.0f objects, want a small constant (<= 16)", objects)
	}
	const rounds = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		load()
	}
	runtime.ReadMemStats(&after)
	perLoad := int64(after.TotalAlloc-before.TotalAlloc) / rounds
	if limit := 8*edges + fi.Size() + 4096; perLoad > limit {
		t.Errorf("loading a clean v3 shard of %d edges allocates %d bytes, want at most %d (two 4-byte arrays, a slab at worst, small change)",
			edges, perLoad, limit)
	}
}

// TestResidentLoadAllocations is the same guard on the engine's load,
// which the dense-stream workload runs for every shard of every sweep:
// reading a clean v3 shard into a resident allocates a small constant
// number of objects and, per edge, only the sources — 4·E bytes, plus
// 8 a run for the run table and the task offsets. The slack leaves room
// for the pooled slab and run-start bitmap, which the pools may drop at
// any garbage collection, and is held below 4·E, so a second per-edge
// array — a destination per edge — would not fit under the bound.
func TestResidentLoadAllocations(t *testing.T) {
	g := gen.RMAT(14, 8, 0.57, 0.19, 0.19, 3)
	st, err := Create(t.TempDir(), g, WriteOptions{Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(st, g, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	edges := st.m.EdgeCounts[0]
	fi, err := os.Stat(st.basePath(0))
	if err != nil {
		t.Fatal(err)
	}
	slack := fi.Size() + (edges+7)/8 + 4096
	if slack >= 4*edges {
		t.Fatalf("shard 0 is %d bytes for %d edges: too sparse for the byte bound below to exclude a per-edge array", fi.Size(), edges)
	}
	var runs, tasks int
	load := func() {
		sh, _, _, err := e.readShard(0)
		if err != nil {
			t.Fatal(err)
		}
		runs, tasks = len(sh.dst), len(sh.off)-1
	}
	if objects := testing.AllocsPerRun(20, load); objects > 16 {
		t.Errorf("loading a clean v3 shard into a resident allocates %.0f objects, want a small constant (<= 16)", objects)
	}
	const rounds = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		load()
	}
	runtime.ReadMemStats(&after)
	perLoad := int64(after.TotalAlloc-before.TotalAlloc) / rounds
	if limit := decodedBytes(edges, int64(runs), tasks) + slack; perLoad > limit {
		t.Errorf("loading a clean v3 shard of %d edges in %d runs into a resident allocates %d bytes, want at most %d (4 B an edge, 8 a run, the task offsets, pooled scratch at worst)",
			edges, runs, perLoad, limit)
	}
}
