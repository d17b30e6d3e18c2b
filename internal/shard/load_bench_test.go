package shard

import (
	"os"
	"runtime"
	"testing"

	"repro/internal/gen"
)

// BenchmarkLoadShard times Store.LoadShard — read + decode into the
// arrays a resident keeps — over every shard of the serve-mixed
// workload's graph, per format, and reports the two numbers a format
// exists for: ns/edge to load and B/edge on disk.
func BenchmarkLoadShard(b *testing.B) {
	g := gen.RMAT(17, 8, 0.57, 0.19, 0.19, 1)
	for _, format := range []Format{FormatV1, FormatV2, FormatV3} {
		b.Run(format.String(), func(b *testing.B) {
			st, err := Create(b.TempDir(), g, WriteOptions{Partitions: 24, Format: format})
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
					if _, err := st.LoadShard(si); err != nil {
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
// clean v3 shard allocates a small constant number of objects, and no
// edge-proportional bytes beyond the two arrays the caller keeps — the
// read buffer is a pooled, file-sized slab, and nothing regroups or
// copies the decoded edges. (The v2 path allocates the same two arrays
// plus a bufio buffer; the path this replaced allocated four arrays.)
// The byte bound leaves room for one slab, which the pool may drop at
// any garbage collection; a third array would not fit under it.
func TestLoadShardV3Allocations(t *testing.T) {
	g := gen.RMAT(14, 8, 0.57, 0.19, 0.19, 3)
	st, err := Create(t.TempDir(), g, WriteOptions{Partitions: 2, Format: FormatV3})
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
