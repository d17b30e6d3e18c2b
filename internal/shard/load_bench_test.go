package shard

import (
	"os"
	"runtime"
	"testing"

	"repro/internal/gen"
)

// BenchmarkLoadShard times the shard load — Store.LoadShard, which is
// the engine's: read + decode into the runs a resident keeps — over
// every shard of the serve-mixed
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

// TestLoadShardV3Allocations is the guard behind peak_rss_mb on
// Store.LoadShard, which is the engine's load returned as runs: loading
// a clean v3 shard allocates a small constant number of objects and, per
// edge, only the sources — the bound of TestResidentLoadAllocations, so
// a destination per edge would not fit under it.
func TestLoadShardV3Allocations(t *testing.T) {
	st, _, limit := loadAllocationFixture(t)
	checkLoadAllocations(t, "Store.LoadShard", limit, func() error {
		_, err := st.LoadShard(0)
		return err
	})
}

// TestResidentLoadAllocations is the guard behind peak_rss_mb on the
// engine's load, which the dense-stream workload runs for every shard of
// every sweep: reading a clean v3 shard into a resident allocates a
// small constant number of objects and, per edge, only the sources —
// 4·E bytes, plus 8 a run for the run table and the task offsets.
func TestResidentLoadAllocations(t *testing.T) {
	_, e, limit := loadAllocationFixture(t)
	checkLoadAllocations(t, "the engine's load into a resident", limit, func() error {
		_, _, _, err := e.readShard(0)
		return err
	})
}

// loadAllocationFixture builds the store and engine both load guards
// read shard 0 of, and the byte bound a load of it must stay under: the
// decoded sources, run table and task offsets, plus slack for the pooled
// slab and run-start bitmap, which the pools may drop at any garbage
// collection. The slack is held below 4·E, so a second per-edge array —
// a destination per edge — would not fit under the bound.
func loadAllocationFixture(t *testing.T) (*Store, *Engine, int64) {
	t.Helper()
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
	sh, _, _, err := e.readShard(0)
	if err != nil {
		t.Fatal(err)
	}
	return st, e, decodedBytes(edges, int64(len(sh.dst)), len(sh.off)-1) + slack
}

// checkLoadAllocations fails t if load, a load of a clean v3 shard,
// allocates more than a small constant number of objects or more than
// limit bytes a call.
func checkLoadAllocations(t *testing.T, name string, limit int64, load func() error) {
	t.Helper()
	run := func() {
		if err := load(); err != nil {
			t.Fatal(err)
		}
	}
	if objects := testing.AllocsPerRun(20, run); objects > 16 {
		t.Errorf("%s of a clean v3 shard allocates %.0f objects, want a small constant (<= 16)", name, objects)
	}
	const rounds = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	if perLoad := int64(after.TotalAlloc-before.TotalAlloc) / rounds; perLoad > limit {
		t.Errorf("%s of a clean v3 shard allocates %d bytes, want at most %d (4 B an edge, 8 a run, the task offsets, pooled scratch at worst)",
			name, perLoad, limit)
	}
}
