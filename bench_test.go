package repro

// Benchmark harness: one benchmark family per table/figure of the
// paper's evaluation (§IV). These are the quick, go-test-native versions
// of the experiments; cmd/experiments runs the full-size sweeps and
// prints the paper-style rows. Benchmarks share lazily-built graphs so
// `go test -bench=.` stays tractable.

import (
	"sync"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/gas"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/hilbert"
	"repro/internal/locality"
	"repro/internal/partition"
	"repro/internal/shard"
)

var (
	benchGraphOnce sync.Once
	benchG         *graph.Graph // social-network shaped, ~1M edges
	benchRoad      *graph.Graph
)

func benchGraphs() (*graph.Graph, *graph.Graph) {
	benchGraphOnce.Do(func() {
		benchG = gen.RMAT(16, 16, 0.57, 0.19, 0.19, 42)
		benchRoad = gen.RoadGrid(256, 256, 47)
	})
	return benchG, benchRoad
}

// BenchmarkTable1_BuildGraphs times dataset construction (generator +
// CSR/CSC build), the substrate cost behind Table I.
func BenchmarkTable1_BuildGraphs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := gen.RMAT(12, 16, 0.57, 0.19, 0.19, uint64(i+1))
		if g.NumEdges() == 0 {
			b.Fatal("empty graph")
		}
	}
}

// BenchmarkFig2_ReuseDistance times the reuse-distance analysis of
// next-frontier updates at a high partition count.
func BenchmarkFig2_ReuseDistance(b *testing.B) {
	g, _ := benchGraphs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ra := locality.NewReuseAnalyzer(int(g.NumEdges()))
		locality.ReplayNextFrontierCOO(g, 192, locality.ConsumerFunc(func(a uint64) { ra.Access(a) }))
	}
}

// BenchmarkFig3_ReplicationFactor times the replication-factor analysis
// across the sweep.
func BenchmarkFig3_ReplicationFactor(b *testing.B) {
	g, _ := benchGraphs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range []int{4, 48, 384} {
			pt := partition.ByDestination(g, p, partition.BalanceEdges)
			partition.ReplicationFactor(g, pt)
		}
	}
}

// BenchmarkFig4_StorageModel times the storage model evaluation.
func BenchmarkFig4_StorageModel(b *testing.B) {
	g, _ := benchGraphs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		partition.Curve(g, []int{4, 48, 384})
	}
}

// BenchmarkFig5 runs every algorithm × layout configuration at the
// paper's productive partition count (Figures 5 and 6).
func BenchmarkFig5(b *testing.B) {
	g, _ := benchGraphs()
	rg := g.Reverse()
	src := algorithms.SourceVertex(g)
	for _, lc := range bench.LayoutConfigs() {
		opts := lc.Opts
		opts.Partitions = 192
		sys := core.NewEngine(g, opts)
		rsys := core.NewEngine(rg, opts)
		for _, spec := range algorithms.AllSpecs() {
			spec := spec
			b.Run(spec.Code+"/"+lc.Name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					spec.Run(sys, rsys, src)
				}
				b.SetBytes(g.NumEdges() * 8)
			})
		}
	}
}

// BenchmarkFig6_PartitionSweep sweeps the partition count for BFS on the
// road graph (the small-graph regime of Figure 6).
func BenchmarkFig6_PartitionSweep(b *testing.B) {
	_, road := benchGraphs()
	src := algorithms.SourceVertex(road)
	for _, p := range []int{4, 48, 192, 384} {
		sys := core.NewEngine(road, core.Options{Partitions: p})
		b.Run(bname("P", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				algorithms.BFS(sys, src)
			}
		})
	}
}

// BenchmarkFig7_EdgeOrder compares the three COO edge sort orders for a
// PR iteration (Figure 7).
func BenchmarkFig7_EdgeOrder(b *testing.B) {
	g, _ := benchGraphs()
	for _, ord := range []hilbert.EdgeOrder{hilbert.BySource, hilbert.ByHilbert, hilbert.ByDestination} {
		sys := core.NewEngine(g, core.Options{Layout: core.LayoutCOO, Partitions: 192, EdgeOrder: ord})
		b.Run(ord.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				algorithms.PR(sys, 3)
			}
		})
	}
}

// BenchmarkFig8_MPKISimulation times the cache simulation behind the
// MPKI curves.
func BenchmarkFig8_MPKISimulation(b *testing.B) {
	g, _ := benchGraphs()
	cfg := locality.AdaptiveLLC(g.NumVertices())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		locality.MeasureMPKI(g, locality.KindCOOForward, 1, []int{48}, cfg)
	}
}

// BenchmarkFig9_Systems compares the four systems on PRDelta, the
// paper's headline speedup (Figure 9).
func BenchmarkFig9_Systems(b *testing.B) {
	g, _ := benchGraphs()
	for _, name := range bench.SystemNames() {
		sys := bench.BuildSystem(name, g, 192, 0)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				algorithms.PRDelta(sys, 60)
			}
			b.SetBytes(g.NumEdges() * 8)
		})
	}
}

// BenchmarkFig10_Scalability runs PRDelta on GG-v2 across thread counts
// (Figure 10).
func BenchmarkFig10_Scalability(b *testing.B) {
	g, _ := benchGraphs()
	for _, th := range []int{1, 2, 4, 8} {
		sys := core.NewEngine(g, core.Options{Partitions: 192, Threads: th})
		b.Run(bname("T", th), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				algorithms.PRDelta(sys, 60)
			}
		})
	}
}

// BenchmarkAtomicsAblation isolates the cost of hardware atomics in the
// dense COO path (§III.C: the paper reports 6.1%–23.7%).
func BenchmarkAtomicsAblation(b *testing.B) {
	g, _ := benchGraphs()
	for _, cfg := range []struct {
		name  string
		force bool
	}{{"COO_na", false}, {"COO_a", true}} {
		sys := core.NewEngine(g, core.Options{Layout: core.LayoutCOO, Partitions: 192, ForceAtomics: cfg.force})
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				algorithms.PR(sys, 3)
			}
			b.SetBytes(3 * g.NumEdges() * 8)
		})
	}
}

// BenchmarkAblationReorder times the reorder-vs-partitioning ablation.
func BenchmarkAblationReorder(b *testing.B) {
	g, _ := benchGraphs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bench.ReorderAblation("bench", g, []int{48})
	}
}

// BenchmarkAblationBySource times the by-source locality contrast.
func BenchmarkAblationBySource(b *testing.B) {
	g, _ := benchGraphs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bench.BySourceAblation("bench", g, []int{48})
	}
}

// BenchmarkEngineConstruction times layout building (3 copies).
func BenchmarkEngineConstruction(b *testing.B) {
	g, _ := benchGraphs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.NewEngine(g, core.Options{Partitions: 192})
	}
}

func bname(prefix string, v int) string {
	const digits = "0123456789"
	if v == 0 {
		return prefix + "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = digits[v%10]
		v /= 10
	}
	return prefix + string(buf[i:])
}

// BenchmarkExtendedAlgorithms covers the beyond-Table-II applications on
// a symmetric graph.
func BenchmarkExtendedAlgorithms(b *testing.B) {
	g := gen.Symmetrise(gen.PowerLaw(1<<13, 1<<17, 2.3, 11))
	sys := core.NewEngine(g, core.Options{})
	b.Run("KCore", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			algorithms.KCore(sys)
		}
	})
	b.Run("MIS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			algorithms.MIS(sys)
		}
	})
	b.Run("Radii", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			algorithms.Radii(sys)
		}
	})
	b.Run("Coloring", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			algorithms.Coloring(sys)
		}
	})
}

// BenchmarkShardSweep times the out-of-core substrate's disk sweep
// over the v3 store Create writes. Throughput is priced at the store's
// actual shard-file bytes, so the MB/s column is the read-and-decode
// disk bandwidth; per-format load costs are internal/shard's
// BenchmarkLoadShard.
func BenchmarkShardSweep(b *testing.B) {
	g, _ := benchGraphs()
	st, err := shard.Create(b.TempDir(), g, shard.WriteOptions{Partitions: 24})
	if err != nil {
		b.Fatal(err)
	}
	disk, err := st.DiskBytes()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var edges int64
		if err := st.Sweep(func(u, v graph.VID) { edges++ }); err != nil {
			b.Fatal(err)
		}
		if edges != g.NumEdges() {
			b.Fatal("edge count mismatch")
		}
	}
	b.SetBytes(disk)
}

// BenchmarkGASPageRank times the gather-apply-scatter adapter.
func BenchmarkGASPageRank(b *testing.B) {
	g, _ := benchGraphs()
	sys := core.NewEngine(g, core.Options{})
	prog := gas.PageRankProgram(g, 1e-6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gas.Run(sys, prog)
	}
}
