package main

import (
	"fmt"
	"runtime"
)

// The query classes the daemon serves; pagerank always runs prIters
// iterations, bfs starts from the seed-chosen source.
const (
	classPR  = "pagerank"
	classBFS = "bfs"
	classCC  = "cc"

	prIters = 5
)

// Update traffic. A batch is the same size everywhere. serve-mixed's
// client 0 sends one after every updateEvery-th cycle and compacts after
// every compactEvery-th batch; the read-only workloads send tailUpdates
// batches and one compaction after their timed phase, so update_p50_ms
// is a measured number on every workload.
const (
	batchInserts = 512
	batchDeletes = 64
	updateEvery  = 1
	compactEvery = 4
	tailUpdates  = 5
)

// setupReps is how many times a run sets the store and the daemon up;
// setup_s is the median.
const setupReps = 3

// probePasses is the repeat count of every isolated probe; the metric is
// the median.
const probePasses = 5

type graphSpec struct {
	kind  string // "rmat" (size = scale, edge factor 8) or "road" (size = grid side)
	size  int
	parts int // shard count
}

func (s graphSpec) String() string {
	if s.kind == "road" {
		return fmt.Sprintf("road%d/p%d", s.size, s.parts)
	}
	return fmt.Sprintf("rmat%d/p%d", s.size, s.parts)
}

// workload is one row of the workload table. The cache budget handed to
// the daemon is budgetNum/budgetDen of the store's decoded edge bytes
// (8 B per edge), so "streaming" and "resident" are properties of the
// input and not of a tuning flag.
type workload struct {
	name string
	why  string

	full, tiny graphSpec

	budgetNum, budgetDen int64

	// timed is the class whose latency is query_p50_ms; mix is what one
	// cycle of one client issues (clients start at staggered offsets).
	timed string
	mix   []string

	// multi marks serve-mixed: min(nproc, 4) closed-loop clients, with
	// client 0 writing beside the reads.
	multi bool
}

func (w *workload) spec(scale string) graphSpec {
	if scale == "tiny" {
		return w.tiny
	}
	return w.full
}

func (w *workload) clients() int {
	if !w.multi {
		return 1
	}
	return min(runtime.NumCPU(), 4)
}

// The full-scale graphs are one RMAT scale below the sizes the issue
// sketched (rmat19 for rmat20, rmat17 for rmat18): a run has to fit
// graph generation, three set-ups, the references and the measured
// seconds into the driver's per-run share of its time cap.
var workloads = []*workload{
	{
		name: "dense-stream",
		why:  "PageRank over a store 8x its cache budget: every dense sweep re-reads and re-decodes every shard, so read + decode + re-bucketing + cache admission do most of the work",
		full: graphSpec{"rmat", 19, 32}, tiny: graphSpec{"rmat", 12, 8},
		budgetNum: 1, budgetDen: 8,
		timed: classPR, mix: []string{classPR},
	},
	{
		name: "dense-resident",
		why:  "the same store with a budget 4x its size: zero loads after warm-up, so only re-bucketing and the apply kernel work; the bypass partner of dense-stream for decoder and I/O changes",
		full: graphSpec{"rmat", 19, 32}, tiny: graphSpec{"rmat", 12, 8},
		budgetNum: 4, budgetDen: 1,
		timed: classPR, mix: []string{classPR},
	},
	{
		name: "sparse-frontier",
		why:  "BFS across a resident road grid: about 1000 sparse sweeps per query that each touch a handful of edges, so per-EdgeMap fixed cost dominates and edge kernels are idle",
		full: graphSpec{"road", 512, 32}, tiny: graphSpec{"road", 32, 8},
		budgetNum: 4, budgetDen: 1,
		timed: classBFS, mix: []string{classBFS},
	},
	{
		name: "serve-mixed",
		why:  "concurrent pagerank/bfs/cc sessions over one shared cache at half budget with update batches and compactions beside the reads: sharing, ingest, merge-on-load and rehost",
		full: graphSpec{"rmat", 17, 24}, tiny: graphSpec{"rmat", 12, 8},
		budgetNum: 1, budgetDen: 2,
		timed: classPR, mix: []string{classPR, classBFS, classCC},
		multi: true,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// metricDef is one row of a metric table. bound is the share of the
// baseline median an end-to-end metric may worsen by (0 on layer
// metrics, which are reported and not gated). exact marks the layer
// counts that must repeat exactly on the single-client workloads.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
	exact  bool
}

// endToEnd is what a user of the daemon sees. failed operations are not
// a metric here: they are the result line's failed/attempted pair, and
// any failure makes the run incorrect.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "query_p50_ms", unit: "ms", better: "lower", bound: 0.20},
	{name: "medges_per_s", unit: "Medges/s", better: "higher", bound: 0.20},
	{name: "peak_rss_mb", unit: "MiB", better: "lower", bound: 0.25},
	{name: "update_p50_ms", unit: "ms", better: "lower", bound: 0.25},
}

var perLayer = []metricDef{
	// Traced in-process pass.
	{name: "shard.edgemap_share", unit: "ratio", better: "lower"},
	{name: "shard.vertexmap_share", unit: "ratio", better: "lower"},
	{name: "algorithms.self_share", unit: "ratio", better: "lower"},
	{name: "shard.edgemap_dense_ns_per_edge", unit: "ns/edge", better: "lower"},
	{name: "shard.edgemap_sparse_us_per_sweep", unit: "us", better: "lower"},
	{name: "shard.sweeps_dense_per_query", unit: "count", better: "lower", exact: true},
	{name: "shard.sweeps_sparse_per_query", unit: "count", better: "lower", exact: true},
	{name: "shard.loads_per_query", unit: "count", better: "lower", exact: true},
	{name: "shard.cache_hits_per_query", unit: "count", better: "higher", exact: true},
	{name: "shard.shards_skipped_per_query", unit: "count", better: "higher", exact: true},
	{name: "shard.bytes_read_per_query", unit: "B", better: "lower", exact: true},
	{name: "shard.cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "shard.dense_gb_per_s_computed", unit: "GB/s", better: "higher"},
	{name: "shard.dense_pct_of_mem_ceiling", unit: "%", better: "higher"},
	{name: "shard.shared_reads", unit: "count", better: "higher"},
	{name: "shard.coscheduled_sweeps", unit: "count", better: "higher"},
	{name: "shard.cache_evictions", unit: "count", better: "lower"},
	{name: "shard.cache_rejected", unit: "count", better: "lower"},
	{name: "shard.cache_peak_frac", unit: "ratio", better: "lower"},
	{name: "trace.overhead_frac", unit: "ratio", better: "lower"},
	{name: "trace.spans", unit: "count", better: "lower"},
	// Isolated probes.
	{name: "gen.build_s", unit: "s", better: "lower"},
	{name: "shard.create_s", unit: "s", better: "lower"},
	{name: "shard.create_medges_per_s", unit: "Medges/s", better: "higher"},
	{name: "shard.disk_bytes_per_edge", unit: "B/edge", better: "lower"},
	{name: "shard.open_ms", unit: "ms", better: "lower"},
	{name: "shard.load_ns_per_edge", unit: "ns/edge", better: "lower"},
	{name: "shard.decode_ns_per_edge", unit: "ns/edge", better: "lower"},
	{name: "shard.load_pct_of_read_ceiling", unit: "%", better: "higher"},
	{name: "shard.sweep_ns_per_edge", unit: "ns/edge", better: "lower"},
	{name: "shard.applybatch_ms", unit: "ms", better: "lower"},
	{name: "shard.compact_ms", unit: "ms", better: "lower"},
	{name: "shard.load_delta_ns_per_edge", unit: "ns/edge", better: "lower"},
	{name: "core.query_ms", unit: "ms", better: "lower"},
	{name: "shard.ooc_slowdown_x", unit: "x", better: "lower"},
	{name: "sched.forkjoin_us", unit: "us", better: "lower"},
	{name: "frontier.convert_ns_per_vertex", unit: "ns/vertex", better: "lower"},
	{name: "aio.roundtrip_us", unit: "us", better: "lower"},
	{name: "roofline.mem_gb_per_s", unit: "GB/s", better: "higher"},
	{name: "roofline.read_gb_per_s", unit: "GB/s", better: "higher"},
	// From the primary (untraced, daemon) run.
	{name: "serve.open_s", unit: "s", better: "lower"},
	{name: "serve.overhead_ms", unit: "ms", better: "lower"},
	{name: "serve.query_p90_ms", unit: "ms", better: "lower"},
	{name: "serve.qps", unit: "1/s", better: "higher"},
	{name: "serve.rehost_ms", unit: "ms", better: "lower"},
	{name: "serve.compact_p50_ms", unit: "ms", better: "lower"},
}
