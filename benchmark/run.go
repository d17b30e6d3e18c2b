package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/shard"
)

// runConfig is one invocation's settings.
type runConfig struct {
	scale   string  // "full" drives the real gserve; "tiny" stays in this process
	seed    uint64  // feeds the generators, the BFS source and the update batches
	seconds float64 // measured time of a run
	trace   bool    // false: end-to-end metrics; true: per-layer metrics

	buildDir string // scratch root inside the checkout; run directories and the gserve binary live here
	outDir   string // where trace files land
	children *childSet
}

// result is one run of one workload. metrics holds every end-to-end
// metric (trace off) or every per-layer metric (trace on); samples says
// how many observations stand behind the timings.
type result struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Samples   map[string]int     `json:"samples"`
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
}

// setUp creates the store and opens the system under test on it,
// setupReps times over. It returns every store directory, the target
// opened on the last one, and the per-repetition create and open times.
func setUp(cfg *runConfig, in *inputs, root, gserve string) (dirs []string, t target, createS, openS []float64, err error) {
	for i := 0; i < setupReps; i++ {
		if t != nil {
			t.close()
		}
		dir := filepath.Join(root, fmt.Sprintf("store-%d", i))
		t0 := time.Now()
		if _, err = shard.Create(dir, in.g, shard.WriteOptions{Partitions: in.spec.parts}); err != nil {
			return nil, nil, nil, nil, fmt.Errorf("shard.Create: %w", err)
		}
		t1 := time.Now()
		if cfg.scale == "tiny" {
			t, err = openInproc(dir, in.budget, nil)
		} else {
			t, err = startGserve(cfg.children, gserve, dir, in.budget, in.w.clients())
		}
		if err != nil {
			return nil, nil, nil, nil, fmt.Errorf("opening the store: %w", err)
		}
		dirs = append(dirs, dir)
		createS = append(createS, t1.Sub(t0).Seconds())
		openS = append(openS, time.Since(t1).Seconds())
	}
	return dirs, t, createS, openS, nil
}

// references computes the digest every query of each class must return
// on the generated graph, on a private server with everything resident,
// and checks the values behind each digest against the in-memory engine.
func references(in *inputs, dir string) error {
	ref, err := openInproc(dir, in.edges*8*4, nil)
	if err != nil {
		return err
	}
	defer ref.close()
	in.refs = map[string]string{}
	for _, class := range in.w.mix {
		sess, err := ref.srv.Session(storeName)
		if err != nil {
			return err
		}
		values, digest := runClass(sess, class, in.src)
		if err := checkAgainstCore(in.g, class, in.src, values); err != nil {
			return fmt.Errorf("reference check: %w", err)
		}
		in.refs[class] = digest
	}
	return nil
}

// runOne runs one workload once: inputs from the seed, setupReps
// set-ups, the references, the primary pass against the daemon, and —
// with tracing — the isolated probes and the two in-process replays.
func runOne(cfg *runConfig, w *workload) (*result, error) {
	if err := os.MkdirAll(cfg.buildDir, 0o755); err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(cfg.buildDir, "run-")
	if err != nil {
		return nil, err
	}
	cfg.children.setRoot(root)
	defer cfg.children.cleanRoot()

	gserve := filepath.Join(cfg.buildDir, "gserve")
	if cfg.scale != "tiny" {
		if err := buildGserve(gserve); err != nil {
			return nil, err
		}
	}

	in := buildInputs(w, cfg.scale, cfg.seed)
	logf("%s seed %d: %s, %d vertices, %d edges, budget %d B, %d client(s), bfs source %d (generated in %.2f s)",
		w.name, cfg.seed, in.spec, in.g.NumVertices(), in.edges, in.budget, w.clients(), in.src, in.genS)

	dirs, t, createS, openS, err := setUp(cfg, in, root, gserve)
	if err != nil {
		return nil, err
	}
	if err := references(in, dirs[0]); err != nil {
		t.close()
		return nil, err
	}
	// The generator's garbage should not be collected while the daemon
	// is being timed.
	debug.FreeOSMemory()

	res := &result{Workload: w.name, Seed: cfg.seed, Metrics: map[string]float64{}, Samples: map[string]int{}}
	m := res.Metrics
	count := func(p *phase) {
		res.Attempted += p.attempted
		res.Failed += p.failed
	}

	seconds := cfg.seconds
	if cfg.trace {
		seconds /= 3 // the primary pass and the two replays share the run
	}
	prim := drive(in, t, seconds, true, root)
	count(prim)
	t.close()

	if !cfg.trace {
		setup := make([]float64, setupReps)
		for i := range setup {
			setup[i] = createS[i] + openS[i]
		}
		m["setup_s"] = median(setup)
		m["query_p50_ms"] = median(prim.lat[w.timed])
		m["medges_per_s"] = float64(prim.completed) * float64(in.edges) / prim.wallS / 1e6
		m["peak_rss_mb"] = prim.peakRSSMiB
		m["update_p50_ms"] = median(prim.updates)
		res.Samples["setup_s"] = setupReps
		res.Samples["query_p50_ms"] = len(prim.lat[w.timed])
		res.Samples["medges_per_s"] = prim.completed
		res.Samples["update_p50_ms"] = len(prim.updates)
		res.Correct = res.Failed == 0
		return res, nil
	}

	// Probes first: they need a store no pass has written to.
	m["gen.build_s"] = in.genS
	m["shard.create_s"] = median(createS)
	m["shard.create_medges_per_s"] = float64(in.edges) / median(createS) / 1e6
	if err := probeStore(dirs[0], in.edges, m); err != nil {
		return nil, fmt.Errorf("store probes: %w", err)
	}
	if err := probeDeltas(in, dirs[0], filepath.Join(root, "scratch"), m); err != nil {
		return nil, fmt.Errorf("delta probes: %w", err)
	}
	probeCore(in, m)
	if err := probeMachinery(in.g.NumVertices(), m); err != nil {
		return nil, fmt.Errorf("machinery probes: %w", err)
	}
	arrayBytes := 256 << 20
	if cfg.scale == "tiny" {
		arrayBytes = 4 << 20
	}
	probeMemory(arrayBytes, m)
	debug.FreeOSMemory()
	logf("roofline: triad %.2f GB/s over 3 x %d MiB on %d threads; file reads %.2f GB/s from the page cache, not a device; caches: %s",
		m["roofline.mem_gb_per_s"], arrayBytes>>20, runtime.GOMAXPROCS(0), m["roofline.read_gb_per_s"], cacheSizes())

	// The replays: the same workload in this process, untraced and then
	// traced, each on its own untouched store.
	replay := func(dir string, tr *tracer) (*phase, error) {
		rt, err := openInproc(dir, in.budget, tr)
		if err != nil {
			return nil, err
		}
		defer rt.close()
		p := drive(in, rt, seconds, false, root)
		count(p)
		return p, nil
	}
	plain, err := replay(dirs[0], nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	traced, err := replay(dirs[1], tr)
	if err != nil {
		return nil, err
	}
	tracePath := filepath.Join(cfg.outDir, "trace-"+w.name+".json")
	if err := tr.write(tracePath, w.name, cfg.seed); err != nil {
		return nil, fmt.Errorf("writing the trace: %w", err)
	}
	logf("%s: %d spans in %s", w.name, len(tr.spans), tracePath)

	m["serve.open_s"] = median(openS)
	// The sample count behind every timing (counts and ratios of counts
	// have none).
	n := res.Samples
	for _, name := range []string{"shard.open_ms", "roofline.read_gb_per_s", "shard.load_ns_per_edge",
		"shard.decode_ns_per_edge", "shard.load_pct_of_read_ceiling", "shard.sweep_ns_per_edge",
		"core.query_ms", "sched.forkjoin_us", "frontier.convert_ns_per_vertex", "aio.roundtrip_us",
		"roofline.mem_gb_per_s"} {
		n[name] = probePasses
	}
	n["gen.build_s"] = 1
	n["shard.create_s"], n["shard.create_medges_per_s"], n["serve.open_s"] = setupReps, setupReps, setupReps
	n["shard.applybatch_ms"], n["shard.load_delta_ns_per_edge"], n["shard.compact_ms"] = deltaRounds, deltaRounds, deltaRounds
	n["serve.query_p90_ms"], n["serve.overhead_ms"], n["serve.qps"] = len(prim.lat[w.timed]), len(prim.overhead), prim.completed
	n["serve.rehost_ms"], n["serve.compact_p50_ms"] = len(prim.updates), len(prim.compacts)
	n["trace.overhead_frac"] = min(len(plain.lat[w.timed]), len(traced.lat[w.timed]))
	n["shard.ooc_slowdown_x"] = len(traced.lat[w.timed])
	n["shard.edgemap_share"], n["shard.vertexmap_share"], n["algorithms.self_share"] = traced.completed, traced.completed, traced.completed
	sum := tr.summarize()
	layerMetrics(in, prim, plain, traced, sum, m)
	n["shard.edgemap_dense_ns_per_edge"], n["shard.dense_gb_per_s_computed"] = int(sum.denseSweeps), int(sum.denseSweeps)
	n["shard.edgemap_sparse_us_per_sweep"] = int(sum.sparseSweeps)
	res.Correct = res.Failed == 0
	return res, nil
}

// layerMetrics fills the per-layer metrics that come from the passes:
// prim is the primary (daemon) pass, plain and traced the replays.
func layerMetrics(in *inputs, prim, plain, traced *phase, ts traceSummary, m map[string]float64) {
	w := in.w
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	q := float64(ts.queryNS)
	m["shard.edgemap_share"] = ratio(float64(ts.edgeMapNS), q)
	m["shard.vertexmap_share"] = ratio(float64(ts.vertexNS), q)
	m["algorithms.self_share"] = ratio(q-float64(ts.edgeMapNS)-float64(ts.vertexNS), q)
	denseEdges := float64(ts.denseSweeps) * float64(in.edges)
	m["shard.edgemap_dense_ns_per_edge"] = ratio(float64(ts.denseNS), denseEdges)
	m["shard.edgemap_sparse_us_per_sweep"] = ratio(float64(ts.sparseNS)/1e3, float64(ts.sparseSweeps))
	// Computed, not measured, bytes: 8 B of decoded edge plus one 8 B
	// source read and one 8 B destination write per edge.
	m["shard.dense_gb_per_s_computed"] = ratio(24*denseEdges, float64(ts.denseNS))
	m["shard.dense_pct_of_mem_ceiling"] = 100 * ratio(m["shard.dense_gb_per_s_computed"], m["roofline.mem_gb_per_s"])

	// Per-query counts: the median over the timed class's queries, which
	// on a single-client workload is every query's exact count.
	perQuery := func(f func(*shard.Stats) int64) float64 {
		xs := make([]float64, len(traced.perQuery))
		for i := range traced.perQuery {
			xs[i] = float64(f(&traced.perQuery[i]))
		}
		sort.Float64s(xs)
		if len(xs) == 0 {
			return 0
		}
		return xs[len(xs)/2]
	}
	m["shard.sweeps_dense_per_query"] = perQuery(func(s *shard.Stats) int64 { return s.DenseSweeps })
	m["shard.sweeps_sparse_per_query"] = perQuery(func(s *shard.Stats) int64 { return s.SparseSweeps })
	m["shard.loads_per_query"] = perQuery(func(s *shard.Stats) int64 { return s.ShardLoads })
	m["shard.cache_hits_per_query"] = perQuery(func(s *shard.Stats) int64 { return s.CacheHits })
	m["shard.shards_skipped_per_query"] = perQuery(func(s *shard.Stats) int64 { return s.ShardsSkipped })
	m["shard.bytes_read_per_query"] = perQuery(func(s *shard.Stats) int64 { return s.BytesRead })
	tot := traced.total
	m["shard.cache_hit_ratio"] = ratio(float64(tot.CacheHits), float64(tot.CacheHits+tot.ShardLoads))
	m["shard.shared_reads"] = float64(tot.SharedReads)
	m["shard.coscheduled_sweeps"] = float64(tot.CoScheduledSweeps)

	m["shard.cache_evictions"] = float64(prim.cacheAtEnd.Evictions)
	m["shard.cache_rejected"] = float64(prim.cacheAtEnd.Rejected)
	m["shard.cache_peak_frac"] = ratio(float64(prim.cacheAtEnd.PeakBytes), float64(prim.cacheAtEnd.Budget))

	tracedP50 := median(traced.lat[w.timed])
	m["trace.overhead_frac"] = ratio(tracedP50, median(plain.lat[w.timed])) - 1
	m["trace.spans"] = float64(ts.spans)
	m["shard.ooc_slowdown_x"] = ratio(tracedP50, m["core.query_ms"])

	m["serve.overhead_ms"] = median(prim.overhead)
	m["serve.query_p90_ms"] = p90(prim.lat[w.timed])
	m["serve.qps"] = ratio(float64(prim.completed), prim.wallS)
	m["serve.rehost_ms"] = median(prim.updates) - m["shard.applybatch_ms"]
	m["serve.compact_p50_ms"] = median(prim.compacts)
}
