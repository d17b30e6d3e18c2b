package shard

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/api"
	"repro/internal/frontier"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/sched"
)

// Options configures the out-of-core engine. The memory budget is not
// here: it is the byte budget of the SharedCache the engine fetches
// through (NewHost's cache argument; NewEngine uses a cache of its own
// at DefaultCacheBytes).
type Options struct {
	// Threads is the worker parallelism for intra-shard application and
	// vertex operators; 0 selects GOMAXPROCS.
	Threads int
	// SparseDiv is the density threshold divisor: a frontier with
	// |F| + Σ out-deg ≤ |E|/SparseDiv takes the sparse path (load only
	// shards with active sources); denser frontiers stream the full
	// shard sequence. 0 selects the paper's 20.
	SparseDiv int64
	// Topology is the modelled NUMA topology shards are placed on;
	// the zero value selects sched.DefaultTopology (4 domains, the
	// paper's machine). Shard i's destination range lives on domain
	// i mod Domains and is applied by that domain's workers — which
	// confines each shard's apply to Threads/Domains workers, the
	// price of the ownership discipline (a real NUMA machine pays it
	// back in local bandwidth; the model only keeps the books).
	// Domains: 1 restores full-pool applies. The domain count is also
	// the staging window's depth cap (see window.go).
	Topology sched.Topology
}

// OptionsError is the typed rejection normalize returns for a
// nonsensical Options value. Zero values still select defaults (the
// long-standing construction idiom); negative knobs are errors, never
// silent rewrites that run something other than what was asked for.
type OptionsError struct {
	Field  string // the offending Options field
	Value  int64  // the rejected value
	Reason string
}

func (e *OptionsError) Error() string {
	return fmt.Sprintf("shard: invalid Options.%s = %d: %s", e.Field, e.Value, e.Reason)
}

// normalize resolves zero values to defaults and validates the result.
func (o Options) normalize() (Options, error) {
	if o.Threads < 0 {
		return o, &OptionsError{"Threads", int64(o.Threads), "must be >= 0 (0 selects GOMAXPROCS)"}
	}
	if o.SparseDiv < 0 {
		return o, &OptionsError{"SparseDiv", o.SparseDiv, "must be >= 0 (0 selects the paper's 20)"}
	}
	if o.Topology.Domains < 0 {
		return o, &OptionsError{"Topology.Domains", int64(o.Topology.Domains), "must be >= 0 (0 selects the default topology)"}
	}
	if o.SparseDiv == 0 {
		o.SparseDiv = 20
	}
	if o.Topology.Domains == 0 {
		o.Topology = sched.DefaultTopology()
	}
	return o, nil
}

// Validate reports whether o would be accepted by engine construction,
// without building anything — the flag-parse-time check the CLIs use to
// reject a nonsensical value with a usage error (exit 2) instead of a
// construction failure later. The returned error is the same typed
// *OptionsError NewEngine/NewHost would produce.
func (o Options) Validate() error {
	_, err := o.normalize()
	return err
}

// Stats counts the engine's sweep, pipeline and I/O activity.
type Stats struct {
	DenseSweeps   int64 // EdgeMaps that streamed the full shard sequence
	SparseSweeps  int64 // EdgeMaps that loaded only shards with active sources
	ShardLoads    int64 // shard files decoded from disk (by either path)
	CacheHits     int64 // shard applications served from the cache
	ShardsSkipped int64 // shard visits avoided by frontier-awareness

	// I/O volume. BytesRead is the on-disk size of every shard file
	// decoded; BytesLogical prices the same loads at the raw v1
	// encoding (8-byte header + 8 bytes/edge), so BytesLogical /
	// BytesRead is the live compression ratio of the store being swept
	// (1.0 on v1 stores). Like the occupancy counters, both are atomic
	// and safe to sample mid-sweep.
	BytesRead    int64
	BytesLogical int64

	// Multi-tenant counters (zero on a lone session; see host.go).
	// SharedReads counts uncached reads this session resolved without
	// touching disk because another session's load for the same shard
	// was already in flight — or had just landed — in the shared cache
	// (single-flight). CoScheduledSweeps counts dense sweeps that joined
	// another query's disk pass as a follower instead of walking the
	// store themselves; CoSharedShards counts the plan entries such
	// sweeps applied straight from the leader's publications, shards
	// that cost this query neither a load nor a cache fetch.
	SharedReads       int64
	CoScheduledSweeps int64
	CoSharedShards    int64

	// OverlappedLoads counts disk loads that overlapped an in-progress
	// apply — the pipeline doing its job.
	OverlappedLoads int64

	// Concurrent-apply occupancy. ApplyLevels[l] counts shard applies
	// that began with l+1 shards mid-apply engine-wide (ApplyLevels[0]
	// is a lone apply, ApplyLevels[Domains-1] full occupancy);
	// ConcurrentApplyPeak is the maximum simultaneous applies observed.
	ApplyLevels         []int64
	ConcurrentApplyPeak int64

	// WindowDepths[d] counts staging hand-offs that completed with d
	// shards staged in the window (fetched, not yet begun applying);
	// index 0 is unused. The depth never exceeds
	// max(1, min(Domains, slots − in-flight applies)).
	WindowDepths []int64

	// Modelled NUMA placement: per-domain shard applications and edges
	// applied, indexed by domain. Placement is round-robin by shard
	// index (Topology.DomainOf), so a balanced sweep shows near-equal
	// domain loads.
	DomainShards []int64
	DomainEdges  []int64
}

// Engine runs the engine-neutral algorithm API out of core: it
// implements api.System on top of a Store, so every algorithm in
// internal/algorithms executes unmodified while edge data streams from
// disk. Dense and medium sweeps touch only per-vertex state (frontier
// bitmaps, the CSR degree index for frontier statistics, the
// source-range summaries) plus the resident shards; sparse sweeps
// additionally walk the in-memory out-neighbour lists of just the
// active vertices — O(frontier work) — to plan the exact shard set to
// load. The Graph handle is therefore load-bearing: the api.System
// contract exposes it for algorithm-side metadata, and the sparse
// planner reads its adjacency. A deployment that drops the in-memory
// adjacency would substitute summary-based planning (over-approximate
// but sound) in planSparse; the edge *application* never reads it.
//
// Writes are partition-exclusive end to end: a shard holds all in-edges
// of its 64-aligned destination range, and each resident shard is
// applied in parallel over 64-aligned destination sub-ranges, so the
// non-atomic EdgeOp.Update path is always used — the out-of-core
// counterpart of the paper's "COO + na" configuration.
//
// Sweeps are pipelined (plan → stage → apply → publish): a staging
// goroutine walks the ascending shard plan, keeping up to one shard per
// modelled NUMA domain staged ahead — promoted from the cache, or read
// synchronously, in plan order — and up to min(Domains, Threads)
// staged shards are applied simultaneously, one per domain, each by the
// workers of the domain that owns its destination range (round-robin by
// shard index, the placement Polymer uses for in-memory partitions,
// here also run with Polymer's all-sockets-at-once concurrency).
// Results are bit-identical at any window depth: shards own disjoint
// destination ranges and operators write destination state only, so
// each destination's updates happen in shard-file order regardless of
// cross-domain timing.
//
// Every Engine is one session of a Host (see host.go): it owns its
// stats and per-sweep accumulators, and shares the immutable hostCore,
// the byte-budgeted SharedCache, the host's disk-read lock and the
// co-scheduling board with any other session of the same host.
// NewEngine builds a host with exactly one session.
//
// EdgeMap cannot return an error through the api.System interface, so a
// shard that fails to load mid-sweep panics with the underlying error.
// Engines over corrupt directories fail fast in NewEngine instead when
// the manifest is unreadable.
type Engine struct {
	*hostCore

	cache *SharedCache
	board *passBoard
	// readMu is the host's disk-read lock: held around every uncached
	// read, so at most one shard read is in flight per store across all
	// of the host's sessions.
	readMu *sync.Mutex
	// slots is how many of the store's largest decoded shard the cache
	// budget holds (at least one): the unit the staging window's
	// budget bound counts in.
	slots int

	// applying counts shards currently mid-apply (up to one per domain);
	// the read path samples it to count loads that overlapped an apply,
	// and applyShard derives the occupancy stats from it.
	applying int32

	stats Stats

	// Test hooks (nil outside tests): onLoadBegin fires before a shard
	// file is read (on the staging goroutine, under the host's read
	// lock), onLoadEnd after it is decoded;
	// onApplyBegin/onApplyEnd bracket one shard's parallel application
	// (on its domain's apply goroutine); onStage fires when a staged
	// shard enters the window, carrying the observed window depth and
	// in-flight apply count.
	onLoadBegin, onLoadEnd   func(shard int)
	onApplyBegin, onApplyEnd func(shard int)
	onStage                  func(shard, depth, applying int)
	// onCoLead fires when a dense sweep opens a co-scheduled pass (its
	// publications become joinable); onCoFollow when a sweep joins one.
	onCoLead, onCoFollow func()
}

var _ api.System = (*Engine)(nil)

// hostCore is the store-derived immutable substrate one construction
// pays for and every session of a Host shares: the resolved options,
// the worker pool and its per-domain views, the vertex→shard map, the
// source summaries and the largest shard's decoded size.
type hostCore struct {
	st   *Store
	g    *graph.Graph
	opts Options
	pool *sched.Pool
	// gen is the store generation the core was built over. The graph
	// metadata and feeds describe that generation; after an ApplyBatch
	// or Compact on the store its engines are stale, and every sweep
	// entry point checks the pin rather than silently mixing views (see
	// checkGen).
	gen int64

	home  []int32    // vertex -> shard whose destination range holds it
	feeds [][]uint64 // per-shard source-range summary (Store.SourceSummary)

	// Modelled NUMA placement: shard si's destination range lives on
	// domain domainOf[si] and is applied by domains[domainOf[si]]'s
	// workers (a per-domain view of pool).
	domainOf []int32
	domains  []*sched.DomainView

	// maxShardBytes is what the largest shard costs the cache once
	// decoded (decodedBytes over the manifest's live edge count): the
	// staging window's slot size.
	maxShardBytes int64
}

// newHostCore validates (st, g, opts) and builds the shared substrate —
// the construction half of the construction/execution split.
func newHostCore(st *Store, g *graph.Graph, opts Options) (*hostCore, error) {
	if st.NumVertices() != g.NumVertices() || st.NumEdges() != g.NumEdges() {
		return nil, fmt.Errorf("shard: store is %dv/%de but graph is %dv/%de",
			st.NumVertices(), st.NumEdges(), g.NumVertices(), g.NumEdges())
	}
	opts, err := opts.normalize()
	if err != nil {
		return nil, err
	}
	feeds, err := st.SourceSummary()
	if err != nil {
		return nil, err
	}
	c := &hostCore{
		st:       st,
		g:        g,
		opts:     opts,
		pool:     sched.NewPool(opts.Threads),
		gen:      st.Generation(),
		home:     make([]int32, g.NumVertices()),
		feeds:    feeds,
		domainOf: make([]int32, st.NumShards()),

		maxShardBytes: 1,
	}
	c.domains = opts.Topology.Split(c.pool)
	for i := range c.domainOf {
		lo, hi := st.Range(i)
		for v := lo; v < hi; v++ {
			c.home[v] = int32(i)
		}
		c.domainOf[i] = int32(opts.Topology.DomainOf(i))
		c.maxShardBytes = max(c.maxShardBytes, decodedBytes(st.m.EdgeCounts[i], c.taskCount(i)))
	}
	return c, nil
}

// NewEngine builds the out-of-core engine for an opened store: the one
// session of a new Host over a SharedCache of its own at
// DefaultCacheBytes. g must be the graph the store was written from
// (its per-vertex metadata — not its adjacency — backs the api.System
// contract); mismatched dimensions are rejected. Callers that want a
// specific budget, or N concurrent queries over one store, use NewHost.
func NewEngine(st *Store, g *graph.Graph, opts Options) (*Engine, error) {
	h, err := NewHost(st, g, nil, opts)
	if err != nil {
		return nil, err
	}
	return h.NewSession(), nil
}

// Build shards g into dir with p partitions in the default format and
// returns an engine over the new store — the one-call construction
// examples and tests use.
func Build(dir string, g *graph.Graph, p int, opts Options) (*Engine, error) {
	h, err := BuildHost(dir, g, p, nil, opts)
	if err != nil {
		return nil, err
	}
	return h.NewSession(), nil
}

// Name implements api.System.
func (e *Engine) Name() string { return "OOC" }

// Graph implements api.System.
func (e *Engine) Graph() *graph.Graph { return e.g }

// Threads implements api.System.
func (e *Engine) Threads() int { return e.pool.Threads() }

// Store returns the underlying shard store.
func (e *Engine) Store() *Store { return e.st }

// Options returns the resolved engine options.
func (e *Engine) Options() Options { return e.opts }

// Stats returns a snapshot of the engine's sweep, pipeline and I/O
// counters. Every counter is maintained atomically (the slice-valued
// ones element-wise), so Stats is safe to call from any goroutine at
// any time — including while a concurrent multi-domain sweep is
// mutating the counters. The snapshot is per-field consistent, not a
// single linearised point across fields.
func (e *Engine) Stats() Stats {
	s := Stats{
		DenseSweeps:         atomic.LoadInt64(&e.stats.DenseSweeps),
		SparseSweeps:        atomic.LoadInt64(&e.stats.SparseSweeps),
		ShardLoads:          atomic.LoadInt64(&e.stats.ShardLoads),
		CacheHits:           atomic.LoadInt64(&e.stats.CacheHits),
		ShardsSkipped:       atomic.LoadInt64(&e.stats.ShardsSkipped),
		BytesRead:           atomic.LoadInt64(&e.stats.BytesRead),
		BytesLogical:        atomic.LoadInt64(&e.stats.BytesLogical),
		SharedReads:         atomic.LoadInt64(&e.stats.SharedReads),
		CoScheduledSweeps:   atomic.LoadInt64(&e.stats.CoScheduledSweeps),
		CoSharedShards:      atomic.LoadInt64(&e.stats.CoSharedShards),
		OverlappedLoads:     atomic.LoadInt64(&e.stats.OverlappedLoads),
		ConcurrentApplyPeak: atomic.LoadInt64(&e.stats.ConcurrentApplyPeak),
		DomainShards:        make([]int64, len(e.stats.DomainShards)),
		DomainEdges:         make([]int64, len(e.stats.DomainEdges)),
		ApplyLevels:         make([]int64, len(e.stats.ApplyLevels)),
		WindowDepths:        make([]int64, len(e.stats.WindowDepths)),
	}
	for d := range s.DomainShards {
		s.DomainShards[d] = atomic.LoadInt64(&e.stats.DomainShards[d])
		s.DomainEdges[d] = atomic.LoadInt64(&e.stats.DomainEdges[d])
	}
	for l := range s.ApplyLevels {
		s.ApplyLevels[l] = atomic.LoadInt64(&e.stats.ApplyLevels[l])
	}
	for d := range s.WindowDepths {
		s.WindowDepths[d] = atomic.LoadInt64(&e.stats.WindowDepths[d])
	}
	return s
}

// Topology returns the modelled NUMA topology shards are placed on.
func (e *Engine) Topology() sched.Topology { return e.opts.Topology }

// ShardDomain returns the modelled NUMA domain owning shard si's
// destination range. The assignment is round-robin by shard index — the
// same placement locality.MeasureNUMATraffic models — so it is
// deterministic for a given store and topology.
func (e *Engine) ShardDomain(si int) int { return int(e.domainOf[si]) }

// VertexMap implements api.System.
func (e *Engine) VertexMap(f *frontier.Frontier, fn func(graph.VID)) {
	api.VertexMap(e.pool, f, fn)
}

// VertexFilter implements api.System.
func (e *Engine) VertexFilter(f *frontier.Frontier, pred func(graph.VID) bool) *frontier.Frontier {
	return api.VertexFilter(e.pool, e.g, f, pred)
}

// checkGen panics if the store moved past the generation this engine
// was built over. An ApplyBatch or Compact changes on-disk content the
// engine's cached residents and graph metadata do not reflect;
// sweeping anyway would silently mix the two views. Mutators
// that also serve queries reopen the store and rebuild hosts instead
// (internal/serve does), so a trip here is always a caller bug.
func (e *Engine) checkGen() {
	if g := e.st.Generation(); g != e.gen {
		panic(fmt.Sprintf("shard: engine built over store generation %d, store is now at %d; rebuild the engine after ApplyBatch/Compact", e.gen, g))
	}
}

// EdgeMap applies op over the active edges of f with a frontier-aware,
// concurrent shard sweep: plan → stage → apply → publish. The planner
// picks the shard set in ascending order (exact for sparse frontiers,
// summary-pruned for dense ones); a staging goroutine fetches it in that
// order — a cache hit, else a synchronous read — keeping up to one
// shard per domain staged ahead; up to
// min(Domains, Threads) staged shards are applied simultaneously, one
// per modelled NUMA domain, each by its own domain's workers; the next
// frontier is published once, after the barrier, with aggregated
// statistics. Results are bit-identical to a sequential shard-file-order
// sweep at any window depth and domain count: shards own disjoint
// 64-aligned destination ranges, operators write destination state
// only, and all in-edges of a destination live in one shard, so neither
// staging depth nor cross-domain interleaving can reorder any
// destination's updates. The direction hint is ignored: every traversal
// is a destination-grouped sweep, which is the only order an
// out-of-core layout supports without a second edge copy on disk.
func (e *Engine) EdgeMap(f *frontier.Frontier, op api.EdgeOp, _ api.Direction) *frontier.Frontier {
	e.checkGen()
	n := e.g.NumVertices()
	if f.Count() == 0 {
		return frontier.New(n)
	}
	var plan []int
	// Reuse the central Algorithm 2 thresholds; only the sparse/non-sparse
	// cut matters here (denseDiv is irrelevant for a two-way split).
	sparse := f.Classify(e.g, e.opts.SparseDiv, 2) == frontier.Sparse
	if sparse {
		atomic.AddInt64(&e.stats.SparseSweeps, 1)
		plan = e.planSparse(f)
	} else {
		atomic.AddInt64(&e.stats.DenseSweeps, 1)
		plan = e.planDense(f)
	}
	atomic.AddInt64(&e.stats.ShardsSkipped, int64(e.st.NumShards()-len(plan)))

	cur := f.Bitmap()
	cond := op.CondOf()
	next := frontier.NewBitmap(n)
	// One accumulator stripe per domain: concurrent applies on distinct
	// domains never share an entry even when Split had to deal the same
	// pool-global worker ID to several domains (Threads < Domains).
	accs := make([]sweepAccum, len(e.domains)*e.pool.Threads())
	e.sweepPipelined(plan, sparse, cur, cond, op, next, accs)
	var count, outDeg int64
	for i := range accs {
		count += accs[i].count
		outDeg += accs[i].outDeg
	}
	nf := frontier.FromBitmap(n, next)
	nf.SetStats(count, outDeg)
	return nf
}

// planSparse computes the exact set of shards holding at least one edge
// from an active source, by walking the in-memory CSR adjacency of only
// the active vertices — O(|F| + Σ out-deg) work, the same bound that
// made the frontier sparse. Shards outside the set are never loaded.
func (e *Engine) planSparse(f *frontier.Frontier) []int {
	marked := make([]bool, e.st.NumShards())
	f.ForEach(func(u graph.VID) {
		for _, v := range e.g.OutNeighbors(u) {
			marked[e.home[v]] = true
		}
	})
	plan := make([]int, 0, len(marked))
	for i, m := range marked {
		if m {
			plan = append(plan, i)
		}
	}
	return plan
}

// planDense streams the full shard sequence but still skips shards whose
// source-range summary intersects no active range — the coarse,
// classification-style activity test (cost O(|V|/64 + P²/64), no edge
// work). A shard with no edges at all has an empty summary and is always
// skipped.
func (e *Engine) planDense(f *frontier.Frontier) []int {
	p := e.st.NumShards()
	active := make([]uint64, summaryWords(p))
	bm := f.Bitmap()
	words := bm.Words()
	for i := 0; i < p; i++ {
		lo, hi := e.st.Range(i)
		// Interior bounds are BoundaryAlign-aligned, so ranges map to
		// disjoint word runs (the final range owns the tail).
		for w, whi := int(lo)/64, (int(hi)+63)/64; w < whi; w++ {
			if words[w] != 0 {
				active[i/64] |= 1 << (i % 64)
				break
			}
		}
	}
	plan := make([]int, 0, p)
	for i := 0; i < p; i++ {
		feeds := e.feeds[i]
		for w := range feeds {
			if feeds[w]&active[w] != 0 {
				plan = append(plan, i)
				break
			}
		}
	}
	return plan
}

// stagedShard is one fetched shard on its way to an apply, carrying the
// cache pin taken for it: whoever consumes the record — the apply loop
// on every exit path — calls release exactly once. A refused
// (transient) insert carries a no-op release.
type stagedShard struct {
	sh      *resident
	release func()
}

// admit fetches plan entry si for the staging goroutine, pinned: from
// the cache if resident, else by a synchronous read. The stager calls
// it once per plan entry, in plan order, so the cache sees exactly the
// get/add sequence of a sequential sweep. The read is single-flight
// through the cache: if another session's load for the same shard is in
// flight (or just landed), this session shares its result instead of
// touching disk (SharedReads); otherwise it reads under the host's read
// lock, so each store serves at most one uncached read at a time
// however many sessions sweep it.
func (e *Engine) admit(si int) (stagedShard, error) {
	k := cacheKey{e.st, si}
	if sh, release, ok := e.cache.get(k); ok {
		atomic.AddInt64(&e.stats.CacheHits, 1)
		return stagedShard{sh, release}, nil
	}
	var diskBytes int64
	var overlapped bool
	sh, shared, err := e.cache.load(k, func() (*resident, error) {
		e.readMu.Lock()
		defer e.readMu.Unlock()
		sh, n, ov, err := e.readShard(si)
		diskBytes, overlapped = n, ov
		return sh, err
	})
	if err != nil {
		return stagedShard{}, err
	}
	if shared {
		// Another session's disk load (or a raced insert) covered this
		// read: no disk traffic to account to this session — it neither
		// loaded the shard nor found it resident at fetch time.
		atomic.AddInt64(&e.stats.SharedReads, 1)
	} else {
		atomic.AddInt64(&e.stats.BytesRead, diskBytes)
		atomic.AddInt64(&e.stats.BytesLogical, v1EncodedBytes(int64(len(sh.src))))
		atomic.AddInt64(&e.stats.ShardLoads, 1)
		if overlapped {
			atomic.AddInt64(&e.stats.OverlappedLoads, 1)
		}
	}
	sh, release, _ := e.cache.add(k, sh)
	return stagedShard{sh, release}, nil
}

// readShard is the disk read + decode of shard si, split into the
// owning domain's apply tasks, plus whether it intersected an
// in-progress apply.
func (e *Engine) readShard(si int) (sh *resident, diskBytes int64, overlapped bool, err error) {
	if e.onLoadBegin != nil {
		e.onLoadBegin(si)
	}
	overlapped = atomic.LoadInt32(&e.applying) != 0
	coo, diskBytes, err := e.st.loadShard(si)
	if err != nil {
		return nil, 0, false, err
	}
	sh = e.newResident(si, coo)
	if atomic.LoadInt32(&e.applying) != 0 {
		overlapped = true
	}
	if e.onLoadEnd != nil {
		e.onLoadEnd(si)
	}
	return sh, diskBytes, overlapped, nil
}

// tasksPerWorker oversubscribes intra-shard tasks relative to workers so
// self-scheduling can balance skewed destination sub-ranges.
const tasksPerWorker = 4

// shardUnits is the number of BoundaryAlign-vertex units in shard si's
// destination range.
func (c *hostCore) shardUnits(si int) int {
	lo, hi := c.st.Range(si)
	return (int(hi-lo) + partition.BoundaryAlign - 1) / partition.BoundaryAlign
}

// taskCount is the number of apply tasks shard si splits into: sized
// for the workers that will actually apply it — its owning domain's
// view, not the full pool — and never more than its units.
func (c *hostCore) taskCount(si int) int {
	return max(1, min(c.domains[c.domainOf[si]].Threads()*tasksPerWorker, c.shardUnits(si)))
}

// newResident wraps a loaded shard's arrays — as decoded, never copied
// — with the offsets of its apply tasks.
func (c *hostCore) newResident(si int, coo *graph.COO) *resident {
	lo, _ := c.st.Range(si)
	return &resident{idx: si, src: coo.Src, dst: coo.Dst, off: taskOffsets(coo, lo, c.shardUnits(si), c.taskCount(si))}
}

// taskOffsets cuts a (dst,src)-sorted shard whose destination range
// starts at lo and spans units BoundaryAlign-vertex units into tasks
// apply tasks: units are dealt to tasks in contiguous, near-equal runs,
// and since the shard is destination-sorted each task's edges are one
// contiguous range, found by a search per task boundary. All in-edges of
// a destination share a task and keep their order, so per-destination
// application order does not depend on the task count.
func taskOffsets(c *graph.COO, lo graph.VID, units, tasks int) []int {
	off := make([]int, tasks+1)
	for t := 1; t < tasks; t++ {
		first := lo + graph.VID(t*units/tasks*partition.BoundaryAlign)
		off[t] = seekPair(c.Src, c.Dst, off[t-1], first, 0)
	}
	off[tasks] = len(c.Dst)
	return off
}

// sweepAccum collects per-worker next-frontier statistics, padded to a
// cache line.
type sweepAccum struct {
	count  int64
	outDeg int64
	_      [6]int64
}

// applyShard runs op over one resident shard in parallel with the
// workers of the shard's modelled NUMA domain: one task per destination
// sub-range, so every destination (and every next-frontier bitmap word)
// is written by exactly one worker and the non-atomic Update path is
// safe. Distinct shards may be applied concurrently (one per domain);
// their destination ranges — and hence their bitmap words and operator
// writes — are disjoint. accs is the full Domains×Threads accumulator
// block; each call writes only its own domain's stripe, indexed by the
// pool-global worker ID within it.
func (e *Engine) applyShard(si int, sh *resident, cur *frontier.Bitmap, cond func(graph.VID) bool, op api.EdgeOp, next *frontier.Bitmap, accs []sweepAccum) {
	dom := e.domainOf[si]
	atomic.AddInt64(&e.stats.DomainShards[dom], 1)
	atomic.AddInt64(&e.stats.DomainEdges[dom], int64(len(sh.src)))
	level := atomic.AddInt32(&e.applying, 1)
	// Deferred, not inline at the end: a panicking operator must not
	// leave the count stuck, or every later load on this engine would
	// count as overlapped and the window bound would over-shrink.
	defer atomic.AddInt32(&e.applying, -1)
	if l := int(level) - 1; l >= 0 && l < len(e.stats.ApplyLevels) {
		atomic.AddInt64(&e.stats.ApplyLevels[l], 1)
	}
	for {
		peak := atomic.LoadInt64(&e.stats.ConcurrentApplyPeak)
		if int64(level) <= peak ||
			atomic.CompareAndSwapInt64(&e.stats.ConcurrentApplyPeak, peak, int64(level)) {
			break
		}
	}
	if e.onApplyBegin != nil {
		e.onApplyBegin(si)
	}
	mine := accs[int(dom)*e.pool.Threads() : (int(dom)+1)*e.pool.Threads()]
	e.domains[dom].ParallelTasks(len(sh.off)-1, func(task, worker int) {
		a := &mine[worker]
		src := sh.src[sh.off[task]:sh.off[task+1]]
		dst := sh.dst[sh.off[task]:sh.off[task+1]]
		for i := range src {
			u, v := src[i], dst[i]
			if !cur.Get(u) || !cond(v) {
				continue
			}
			if op.Update(u, v) && !next.Get(v) {
				next.Set(v)
				a.count++
				a.outDeg += e.g.OutDegree(v)
			}
		}
	})
	if e.onApplyEnd != nil {
		e.onApplyEnd(si)
	}
}
