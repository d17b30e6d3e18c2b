package shard

import (
	"fmt"
	"sync/atomic"

	"repro/internal/api"
	"repro/internal/frontier"
	"repro/internal/graph"
	"repro/internal/partition"
)

// Options configures the out-of-core engine. The memory budget is not
// here: it is the byte budget of the SharedCache the engine fetches
// through (NewHost's cache argument; NewEngine uses a cache of its own
// at DefaultCacheBytes).
type Options struct {
	// Threads is the worker parallelism: the pool a sweep hands its
	// shard tasks to, and the vertex operators; 0 selects GOMAXPROCS.
	// It also sets the staging window's depth cap (see window.go).
	Threads int
}

// sparseDiv is Algorithm 2's sparse threshold divisor, the paper's 20:
// a frontier with |F| + Σ out-deg ≤ |E|/sparseDiv takes the sparse path
// (load only shards with active sources); denser frontiers stream the
// full shard sequence.
const sparseDiv = 20

// OptionsError is the typed rejection normalize returns for a
// nonsensical Options value. Zero values still select defaults (the
// long-standing construction idiom); a negative value is an error,
// never a silent rewrite that runs something other than what was asked
// for.
type OptionsError struct {
	Field  string // the offending Options field
	Value  int64  // the rejected value
	Reason string
}

func (e *OptionsError) Error() string {
	return fmt.Sprintf("shard: invalid Options.%s = %d: %s", e.Field, e.Value, e.Reason)
}

// normalize validates o. The zero Threads stays zero: the pool resolves
// it to GOMAXPROCS.
func (o Options) normalize() (Options, error) {
	if o.Threads < 0 {
		return o, &OptionsError{"Threads", int64(o.Threads), "must be >= 0 (0 selects GOMAXPROCS)"}
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
	// (1.0 on v1 stores).
	BytesRead    int64
	BytesLogical int64

	// SharedReads counts uncached reads this session resolved without
	// touching disk because another session's load for the same shard
	// was already in flight — or had just landed — in the shared cache
	// (single-flight; zero on a lone session, see host.go).
	SharedReads int64
	// CoScheduledSweeps is always 0: every session sweeps its own plan.
	// It stays because the benchmark report's shard.coscheduled_sweeps
	// row reads it.
	CoScheduledSweeps int64

	// OverlappedLoads counts disk loads that overlapped an in-progress
	// apply — the pipeline doing its job.
	OverlappedLoads int64
}

// Engine runs the engine-neutral algorithm API out of core: it
// implements api.System on top of a Store, so every algorithm in
// internal/algorithms executes unmodified while edge data streams from
// disk. Every sweep touches only per-vertex state plus the resident
// shards: frontier bitmaps, the degrees for frontier statistics, the
// source-range summaries that prune dense plans, and the store's
// per-vertex Meta, whose feeds-masks let a sparse plan bucket each
// active source into the shards it feeds — O(|F|) work, no out-list
// read. When every planned shard is resident, the sweep runs inline
// and applies each shard by looking its bucketed sources up in the
// shard's source index (sparse.go), so it costs O(active edges) and
// starts no goroutine. No sweep reads the Graph's adjacency: the
// api.System contract exposes the Graph for algorithm-side metadata,
// and a host built without one (NewHost with a nil graph) serves a
// degree-only Graph from the Meta, whose adjacency accessors refuse
// with graph.ErrNoAdjacency.
//
// Writes are partition-exclusive end to end: a shard holds all in-edges
// of its 64-aligned destination range, and each resident shard is cut
// into tasks over 64-aligned destination sub-ranges, so the non-atomic
// EdgeOp.Update path is always used — the out-of-core counterpart of
// the paper's "COO + na" configuration.
//
// Sweeps are inline (a resident sparse plan; sparse.go) or pipelined
// (plan → stage → apply → publish; see EdgeMap and window.go), and
// bit-identical either way, at any thread count.
//
// Every Engine is one session of a Host (see host.go): it owns its
// stats and per-sweep accumulators, and shares the embedded Host — its
// store-derived substrate, byte-budgeted SharedCache and disk-read
// lock — with any other session of the same host. NewEngine builds a
// host with exactly one session.
//
// EdgeMap cannot return an error through the api.System interface, so a
// shard that fails to load mid-sweep panics with the underlying error.
// Engines over corrupt directories fail fast in NewEngine instead when
// the manifest is unreadable.
type Engine struct {
	*Host

	// slots is how many of the store's largest decoded shard the cache
	// budget holds (at least one): the unit the staging window's
	// budget bound counts in.
	slots int

	// applying counts shards currently mid-apply; the read path samples
	// it to count loads that overlapped an apply.
	applying int32

	stats Stats

	// Sparse-sweep scratch, owned by the session (its sweeps are
	// serial): buckets[s] lists the active sources planSparse found
	// with an out-edge into shard s, ascending; seen is the inline
	// sweep's next-frontier bitmap, all clear between sweeps.
	buckets [][]graph.VID
	seen    *frontier.Bitmap

	// Test hooks (nil outside tests): onLoadBegin fires before a shard
	// file is read (on the staging goroutine, under the host's read
	// lock), onLoadEnd after it is decoded;
	// onApplyBegin/onApplyEnd bracket one shard's application (on the
	// workers that claim its first and finish its last task); onTask
	// fires as a worker starts one of its tasks; onStage fires when a
	// staged shard enters the window, carrying the observed window
	// depth and applying count.
	onLoadBegin, onLoadEnd   func(shard int)
	onApplyBegin, onApplyEnd func(shard int)
	onTask                   func(shard, task, worker int)
	onStage                  func(shard, depth, applying int)
	// onInline fires as an inline sparse sweep applies a shard, with
	// whether it is applied through its source index (else by scan).
	onInline func(shard int, indexed bool)
}

var _ api.System = (*Engine)(nil)

// NewEngine builds the out-of-core engine for an opened store: the one
// session of a new Host over a SharedCache of its own at
// DefaultCacheBytes. g is the graph the store was written from (the
// api.System contract hands it to algorithms that read adjacency;
// mismatched dimensions are rejected), or nil for the degree-only graph
// of the store's Meta. Callers that want a specific budget, or N
// concurrent queries over one store, use NewHost.
func NewEngine(st *Store, g *graph.Graph, opts Options) (*Engine, error) {
	h, err := NewHost(st, g, nil, opts)
	if err != nil {
		return nil, err
	}
	return h.NewSession(), nil
}

// Build shards g into dir with p partitions and returns an engine
// over the new store — the one-call construction examples and tests
// use.
func Build(dir string, g *graph.Graph, p int, opts Options) (*Engine, error) {
	st, err := Create(dir, g, WriteOptions{Partitions: p})
	if err != nil {
		return nil, err
	}
	return NewEngine(st, g, opts)
}

// Name implements api.System.
func (e *Engine) Name() string { return "OOC" }

// Threads implements api.System.
func (e *Engine) Threads() int { return e.pool.Threads() }

// Stats returns a snapshot of the engine's sweep, pipeline and I/O
// counters. Every counter is maintained atomically, so Stats is safe to
// call from any goroutine at any time — including mid-sweep. The
// snapshot is per-field consistent, not a single linearised point
// across fields.
func (e *Engine) Stats() Stats {
	return Stats{
		DenseSweeps:     atomic.LoadInt64(&e.stats.DenseSweeps),
		SparseSweeps:    atomic.LoadInt64(&e.stats.SparseSweeps),
		ShardLoads:      atomic.LoadInt64(&e.stats.ShardLoads),
		CacheHits:       atomic.LoadInt64(&e.stats.CacheHits),
		ShardsSkipped:   atomic.LoadInt64(&e.stats.ShardsSkipped),
		BytesRead:       atomic.LoadInt64(&e.stats.BytesRead),
		BytesLogical:    atomic.LoadInt64(&e.stats.BytesLogical),
		SharedReads:     atomic.LoadInt64(&e.stats.SharedReads),
		OverlappedLoads: atomic.LoadInt64(&e.stats.OverlappedLoads),
	}
}

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

// EdgeMap applies op over the active edges of f with a frontier-aware
// shard sweep. The planner picks the shard set in ascending order
// (exact for sparse frontiers, summary-pruned for dense ones). A sparse
// plan whose every shard is already resident runs inline on the
// caller's goroutine (sweepInline, sparse.go): each shard visits only
// the edges of its active sources through its source index, so the
// sweep costs O(active edges), not O(planned shards' edges), and starts
// no goroutine. Every other plan is pipelined: plan → stage → apply →
// publish. A staging goroutine fetches the plan in order — a cache hit,
// else a synchronous read — up to 2×Threads shards ahead; the pool's
// workers claim the staged shards' tasks (window.go); the next frontier
// is published once, after the barrier, with aggregated statistics.
// Either way the results are bit-identical to a sequential
// shard-file-order sweep at any thread count: tasks own disjoint
// 64-aligned destination sub-ranges, operators write destination state
// only, and every destination sees its in-edges in file order. The
// direction hint is ignored: every traversal is a destination-grouped
// sweep, which is the only order an out-of-core layout supports without
// a second edge copy on disk.
func (e *Engine) EdgeMap(f *frontier.Frontier, op api.EdgeOp, _ api.Direction) *frontier.Frontier {
	e.checkGen()
	if f.Count() == 0 {
		return frontier.New(e.g.NumVertices())
	}
	// Reuse the central Algorithm 2 thresholds; only the sparse/non-sparse
	// cut matters here (denseDiv is irrelevant for a two-way split).
	if f.Classify(e.g, sparseDiv, 2) == frontier.Sparse {
		atomic.AddInt64(&e.stats.SparseSweeps, 1)
		plan := e.planSparse(f)
		atomic.AddInt64(&e.stats.ShardsSkipped, int64(e.st.NumShards()-len(plan)))
		if shs, releases, spare, ok := e.cache.getAll(e.st, plan); ok {
			atomic.AddInt64(&e.stats.CacheHits, int64(len(plan)))
			return e.sweepInline(f, op, plan, shs, releases, spare)
		}
		return e.sweepWindowed(f, op, plan)
	}
	atomic.AddInt64(&e.stats.DenseSweeps, 1)
	plan := e.planDense(f)
	atomic.AddInt64(&e.stats.ShardsSkipped, int64(e.st.NumShards()-len(plan)))
	return e.sweepWindowed(f, op, plan)
}

// sweepWindowed runs plan through the pipelined sweep and publishes the
// next frontier as a bitmap with its statistics.
func (e *Engine) sweepWindowed(f *frontier.Frontier, op api.EdgeOp, plan []int) *frontier.Frontier {
	n := e.g.NumVertices()
	next := frontier.NewBitmap(n)
	k := &sweepKernel{
		e: e, cur: f.Bitmap(), cond: op.CondOf(), op: op, next: next,
		accs: make([]api.Accum, e.pool.Threads()),
	}
	w := e.startSweep(plan, k)
	// The teardown barrier runs even when wait re-raises a failure.
	defer w.stop()
	w.wait()
	return api.NextFrontier(n, next, k.accs)
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

// readShard is the disk read + decode of shard si, split into its
// apply tasks, plus whether it intersected an in-progress apply.
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

// shardOf returns the shard whose destination range holds v.
func (h *Host) shardOf(v graph.VID) int { return int(h.home[v/partition.BoundaryAlign]) }

// tasksPerWorker oversubscribes intra-shard tasks relative to workers so
// self-scheduling can balance skewed destination sub-ranges.
const tasksPerWorker = 4

// shardUnits is the number of BoundaryAlign-vertex units in shard si's
// destination range.
func (h *Host) shardUnits(si int) int {
	lo, hi := h.st.Range(si)
	return (int(hi-lo) + partition.BoundaryAlign - 1) / partition.BoundaryAlign
}

// taskCount is the number of apply tasks shard si splits into: sized
// for the pool, and never more than its units.
func (h *Host) taskCount(si int) int {
	return max(1, min(h.pool.Threads()*tasksPerWorker, h.shardUnits(si)))
}

// newResident wraps a loaded shard's arrays — as decoded, never copied
// — with the offsets of its apply tasks.
func (h *Host) newResident(si int, coo *graph.COO) *resident {
	lo, _ := h.st.Range(si)
	return &resident{idx: si, src: coo.Src, dst: coo.Dst, off: taskOffsets(coo, lo, h.shardUnits(si), h.taskCount(si))}
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

// sweepKernel is one EdgeMap's apply state: the frontier, the operator,
// the next frontier and one accumulator per pool worker.
type sweepKernel struct {
	e    *Engine
	cur  *frontier.Bitmap
	cond func(graph.VID) bool
	op   api.EdgeOp
	next *frontier.Bitmap
	accs []api.Accum
}

// apply runs op over the edges of one task of resident shard sh as pool
// worker worker. A task is a 64-aligned destination sub-range, so every
// destination (and every next-frontier bitmap word) it writes is
// written by no other task and the non-atomic Update path is safe.
func (k *sweepKernel) apply(sh *resident, task, worker int) {
	if k.e.onTask != nil {
		k.e.onTask(sh.idx, task, worker)
	}
	lo, hi := sh.off[task], sh.off[task+1]
	count, outDeg := api.DenseCOO(sh.src[lo:hi], sh.dst[lo:hi], k.cur, k.cond, k.op.Update, k.next, k.e.g)
	k.accs[worker].Count += count
	k.accs[worker].OutDeg += outDeg
}

// beginApply marks shard si mid-apply: a load that starts before the
// matching endApply counts as overlapped.
func (e *Engine) beginApply(si int) {
	atomic.AddInt32(&e.applying, 1)
	if e.onApplyBegin != nil {
		e.onApplyBegin(si)
	}
}

func (e *Engine) endApply(si int) {
	if e.onApplyEnd != nil {
		e.onApplyEnd(si)
	}
	atomic.AddInt32(&e.applying, -1)
}

// applyShard runs one resident shard's tasks over the whole pool — the
// inline sparse sweep's path for a shard it applies by scan.
func (e *Engine) applyShard(sh *resident, k *sweepKernel) {
	e.beginApply(sh.idx)
	// Deferred: a panicking operator must not leave the applying count
	// stuck, or every later load would count as overlapped.
	defer e.endApply(sh.idx)
	e.pool.ParallelTasks(len(sh.off)-1, func(task, worker int) { k.apply(sh, task, worker) })
}
