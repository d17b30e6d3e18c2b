package shard

// The construction/execution split. A Host is one opened store's shared
// substrate — the validated options, worker pool, vertex→shard map,
// source summaries, per-vertex Meta — plus the two things N concurrent
// queries must share rather than duplicate: the refcounted
// byte-budgeted SharedCache and the disk-read lock. NewSession stamps
// out one execution context (an *Engine implementing api.System) per
// query: sessions get their own stats and vertex-state arrays but
// embed the Host, so they fetch through its cache and read under its
// lock, and a shard one session loads (or is loading) serves every
// other session's sweep.
//
// Each session individually keeps the full api.System contract —
// EdgeMap/VertexMap calls on *one* session are serial, like any other
// engine — while distinct sessions run concurrently: everything they
// share is either immutable (the store-derived fields), internally
// synchronized (the cache, the read lock, the stateless sched.Pool), or
// owned per-session (frontiers, accumulators, stats).

import (
	"fmt"
	"sync"

	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/sched"
)

// Host serves one store to N concurrent sessions.
type Host struct {
	st   *Store
	g    *graph.Graph
	meta *Meta // the store's per-vertex Meta: the sparse planner's feeds-masks
	opts Options
	pool *sched.Pool
	// gen is the store generation the host was built over. The graph
	// metadata and feeds describe that generation; after an ApplyBatch
	// or Compact on the store its sessions are stale, and every sweep
	// entry point checks the pin rather than silently mixing views (see
	// checkGen).
	gen int64

	home  []int32    // BoundaryAlign-vertex unit -> shard whose destination range holds it (shardOf)
	feeds [][]uint64 // per-shard source-range summary (Store.SourceSummary)

	// maxShardBytes is what the largest shard costs the cache once
	// decoded (decodedBytes over the manifest's live edge count): the
	// staging window's slot size.
	maxShardBytes int64

	cache *SharedCache
	// readMu serialises the uncached reads of every session: at most one
	// shard read in flight per store.
	readMu sync.Mutex
}

// NewHost validates (st, g, opts) and opens the store's shared
// substrate. g is the graph the store was written from, or nil to serve
// the degree-only graph of the store's per-vertex Meta: then
// construction reads no edge and costs O(V + P²), and an algorithm that
// reads adjacency through a session's graph is refused with
// graph.ErrNoAdjacency. cache is the memory budget, in bytes, the
// host's sessions fetch through — pass the same value to every Host of
// a daemon so all stores share one budget; nil builds a SharedCache of
// the host's own at DefaultCacheBytes. Every session inherits the
// resolved opts. A corrupt Meta file is a *MetaError.
func NewHost(st *Store, g *graph.Graph, cache *SharedCache, opts Options) (*Host, error) {
	opts, err := opts.normalize()
	if err != nil {
		return nil, err
	}
	meta, err := st.Meta()
	if err != nil {
		return nil, err
	}
	if g == nil {
		g = meta.Graph()
	}
	if st.NumVertices() != g.NumVertices() || st.NumEdges() != g.NumEdges() {
		return nil, fmt.Errorf("shard: store is %dv/%de but graph is %dv/%de",
			st.NumVertices(), st.NumEdges(), g.NumVertices(), g.NumEdges())
	}
	feeds, err := st.SourceSummary()
	if err != nil {
		return nil, err
	}
	if cache == nil {
		cache = NewSharedCache(DefaultCacheBytes)
	}
	h := &Host{
		st:    st,
		g:     g,
		meta:  meta,
		opts:  opts,
		pool:  sched.NewPool(opts.Threads),
		gen:   st.Generation(),
		home:  make([]int32, (g.NumVertices()+partition.BoundaryAlign-1)/partition.BoundaryAlign),
		feeds: feeds,
		cache: cache,

		maxShardBytes: 1,
	}
	for i := 0; i < st.NumShards(); i++ {
		// Interior bounds are BoundaryAlign-aligned, so every unit lies
		// in one non-empty range.
		if lo, hi := st.Range(i); lo < hi {
			for u := int(lo) / partition.BoundaryAlign; u < (int(hi)+partition.BoundaryAlign-1)/partition.BoundaryAlign; u++ {
				h.home[u] = int32(i)
			}
		}
		h.maxShardBytes = max(h.maxShardBytes, decodedBytes(st.m.EdgeCounts[i], h.taskCount(i)))
	}
	return h, nil
}

// NewSession returns a fresh execution context over the host's store.
// The session implements api.System; its results are bit-identical
// whatever other sessions are doing concurrently. Sessions need no
// teardown — a session that finishes (or panics out of) its last sweep
// holds no cache pins and no goroutines.
func (h *Host) NewSession() *Engine {
	return &Engine{Host: h, slots: int(max(1, h.cache.Budget()/h.maxShardBytes))}
}

// Store returns the hosted store.
func (h *Host) Store() *Store { return h.st }

// Graph returns the graph NewHost was given, or — for a host built
// without one — the degree-only graph of the store's Meta: |V|, |E| and
// degrees, no adjacency (graph.ErrNoAdjacency).
func (h *Host) Graph() *graph.Graph { return h.g }

// Options returns the resolved options every session inherits.
func (h *Host) Options() Options { return h.opts }

// Cache returns the shared cache the host's sessions fetch through.
func (h *Host) Cache() *SharedCache { return h.cache }

// Evict drops the host's resident shards from the cache — the
// close-store path, which internal/serve takes when an update or
// compaction rehosts the store at a new generation. Unpinned shards
// leave memory immediately; those pinned by in-flight queries retire
// at their final unpin. Eviction does not end the host's sessions: one
// still querying the old generation after the rehost (a
// generation-pinned session) fetches its shards again, and those are
// admitted as ordinary LRU entries under the shared budget, so an old
// host drains to zero bytes only once its sessions stop sweeping or
// the LRU evicts what they left.
func (h *Host) Evict() { h.cache.dropStore(h.st) }
