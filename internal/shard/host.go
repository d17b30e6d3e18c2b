package shard

// The construction/execution split. A Host is one opened store's shared
// substrate — the validated options, worker pool, NUMA views,
// vertex→shard map, source summaries, Hilbert keys — plus the three
// things N concurrent queries must share rather than duplicate: the
// refcounted byte-budgeted SharedCache, the aio read budget, and the
// co-scheduling passBoard. NewSession stamps out one
// execution context (an *Engine implementing api.System) per query:
// sessions get their own stats, planner state and vertex-state arrays
// but fetch through the shared cache, read under the shared I/O
// budget, and co-schedule their dense sweeps through the shared board.
//
// Each session individually keeps the full api.System contract —
// EdgeMap/VertexMap calls on *one* session are serial, like any other
// engine — while distinct sessions run concurrently: everything they
// share is either immutable (the core), internally synchronized (the
// cache, the board, the budget, the stateless sched.Pool, the
// scatter/gather bin cache), or owned per-session (frontiers,
// accumulators, stats). Update bins in particular are host-shared —
// one byte budget and one copy per store, however many sessions sweep
// it — see bincache.go.

import (
	"repro/internal/aio"
	"repro/internal/graph"
	"repro/internal/sched"
)

// Host serves one store to N concurrent sessions.
type Host struct {
	core   *hostCore
	cache  *SharedCache
	board  passBoard
	budget *aio.Budget
}

// NewHost opens the store's shared substrate. cache is the memory
// budget, in bytes, the host's sessions fetch through — pass the same
// value to every Host of a daemon so all stores share one budget; nil
// builds a SharedCache of the host's own at DefaultCacheBytes. Every
// session inherits the resolved opts. The host-wide uncached-read
// budget equals the resolved Options.IODepth: concurrent sessions
// share it instead of multiplying it.
func NewHost(st *Store, g *graph.Graph, cache *SharedCache, opts Options) (*Host, error) {
	core, err := newHostCore(st, g, opts)
	if err != nil {
		return nil, err
	}
	if cache == nil {
		cache = NewSharedCache(DefaultCacheBytes)
	}
	return &Host{
		core:   core,
		cache:  cache,
		budget: aio.NewBudget(core.opts.IODepth),
	}, nil
}

// BuildHost shards g into dir with p partitions in the default format
// and returns a host over the new store — Build with a caller-chosen
// cache budget.
func BuildHost(dir string, g *graph.Graph, p int, cache *SharedCache, opts Options) (*Host, error) {
	st, err := Create(dir, g, WriteOptions{Partitions: p})
	if err != nil {
		return nil, err
	}
	return NewHost(st, g, cache, opts)
}

// NewSession returns a fresh execution context over the host's store.
// The session implements api.System; its results are bit-identical
// whatever other sessions are doing concurrently. Sessions need no
// teardown — a session that finishes (or panics out of) its last sweep
// holds no cache pins and no goroutines.
func (h *Host) NewSession() *Engine {
	c := h.core
	return &Engine{
		hostCore: c,
		cache:    h.cache,
		board:    &h.board,
		ioBudget: h.budget,
		slots:    int(max(1, h.cache.Budget()/c.maxShardBytes)),
		shadow:   &shadowLRU{budget: h.cache.Budget(), cost: c.shardBytes},
		stats: Stats{
			DomainShards: make([]int64, c.opts.Topology.Domains),
			DomainEdges:  make([]int64, c.opts.Topology.Domains),
			ApplyLevels:  make([]int64, c.opts.Topology.Domains),
			WindowDepths: make([]int64, c.opts.Window+1),
			ReadDepths:   make([]int64, c.opts.IODepth+1),
		},
	}
}

// Store returns the hosted store.
func (h *Host) Store() *Store { return h.core.st }

// Graph returns the graph the store was written from.
func (h *Host) Graph() *graph.Graph { return h.core.g }

// Options returns the resolved options every session inherits.
func (h *Host) Options() Options { return h.core.opts }

// Cache returns the shared cache the host's sessions fetch through.
func (h *Host) Cache() *SharedCache { return h.cache }

// BinStats returns a snapshot of the host's scatter/gather bin cache —
// the one store-wide bin budget every session shares. Edge-centric
// hosts (no bin store) report the zero value.
func (h *Host) BinStats() BinCacheStats {
	if h.core.bins == nil {
		return BinCacheStats{}
	}
	return h.core.bins.Stats()
}

// Topology returns the modelled NUMA topology sessions place shards on.
func (h *Host) Topology() sched.Topology { return h.core.opts.Topology }

// Evict drops the host's resident shards from the cache and releases
// its scatter/gather bin store (every spill file is deleted) — the
// close-store path, which internal/serve takes when an update or
// compaction rehosts the store at a new generation. Unpinned shards
// and bins leave memory immediately; those pinned by in-flight queries
// retire at their final unpin, so a drained old host holds zero
// bytes.
func (h *Host) Evict() {
	h.cache.dropStore(h.core.st)
	if h.core.bins != nil {
		h.core.bins.drop()
	}
}
