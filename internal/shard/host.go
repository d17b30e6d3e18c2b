package shard

// The construction/execution split. A Host is one opened store's shared
// substrate — the validated options, worker pool, vertex→shard map,
// source summaries — plus the three things N concurrent queries must
// share rather than duplicate: the refcounted byte-budgeted
// SharedCache, the disk-read lock, and the co-scheduling passBoard.
// NewSession stamps out one execution context (an *Engine implementing
// api.System) per query: sessions get their own stats and vertex-state
// arrays but fetch through the shared cache, read under the shared
// lock, and co-schedule their dense sweeps through the shared board.
//
// Each session individually keeps the full api.System contract —
// EdgeMap/VertexMap calls on *one* session are serial, like any other
// engine — while distinct sessions run concurrently: everything they
// share is either immutable (the core), internally synchronized (the
// cache, the board, the read lock, the stateless sched.Pool), or owned
// per-session (frontiers, accumulators, stats).

import (
	"sync"

	"repro/internal/graph"
)

// Host serves one store to N concurrent sessions.
type Host struct {
	core  *hostCore
	cache *SharedCache
	board passBoard
	// readMu serialises the uncached reads of every session: at most one
	// shard read in flight per store.
	readMu sync.Mutex
}

// NewHost opens the store's shared substrate. g is the graph the store
// was written from, or nil to serve the degree-only graph of the
// store's per-vertex Meta: then construction reads no edge and costs
// O(V + P²), and an algorithm that reads adjacency through a session's
// graph is refused with graph.ErrNoAdjacency. cache is the memory
// budget, in bytes, the host's sessions fetch through — pass the same
// value to every Host of a daemon so all stores share one budget; nil
// builds a SharedCache of the host's own at DefaultCacheBytes. Every
// session inherits the resolved opts. A corrupt Meta file is a
// *MetaError.
func NewHost(st *Store, g *graph.Graph, cache *SharedCache, opts Options) (*Host, error) {
	core, err := newHostCore(st, g, opts)
	if err != nil {
		return nil, err
	}
	if cache == nil {
		cache = NewSharedCache(DefaultCacheBytes)
	}
	return &Host{core: core, cache: cache}, nil
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
		readMu:   &h.readMu,
		slots:    int(max(1, h.cache.Budget()/c.maxShardBytes)),
	}
}

// Store returns the hosted store.
func (h *Host) Store() *Store { return h.core.st }

// Graph returns the graph NewHost was given, or — for a host built
// without one — the degree-only graph of the store's Meta: |V|, |E| and
// degrees, no adjacency (graph.ErrNoAdjacency).
func (h *Host) Graph() *graph.Graph { return h.core.g }

// Options returns the resolved options every session inherits.
func (h *Host) Options() Options { return h.core.opts }

// Cache returns the shared cache the host's sessions fetch through.
func (h *Host) Cache() *SharedCache { return h.cache }

// Evict drops the host's resident shards from the cache — the
// close-store path, which internal/serve takes when an update or
// compaction rehosts the store at a new generation. Unpinned shards
// leave memory immediately; those pinned by in-flight queries retire
// at their final unpin, so a drained old host holds zero bytes.
func (h *Host) Evict() { h.cache.dropStore(h.core.st) }
