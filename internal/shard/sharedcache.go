package shard

// The shard residency layer. A SharedCache is the residency core (see
// residency.go: byte budget, pins, refuse-don't-block) keyed by
// (store, shard), plus a single-flight table: a shard resident for one
// in-flight query is free for every other query on the same store, and
// concurrent sessions missing on the same shard elect one loader and
// the rest share its result (SharedReads), so co-scheduled queries
// cannot multiply disk traffic for the same bytes. One cache serves
// every session of every Host it is handed to; an engine built by
// NewEngine is simply the only session of a cache of its own.

import (
	"sync/atomic"

	"repro/internal/graph"
)

// DefaultCacheBytes is the shared-cache budget a daemon gets when none
// is configured: generous enough to keep a mid-size store's working set
// decoded, small enough to stay out of core in spirit.
const DefaultCacheBytes int64 = 256 << 20

// resident is a shard decoded for parallel application: its edges,
// (dst,src)-sorted as loadShard returns them, and the offsets that cut
// them into destination sub-ranges whose bounds are aligned to 64
// vertices, so each sub-range's task owns its frontier bitmap words
// exclusively and updates need no atomics. All in-edges of a destination
// fall into one sub-range in file order, so the per-destination
// application order is independent of the task count.
//
// index is the shard's source index (see sparse.go), nil until an
// inline sparse sweep builds one for the shard while it is a cache hit
// and the budget's spare room pays for it (attachIndex). A freshly
// loaded shard never has one, so a store that only streams never pays
// for it; once attached it lives and leaves with the cache entry.
type resident struct {
	idx      int
	src, dst []graph.VID
	off      []int // len = tasks+1; task t owns edges [off[t], off[t+1])
	index    atomic.Pointer[sourceIndex]
}

// decodedBytes prices a decoded shard of the given edge and task counts:
// the src/dst arrays plus the task offsets — the memory the budget
// actually bounds. The staging window sizes its slots with the same
// formula from the manifest's edge counts; a shard's source index, when
// it has one, is charged on top (residentBytes).
func decodedBytes(edges int64, tasks int) int64 { return edges*8 + int64(tasks+1)*8 }

func residentBytes(sh *resident) int64 {
	return decodedBytes(int64(len(sh.src)), len(sh.off)-1) + sh.index.Load().bytes()
}

// cacheKey names one shard of one open store. The *Store identity is
// the namespace, so a daemon hosting many stores shares one budget
// without name bookkeeping.
type cacheKey struct {
	st  *Store
	idx int
}

// sharedLoad is one in-flight uncached read: the elected loader
// resolves it, waiting sessions share the result.
type sharedLoad struct {
	done chan struct{}
	sh   *resident
	err  error
}

// SharedCacheStats is a point-in-time snapshot of the shared cache.
type SharedCacheStats struct {
	Budget    int64 // configured byte budget
	Bytes     int64 // decoded bytes resident now (always <= Budget)
	PeakBytes int64 // high-water mark of Bytes
	Resident  int64 // shards resident now
	Pinned    int64 // resident shards with refcount > 0 right now
	Hits      int64 // fetches served from residency
	Loads     int64 // disk loads performed (single-flight winners)
	Shared    int64 // reads served by another session's load or a raced insert
	Evictions int64 // unpinned shards evicted to make room
	Rejected  int64 // inserts refused because the cold unpinned set could not cover the bytes
}

// SharedCache is the refcounted, byte-budgeted shard LRU N concurrent
// sessions share. All methods are safe for concurrent use.
type SharedCache struct {
	res *residency[cacheKey, *resident]

	// Guarded by res.mu, so a miss and the election of its loader are
	// one atomic step.
	inflight      map[cacheKey]*sharedLoad
	loads, shared int64
}

// NewSharedCache builds a shared cache with the given byte budget;
// budget <= 0 selects DefaultCacheBytes.
func NewSharedCache(budget int64) *SharedCache {
	if budget <= 0 {
		budget = DefaultCacheBytes
	}
	return &SharedCache{
		res:      newResidency[cacheKey, *resident](budget),
		inflight: make(map[cacheKey]*sharedLoad),
	}
}

// Budget returns the configured byte budget.
func (c *SharedCache) Budget() int64 { return c.res.budget }

// Stats returns a consistent snapshot of the cache counters.
func (c *SharedCache) Stats() SharedCacheStats {
	c.res.mu.Lock()
	defer c.res.mu.Unlock()
	rs := c.res.statsLocked()
	return SharedCacheStats{
		Budget:    rs.Budget,
		Bytes:     rs.Bytes,
		PeakBytes: rs.PeakBytes,
		Resident:  rs.Resident,
		Pinned:    rs.Pinned,
		Hits:      rs.Hits,
		Loads:     c.loads,
		Shared:    c.shared,
		Evictions: rs.Evictions,
		Rejected:  rs.Rejected,
	}
}

// retireLoadLocked drops k's single-flight record if it has resolved.
// An unresolved record belongs to a read still in progress — leave it
// to its own reap.
func (c *SharedCache) retireLoadLocked(k cacheKey) {
	if w, ok := c.inflight[k]; ok {
		select {
		case <-w.done:
			delete(c.inflight, k)
		default:
		}
	}
}

// get returns shard k pinned and promoted, plus its release.
func (c *SharedCache) get(k cacheKey) (*resident, func(), bool) { return c.res.get(k) }

// getAll is the inline sparse sweep's fetch. If every shard plan names
// of st is resident, and the budget's spare room could pay for the
// source index of each one that has none (at its least, minIndexBytes),
// it pins and promotes them in plan order, counting one hit each —
// exactly the gets a stager would issue — and returns them with the
// spare room left. Otherwise it touches nothing and reports false, and
// the sweep takes the window. Either way it takes one lock.
func (c *SharedCache) getAll(st *Store, plan []int) (shs []*resident, releases []func(), spare int64, ok bool) {
	c.res.mu.Lock()
	defer c.res.mu.Unlock()
	spare = c.res.spareLocked()
	need := int64(0)
	for _, si := range plan {
		el, ok := c.res.idx[cacheKey{st, si}]
		if !ok {
			return nil, nil, 0, false
		}
		if sh := el.Value.(*resEntry[cacheKey, *resident]).val; sh.index.Load() == nil {
			if need += minIndexBytes(sh); need > spare {
				return nil, nil, 0, false
			}
		}
	}
	shs = make([]*resident, len(plan))
	releases = make([]func(), len(plan))
	for i, si := range plan {
		shs[i], releases[i], _ = c.res.getLocked(cacheKey{st, si})
	}
	return shs, releases, spare, true
}

// attachIndex hangs ix on shard k's resident sh and charges its bytes
// to the entry, if the entry still holds sh, is not retired, and the
// budget's spare room covers ix without evicting anything. It returns
// the index sh carries afterwards: ix; the one a racing session
// attached first (ix is dropped); or nil when the attach was refused
// (or ix is nil).
func (c *SharedCache) attachIndex(k cacheKey, sh *resident, ix *sourceIndex) *sourceIndex {
	c.res.mu.Lock()
	defer c.res.mu.Unlock()
	if cur := sh.index.Load(); cur != nil || ix == nil {
		return cur
	}
	el, ok := c.res.idx[k]
	if !ok || el.Value.(*resEntry[cacheKey, *resident]).val != sh || !c.res.growLocked(el, ix.bytes()) {
		return nil
	}
	sh.index.Store(ix)
	return ix
}

// add admits a freshly loaded shard, pinned, and returns the shard to
// apply (see residency.addLocked for adoption and refusal). The shard
// is reaching residency, so the resolved single-flight record load
// retained for the gap between read completion and this insertion is
// retired.
func (c *SharedCache) add(k cacheKey, sh *resident) (canon *resident, release func(), admitted bool) {
	c.res.mu.Lock()
	defer c.res.mu.Unlock()
	c.retireLoadLocked(k)
	return c.res.addLocked(k, sh, residentBytes(sh))
}

// load is the single-flight read path: if shard k is resident or
// another session's read for it is in flight, the caller shares that
// result (shared = true, no disk touched); otherwise the caller is
// elected loader, runs read, and publishes the outcome to any waiters.
// A waiter inherits the loader's error — read failures are properties
// of the store, not the session.
func (c *SharedCache) load(k cacheKey, read func() (*resident, error)) (sh *resident, shared bool, err error) {
	c.res.mu.Lock()
	if sh, ok := c.res.touchLocked(k); ok {
		c.shared++
		c.res.mu.Unlock()
		return sh, true, nil
	}
	if w, ok := c.inflight[k]; ok {
		c.res.mu.Unlock()
		<-w.done
		if w.err != nil {
			return nil, true, w.err
		}
		c.res.mu.Lock()
		c.shared++
		c.res.mu.Unlock()
		return w.sh, true, nil
	}
	w := &sharedLoad{done: make(chan struct{})}
	c.inflight[k] = w
	c.res.mu.Unlock()

	sh, err = read()
	w.sh, w.err = sh, err

	c.res.mu.Lock()
	if err != nil {
		// Failed loads retry: nothing will admit this key, so the record
		// must not outlive the attempt (and must not pin the error for
		// a store whose fault might be repaired).
		delete(c.inflight, k)
	} else {
		// Success: keep the resolved record until add admits the shard,
		// so a session missing in the gap between this read's completion
		// and its reap-time insertion shares the result instead of
		// re-reading the disk — without this, "concurrent queries never
		// multiply loads for the same resident bytes" would be a race.
		c.loads++
	}
	c.res.mu.Unlock()
	close(w.done)
	return sh, false, err
}

// dropStore retires every resident shard of st — the close-store path.
// Unpinned shards leave immediately; shards still pinned by in-flight
// queries leave at their final unpin. Either way each counts as one
// eviction, here.
func (c *SharedCache) dropStore(st *Store) {
	c.res.mu.Lock()
	defer c.res.mu.Unlock()
	for k := range c.inflight {
		if k.st == st {
			c.retireLoadLocked(k)
		}
	}
	c.res.evictions += c.res.dropLocked(func(k cacheKey) bool { return k.st == st })
}
