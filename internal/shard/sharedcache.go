package shard

// The shard residency layer. The paper's claim is that partitioning by
// destination turns a sweep's working set into a bounded thing; in this
// package that bounded thing is the decoded shards a SharedCache
// holds: a byte-budgeted LRU with pins, keyed by (store, shard). Three
// invariants hold at every observation point, not just at quiescence:
//
//   - a pinned entry (pins > 0) is never evicted,
//   - resident bytes never exceed the budget, and
//   - an insert that cannot fit after evicting every cold unpinned entry
//     is refused, never blocked on: the caller still uses its value
//     (transient, counted under rejected), so the budget is a hard bound
//     rather than a high-water mark and no two holders can deadlock
//     against each other however small it is.
//
// Beside the LRU sits a single-flight table: a shard resident for one
// in-flight query is free for every other query on the same store, and
// concurrent sessions missing on the same shard elect one loader and
// the rest share its result (SharedReads), so concurrent queries
// cannot multiply disk traffic for the same bytes. One cache serves
// every session of every Host it is handed to; an engine built by
// NewEngine is simply the only session of a cache of its own.

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// DefaultCacheBytes is the shared-cache budget a daemon gets when none
// is configured: generous enough to keep a mid-size store's working set
// decoded, small enough to stay out of core in spirit.
const DefaultCacheBytes int64 = 256 << 20

// resident is a shard decoded for parallel application: its runs, as
// loadRuns returns them, and the offsets that cut them into destination
// sub-ranges whose bounds are aligned to 64 vertices, so each
// sub-range's task owns its frontier bitmap words exclusively and
// updates need no atomics. A destination's in-edges are one run, so the
// per-destination application order is file order whatever the task
// count.
//
// index is the shard's source index (see sparse.go), nil until an
// inline sparse sweep builds one for the shard while it is a cache hit
// and the budget's spare room pays for it (attachIndex). A freshly
// loaded shard never has one, so a store that only streams never pays
// for it; once attached it lives and leaves with the cache entry.
type resident struct {
	idx int
	Runs
	off   []int // len = tasks+1; task t owns runs [off[t], off[t+1])
	index atomic.Pointer[sourceIndex]
}

// decodedBytes prices a decoded shard of the given edge, run and task
// counts: its sources (4 bytes an edge), its run table (a destination
// and an end offset, 8 bytes a run) and its task offsets — the memory
// the budget actually bounds. The staging window sizes its slots with
// the same formula from the manifest's edge counts and the Meta's run
// counts; a shard's source index, when it has one, is charged on top
// (residentBytes).
func decodedBytes(edges, runs int64, tasks int) int64 {
	return 4*edges + 8*runs + int64(tasks+1)*8
}

// residentBytes is what sh costs the budget: decodedBytes plus its
// source index, if one is attached.
func residentBytes(sh *resident) int64 {
	return decodedBytes(int64(len(sh.src)), int64(len(sh.dst)), len(sh.off)-1) + sh.index.Load().bytes()
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
	budget int64

	mu    sync.Mutex
	ll    *list.List // front = most recently used; values are *cacheEntry
	idx   map[cacheKey]*list.Element
	bytes int64
	// inflight is guarded by mu, so a miss and the election of its
	// loader are one atomic step.
	inflight map[cacheKey]*sharedLoad

	peakBytes, hits, loads, shared, evictions, rejected int64
}

// cacheEntry is one resident shard plus its refcount. pins counts the
// holders between fetch and release; eviction skips any entry with
// pins > 0. A retired entry (see dropStore) leaves at its final unpin.
type cacheEntry struct {
	key     cacheKey
	sh      *resident
	bytes   int64
	pins    int
	retired bool
}

// NewSharedCache builds a shared cache with the given byte budget;
// budget <= 0 selects DefaultCacheBytes.
func NewSharedCache(budget int64) *SharedCache {
	if budget <= 0 {
		budget = DefaultCacheBytes
	}
	return &SharedCache{
		budget:   budget,
		ll:       list.New(),
		idx:      make(map[cacheKey]*list.Element),
		inflight: make(map[cacheKey]*sharedLoad),
	}
}

// Budget returns the configured byte budget.
func (c *SharedCache) Budget() int64 { return c.budget }

// Stats returns a consistent snapshot of the cache counters.
func (c *SharedCache) Stats() SharedCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := SharedCacheStats{
		Budget:    c.budget,
		Bytes:     c.bytes,
		PeakBytes: c.peakBytes,
		Resident:  int64(len(c.idx)),
		Hits:      c.hits,
		Loads:     c.loads,
		Shared:    c.shared,
		Evictions: c.evictions,
		Rejected:  c.rejected,
	}
	for el := c.ll.Front(); el != nil; el = el.Next() {
		if el.Value.(*cacheEntry).pins > 0 {
			s.Pinned++
		}
	}
	return s
}

// removeLocked unlinks el and returns its bytes to the budget.
func (c *SharedCache) removeLocked(el *list.Element) {
	ent := c.ll.Remove(el).(*cacheEntry)
	delete(c.idx, ent.key)
	c.bytes -= ent.bytes
}

// pinLocked promotes el to most recently used, pins it, and returns the
// one-shot unpin: releasing twice is a no-op. A pinned entry is never
// evicted, so el is still linked when the release runs; the final
// unpin of a retired entry removes it.
func (c *SharedCache) pinLocked(el *list.Element) func() {
	ent := el.Value.(*cacheEntry)
	c.ll.MoveToFront(el)
	ent.pins++
	var once sync.Once
	return func() {
		once.Do(func() {
			c.mu.Lock()
			ent.pins--
			if ent.retired && ent.pins == 0 {
				c.removeLocked(el)
			}
			c.mu.Unlock()
		})
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

// get returns shard k pinned and promoted, plus its release; the
// caller must invoke release when done with the shard.
func (c *SharedCache) get(k cacheKey) (*resident, func(), bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.idx[k]
	if !ok {
		return nil, nil, false
	}
	c.hits++
	return el.Value.(*cacheEntry).sh, c.pinLocked(el), true
}

// getAll is the inline sparse sweep's fetch. If every shard plan names
// of st is resident, and the budget's spare room could pay for the
// source index of each one that has none (at its least, minIndexBytes),
// it pins and promotes them in plan order, counting one hit each —
// exactly the gets a stager would issue — and returns them with the
// spare room left. Otherwise it touches nothing and reports false, and
// the sweep takes the window. Either way it takes one lock.
func (c *SharedCache) getAll(st *Store, plan []int) (shs []*resident, releases []func(), spare int64, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	spare = c.budget - c.bytes
	need := int64(0)
	for _, si := range plan {
		el, ok := c.idx[cacheKey{st, si}]
		if !ok {
			return nil, nil, 0, false
		}
		if sh := el.Value.(*cacheEntry).sh; sh.index.Load() == nil {
			if need += minIndexBytes(sh); need > spare {
				return nil, nil, 0, false
			}
		}
	}
	shs = make([]*resident, len(plan))
	releases = make([]func(), len(plan))
	for i, si := range plan {
		el := c.idx[cacheKey{st, si}]
		c.hits++
		shs[i], releases[i] = el.Value.(*cacheEntry).sh, c.pinLocked(el)
	}
	return shs, releases, spare, true
}

// attachIndex hangs ix on shard k's resident sh and charges its bytes
// to the entry, if the entry still holds sh, is not retired, and the
// budget's spare room covers ix without evicting anything. It returns
// the index sh carries afterwards: ix; the one a racing session
// attached first (ix is dropped); or nil when the attach was refused
// (or ix is nil). Eviction and drop return the bytes with the entry.
func (c *SharedCache) attachIndex(k cacheKey, sh *resident, ix *sourceIndex) *sourceIndex {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur := sh.index.Load(); cur != nil || ix == nil {
		return cur
	}
	el, ok := c.idx[k]
	if !ok {
		return nil
	}
	ent := el.Value.(*cacheEntry)
	if ent.sh != sh || ent.retired || c.bytes+ix.bytes() > c.budget {
		return nil
	}
	ent.bytes += ix.bytes()
	c.bytes += ix.bytes()
	c.peakBytes = max(c.peakBytes, c.bytes)
	sh.index.Store(ix)
	return ix
}

// add admits a freshly loaded shard under k, pinned, evicting cold
// unpinned entries to make room, and returns the canonical shard to
// apply and its release. If another holder raced the insert, the
// existing entry is adopted (promoted and pinned) and sh is dropped.
// If the bytes cannot fit after evicting everything evictable — every
// other entry is pinned, or sh alone exceeds the budget — the insert is
// refused: admitted is false, the release is a no-op, and the caller
// applies sh uncached. The budget is therefore never exceeded, not even
// transiently. The shard is reaching residency, so the resolved
// single-flight record load retained for the gap between read
// completion and this insertion is retired.
func (c *SharedCache) add(k cacheKey, sh *resident) (canon *resident, release func(), admitted bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.retireLoadLocked(k)
	if el, ok := c.idx[k]; ok {
		return el.Value.(*cacheEntry).sh, c.pinLocked(el), true
	}
	bytes := residentBytes(sh)
	for c.bytes+bytes > c.budget {
		victim := c.ll.Back()
		for victim != nil && victim.Value.(*cacheEntry).pins > 0 {
			victim = victim.Prev()
		}
		if victim == nil {
			c.rejected++
			return sh, func() {}, false
		}
		c.removeLocked(victim)
		c.evictions++
	}
	el := c.ll.PushFront(&cacheEntry{key: k, sh: sh, bytes: bytes})
	c.idx[k] = el
	c.bytes += bytes
	c.peakBytes = max(c.peakBytes, c.bytes)
	return sh, c.pinLocked(el), true
}

// load is the single-flight read path: if shard k is resident or
// another session's read for it is in flight, the caller shares that
// result (shared = true, no disk touched); otherwise the caller is
// elected loader, runs read, and publishes the outcome to any waiters.
// A waiter inherits the loader's error — read failures are properties
// of the store, not the session.
func (c *SharedCache) load(k cacheKey, read func() (*resident, error)) (sh *resident, shared bool, err error) {
	c.mu.Lock()
	if el, ok := c.idx[k]; ok {
		c.ll.MoveToFront(el)
		c.shared++
		c.mu.Unlock()
		return el.Value.(*cacheEntry).sh, true, nil
	}
	if w, ok := c.inflight[k]; ok {
		c.mu.Unlock()
		<-w.done
		if w.err != nil {
			return nil, true, w.err
		}
		c.mu.Lock()
		c.shared++
		c.mu.Unlock()
		return w.sh, true, nil
	}
	w := &sharedLoad{done: make(chan struct{})}
	c.inflight[k] = w
	c.mu.Unlock()

	sh, err = read()
	w.sh, w.err = sh, err

	c.mu.Lock()
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
	c.mu.Unlock()
	close(w.done)
	return sh, false, err
}

// dropStore retires every resident shard of st — the close-store path.
// Unpinned shards leave immediately; shards still pinned by in-flight
// queries leave at their final unpin, so the store's residents drain
// instead of aging in an LRU nothing will hit again. Either way each
// counts as one eviction, here.
func (c *SharedCache) dropStore(st *Store) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k := range c.inflight {
		if k.st == st {
			c.retireLoadLocked(k)
		}
	}
	var next *list.Element
	for el := c.ll.Front(); el != nil; el = next {
		next = el.Next()
		ent := el.Value.(*cacheEntry)
		if ent.key.st != st {
			continue
		}
		c.evictions++
		if ent.pins == 0 {
			c.removeLocked(el)
		} else {
			ent.retired = true
		}
	}
}
