package shard

// The residency core. The paper's claim is that partitioning by
// destination turns a sweep's working set into a bounded thing; in this
// package that bounded thing is the decoded shards the SharedCache
// holds, and this is its structure: a byte-budgeted LRU with pins.
// Three invariants hold at every observation point, not just at
// quiescence:
//
//   - a pinned entry (pins > 0) is never evicted,
//   - with a budget set, resident bytes never exceed it, and
//   - an insert that cannot fit after evicting every cold unpinned entry
//     is refused, never blocked on: the caller still uses its value
//     (transient, counted under rejected), so the budget is a hard bound
//     rather than a high-water mark and no two holders can deadlock
//     against each other however small it is.
//
// The SharedCache adds what is specific to shards — the single-flight
// table — and guards that side state with the core's mutex, calling the
// *Locked methods where the two must change together.

import (
	"container/list"
	"math"
	"sync"
)

// resEntry is one resident value plus its refcount. pins counts the
// holders between fetch and release; eviction skips any entry with
// pins > 0. A retired entry (see drop) leaves at its final unpin.
type resEntry[K comparable, V any] struct {
	key     K
	val     V
	bytes   int64
	pins    int
	retired bool
}

// residencyStats is a point-in-time snapshot of the core's counters.
type residencyStats struct {
	Budget, Bytes, PeakBytes, Resident, Pinned, Hits, Evictions, Rejected int64
}

// residency is the byte-budgeted, refcounted LRU. budget 0 disables
// eviction and refusal entirely. All non-Locked methods are safe for
// concurrent use.
type residency[K comparable, V any] struct {
	budget int64

	mu    sync.Mutex
	ll    *list.List // front = most recently used; values are *resEntry[K, V]
	idx   map[K]*list.Element
	bytes int64

	peakBytes, hits, evictions, rejected int64
}

func newResidency[K comparable, V any](budget int64) *residency[K, V] {
	return &residency[K, V]{budget: budget, ll: list.New(), idx: make(map[K]*list.Element)}
}

// statsLocked returns a consistent snapshot of the counters.
func (r *residency[K, V]) statsLocked() residencyStats {
	s := residencyStats{
		Budget:    r.budget,
		Bytes:     r.bytes,
		PeakBytes: r.peakBytes,
		Resident:  int64(r.ll.Len()),
		Hits:      r.hits,
		Evictions: r.evictions,
		Rejected:  r.rejected,
	}
	for el := r.ll.Front(); el != nil; el = el.Next() {
		if el.Value.(*resEntry[K, V]).pins > 0 {
			s.Pinned++
		}
	}
	return s
}

// removeLocked unlinks el and returns its bytes to the budget.
func (r *residency[K, V]) removeLocked(el *list.Element) {
	ent := r.ll.Remove(el).(*resEntry[K, V])
	delete(r.idx, ent.key)
	r.bytes -= ent.bytes
}

// pinLocked promotes el to most recently used, pins it, and returns the
// one-shot unpin: releasing twice is a no-op. A pinned entry is never
// evicted, so ent is still linked when the release runs; the final
// unpin of a retired entry removes it.
func (r *residency[K, V]) pinLocked(el *list.Element) func() {
	ent := el.Value.(*resEntry[K, V])
	r.ll.MoveToFront(el)
	ent.pins++
	var once sync.Once
	return func() {
		once.Do(func() {
			r.mu.Lock()
			ent.pins--
			if ent.retired && ent.pins == 0 {
				r.removeLocked(el)
			}
			r.mu.Unlock()
		})
	}
}

// get returns key's value pinned and promoted, plus its release; the
// caller must invoke release when done with the value.
func (r *residency[K, V]) get(k K) (v V, release func(), ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.getLocked(k)
}

func (r *residency[K, V]) getLocked(k K) (v V, release func(), ok bool) {
	el, ok := r.idx[k]
	if !ok {
		return v, nil, false
	}
	r.hits++
	return el.Value.(*resEntry[K, V]).val, r.pinLocked(el), true
}

// touchLocked returns key's value promoted but not pinned — for a
// caller that shares the value without holding it against eviction.
func (r *residency[K, V]) touchLocked(k K) (v V, ok bool) {
	el, ok := r.idx[k]
	if !ok {
		return v, false
	}
	r.ll.MoveToFront(el)
	return el.Value.(*resEntry[K, V]).val, true
}

// peek reports whether key is resident without promoting or pinning it.
func (r *residency[K, V]) peek(k K) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.idx[k]
	return ok
}

// addLocked admits v under key, pinned, evicting cold unpinned entries
// to make room, and returns the canonical value to use and its release.
// If another holder raced the insert, the existing entry is adopted
// (promoted and pinned) and v is dropped. If the bytes cannot fit after
// evicting everything evictable — every other entry is pinned, or v
// alone exceeds the budget — the insert is refused: admitted is false,
// the release is a no-op, and the caller uses v uncached. The budget is
// therefore never exceeded, not even transiently.
func (r *residency[K, V]) addLocked(k K, v V, bytes int64) (canon V, release func(), admitted bool) {
	if el, ok := r.idx[k]; ok {
		return el.Value.(*resEntry[K, V]).val, r.pinLocked(el), true
	}
	for r.budget > 0 && r.bytes+bytes > r.budget {
		victim := r.ll.Back()
		for victim != nil && victim.Value.(*resEntry[K, V]).pins > 0 {
			victim = victim.Prev()
		}
		if victim == nil {
			r.rejected++
			return v, func() {}, false
		}
		r.removeLocked(victim)
		r.evictions++
	}
	el := r.ll.PushFront(&resEntry[K, V]{key: k, val: v, bytes: bytes})
	r.idx[k] = el
	r.bytes += bytes
	if r.bytes > r.peakBytes {
		r.peakBytes = r.bytes
	}
	return v, r.pinLocked(el), true
}

// growLocked charges extra bytes to el's entry — a cost attached to a
// value already resident — if the entry is not retired and the
// budget's spare room covers the bytes without evicting anything. It
// reports whether it did; eviction and drop return the bytes with the
// entry.
func (r *residency[K, V]) growLocked(el *list.Element, bytes int64) bool {
	ent := el.Value.(*resEntry[K, V])
	if ent.retired || r.budget > 0 && r.bytes+bytes > r.budget {
		return false
	}
	ent.bytes += bytes
	r.bytes += bytes
	if r.bytes > r.peakBytes {
		r.peakBytes = r.bytes
	}
	return true
}

// spareLocked is the room left under the budget: what an insert or a
// growth could take without evicting anything.
func (r *residency[K, V]) spareLocked() int64 {
	if r.budget <= 0 {
		return math.MaxInt64
	}
	return r.budget - r.bytes
}

// dropLocked retires every entry whose key match accepts: unpinned ones
// leave immediately, pinned ones at their final unpin — so a dropped
// namespace drains to zero bytes instead of aging in an LRU nothing
// will hit again. It returns how many it retired; whether those count
// as evictions is the wrapper's call.
func (r *residency[K, V]) dropLocked(match func(K) bool) (dropped int64) {
	var next *list.Element
	for el := r.ll.Front(); el != nil; el = next {
		next = el.Next()
		ent := el.Value.(*resEntry[K, V])
		if !match(ent.key) {
			continue
		}
		dropped++
		if ent.pins == 0 {
			r.removeLocked(el)
		} else {
			ent.retired = true
		}
	}
	return dropped
}
