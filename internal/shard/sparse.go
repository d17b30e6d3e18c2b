package shard

// The resident sparse sweep: the sparse leg of the paper's layout rule
// (Algorithm 2 sends a sparse frontier through a forward CSR walk that
// costs O(active edges)) run over resident shards. When every shard a
// sparse plan names is already a cache hit, EdgeMap applies the plan
// inline on the caller's goroutine — no window, no stager, no worker —
// and each shard visits only the edges of the active sources the
// planner bucketed to it, found through the shard's source index.

import (
	"math"
	"math/bits"
	"slices"

	"repro/internal/api"
	"repro/internal/frontier"
	"repro/internal/graph"
)

// sourceIndex is a shard's CSR by source over edge positions: the
// shard's distinct sources ascending, and for srcs[j] the positions
// pos[off[j]:off[j+1]] of its edges in the resident's arrays,
// ascending. It addresses positions, not a layout, so it serves any
// resident whatever format or delta merge produced it.
type sourceIndex struct {
	srcs []graph.VID
	off  []uint32
	pos  []uint32
}

// bytes is what the index costs the cache budget; 0 for no index.
func (x *sourceIndex) bytes() int64 {
	if x == nil {
		return 0
	}
	return 4 * int64(len(x.srcs)+len(x.off)+len(x.pos))
}

// minIndexBytes is the least an index over sh could cost (every edge
// from one source), so a sweep with less spare room skips the build.
func minIndexBytes(sh *resident) int64 { return 4*int64(len(sh.src)) + 12 }

// newSourceIndex builds the source index of a (dst,src)-sorted edge
// array, or returns nil when its positions do not fit in uint32.
func newSourceIndex(src []graph.VID) *sourceIndex {
	if len(src) > math.MaxUint32 {
		return nil
	}
	// Sorting (source, position) keys leaves each source's positions
	// ascending, which is each destination's file order.
	keys := make([]uint64, len(src))
	for p, u := range src {
		keys[p] = uint64(u)<<32 | uint64(p)
	}
	slices.Sort(keys)
	distinct := 0
	for i, k := range keys {
		if i == 0 || k>>32 != keys[i-1]>>32 {
			distinct++
		}
	}
	x := &sourceIndex{
		srcs: make([]graph.VID, 0, distinct),
		off:  make([]uint32, 0, distinct+1),
		pos:  make([]uint32, len(keys)),
	}
	for i, k := range keys {
		if i == 0 || k>>32 != keys[i-1]>>32 {
			x.srcs = append(x.srcs, graph.VID(k>>32))
			x.off = append(x.off, uint32(i))
		}
		x.pos[i] = uint32(k)
	}
	x.off = append(x.off, uint32(len(keys)))
	return x
}

// planSparse computes the exact set of shards holding at least one edge
// from an active source by reading only the active vertices'
// feeds-masks in the store's Meta — O(|F| + Σ planned buckets) work,
// no out-list read, and the same set the sources' out-edges land in.
// Shards outside the set are never fetched. It also buckets each
// active source, once, into every planned shard it feeds (e.buckets),
// in ascending order, which is what the inline sweep looks up.
func (e *Engine) planSparse(f *frontier.Frontier) []int {
	if e.buckets == nil {
		e.buckets = make([][]graph.VID, e.st.NumShards())
	}
	b := e.buckets
	for i := range b {
		b[i] = b[i][:0]
	}
	active := f.List()
	if !slices.IsSorted(active) {
		active = slices.Clone(active)
		slices.Sort(active)
	}
	words, feeds := e.meta.words, e.meta.feeds
	for _, u := range active {
		for w, mask := range feeds[int(u)*words : int(u+1)*words] {
			for ; mask != 0; mask &= mask - 1 {
				s := 64*w + bits.TrailingZeros64(mask)
				b[s] = append(b[s], u)
			}
		}
	}
	plan := make([]int, 0, len(b))
	for i := range b {
		if len(b[i]) > 0 {
			plan = append(plan, i)
		}
	}
	return plan
}

// sweepInline is the resident sparse sweep over plan, whose shards shs
// the cache has pinned (releases, in plan order) with spare bytes of
// room left. It runs on the caller's goroutine and applies the plan in
// order. A shard with a source index — one already attached, or one
// built now and attached if the spare room pays for it — visits only
// its bucketed sources' edges, in ascending source order, so each
// destination sees its in-edges in file order and the result is
// bit-identical to the window's. A shard without one is applied by
// scan over the pool (applyShard), as the window would. The next
// frontier is an ascending list with its statistics; the session's
// scratch bitmap that deduplicates it is handed back with only the set
// bits cleared. Every pin is released on every exit path, and a
// panicking operator leaves the scratch bitmap to be rebuilt.
func (e *Engine) sweepInline(f *frontier.Frontier, op api.EdgeOp, plan []int, shs []*resident, releases []func(), spare int64) *frontier.Frontier {
	n := e.g.NumVertices()
	if e.seen == nil {
		e.seen = frontier.NewBitmap(n)
	}
	seen := e.seen.Words()
	released, clean := 0, false
	defer func() {
		for _, release := range releases[released:] {
			release()
		}
		if !clean {
			e.seen = nil
		}
	}()

	cond, update, g := op.CondOf(), op.Update, e.g
	var out []graph.VID
	var outDeg int64
	var k *sweepKernel // the scan path's kernel, built on first use
	for i, sh := range shs {
		si := plan[i]
		ix := sh.index.Load()
		if ix == nil && spare >= minIndexBytes(sh) {
			if ix = e.cache.attachIndex(cacheKey{e.st, si}, sh, newSourceIndex(sh.src)); ix != nil {
				spare -= ix.bytes()
			}
		}
		if e.onInline != nil {
			e.onInline(si, ix != nil)
		}
		start := len(out)
		if ix != nil {
			j := 0
			for _, u := range e.buckets[si] {
				d, found := slices.BinarySearch(ix.srcs[j:], u)
				if j += d; !found {
					continue
				}
				for _, p := range ix.pos[ix.off[j]:ix.off[j+1]] {
					v := sh.dst[p]
					if w, bit := v>>6, uint64(1)<<(v&63); cond(v) && update(u, v) && seen[w]&bit == 0 {
						seen[w] |= bit
						out = append(out, v)
						outDeg += g.OutDegree(v)
					}
				}
				j++
			}
			slices.Sort(out[start:])
			for _, v := range out[start:] {
				seen[v>>6] &^= 1 << (v & 63)
			}
		} else {
			if k == nil {
				k = &sweepKernel{
					e: e, cur: f.Bitmap(), cond: cond, op: op, next: e.seen,
					accs: make([]api.Accum, e.pool.Threads()),
				}
			}
			e.applyShard(sh, k)
			// The shard's destination range is 64-aligned and written by
			// this shard alone: drain its words in ascending order.
			lo, hi := e.st.Range(si)
			for w := int(lo) / 64; w < (int(hi)+63)/64; w++ {
				for word := seen[w]; word != 0; word &= word - 1 {
					v := graph.VID(w*64 + bits.TrailingZeros64(word))
					out = append(out, v)
					outDeg += g.OutDegree(v)
				}
				seen[w] = 0
			}
		}
		releases[i]()
		released = i + 1
	}
	clean = true
	nf := frontier.FromList(n, out)
	nf.SetStats(int64(len(out)), outDeg)
	return nf
}
