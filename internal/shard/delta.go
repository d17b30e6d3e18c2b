package shard

// The log-structured delta layer: a Store is no longer write-once.
// ApplyBatch appends one v2-encoded delta shard per affected base
// shard — (dst,src)-sorted inserts plus edge tombstones for deletes —
// and swaps in a new manifest generation with the usual
// temp+fsync+rename discipline, so a crash at any point leaves the
// previous generation intact and openable. Reads merge base plus
// deltas as linear zips of sorted streams (mergeDeltas), preserving
// the per-destination ascending-source order every engine path
// assumes: a mutated store is per-destination identical to a
// from-scratch rebuild of the same edge multiset, so every thread
// count and co-pass path works unchanged over it. Compact (compact.go)
// folds the deltas back into generation-suffixed base files.
//
// Files of superseded generations are never overwritten or deleted,
// so a Store value opened before a swap — a session pinning its
// generation — keeps reading exactly the files its manifest names.
// The flip side: a Store value must not serve reads concurrently with
// ApplyBatch/Compact on the *same* value; mutators that also serve
// (internal/serve) reopen the directory per mutation and swap hosts,
// and Engine.EdgeMap panics on a generation mismatch rather than
// silently mixing an old in-memory view with new on-disk content.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"repro/internal/graph"
)

// deltaRef is the manifest record of one pending delta shard file.
type deltaRef struct {
	File string `json:"file"`
	Gen  int64  `json:"gen"`
	Ins  int64  `json:"ins"`
	Del  int64  `json:"del"`
}

// deltaMagic opens every delta shard file; base files start with
// shardMagicV2 (or a raw v1 count), so the layouts cannot be confused
// without the mismatch surfacing structurally.
var deltaMagic = [4]byte{'G', 'G', 'D', '2'}

// maxDeltaEdges bounds a delta file's declared insert or tombstone
// count: past it the minimum-size arithmetic in readDeltaFile could
// overflow int64 (each edge costs at least two stream bytes).
const maxDeltaEdges = (1<<63 - 1 - 4 - 2*binary.MaxVarintLen64) / 4

// BatchError reports a batch edge referencing a vertex outside the
// store — the typed rejection ApplyBatch returns and the serve layer
// maps to 400. The partition geometry is fixed at Create time, so
// growing |V| means rebuilding the store, not batching.
type BatchError struct {
	Op    string // "insert" or "delete"
	Index int    // index within the offending batch slice
	Field string // "source" or "destination"
	VID   graph.VID
	Hi    graph.VID // exclusive bound (the store's vertex count)
}

func (e *BatchError) Error() string {
	return fmt.Sprintf("shard: batch %s %d: %s %d outside [0,%d)", e.Op, e.Index, e.Field, e.VID, e.Hi)
}

// BatchResult reports one applied batch.
type BatchResult struct {
	// Generation is the manifest generation the batch created.
	Generation int64
	// Dirty lists (ascending) the shards whose sweep inputs changed:
	// content-changed shards plus shards fed by a source whose
	// out-degree changed, per the source-range summaries — exactly
	// what DirtyShards(pre-batch generation) reports afterwards.
	Dirty []int
	// Inserted counts the batch's insert edges; Deleted counts the
	// live copies its tombstones actually removed (an edge inserted
	// and deleted by the same batch contributes to both).
	Inserted, Deleted int64
}

// Generation returns the store's manifest generation — 0 for a fresh
// or legacy store, bumped once by every ApplyBatch and Compact.
func (s *Store) Generation() int64 { return s.m.Generation }

// PendingDeltas returns the number of delta files awaiting compaction.
func (s *Store) PendingDeltas() int {
	n := 0
	for _, refs := range s.m.Deltas {
		n += len(refs)
	}
	return n
}

// DirtyShards returns, ascending, the shards whose sweep inputs
// changed after generation since: their edge content, or the
// out-degree of a source feeding them. It is the seed for incremental
// re-convergence (Engine.IncrementalPR / IncrementalCC) — converge on
// generation G, mutate, then re-converge seeded with DirtyShards(G).
func (s *Store) DirtyShards(since int64) []int {
	var out []int
	for i, g := range s.m.DirtyGen {
		if g > since {
			out = append(out, i)
		}
	}
	return out
}

// ApplyBatch applies one batch of edge insertions and deletions: the
// store's new edge multiset is (old ⊎ ins) \ del, where every delete
// tombstone removes *all* copies of its (src,dst) pair — including
// copies inserted by the same batch, so an insert-then-delete within
// one batch nets to absent. Edges may reference only existing
// vertices; violations return *BatchError. An empty batch is a no-op
// and does not bump the generation.
//
// Durability: one delta file per affected shard and the generation's
// Meta file are written first (temp+fsync+rename), the manifest swap
// commits last — a crash at any point leaves the previous generation. On return the receiver
// serves the new generation; engines built over the store earlier
// keep their old in-memory view and must be rebuilt (EdgeMap panics
// on the generation mismatch). ApplyBatch must not run concurrently
// with reads through the same Store value — reopen the directory per
// mutation when serving (internal/serve does).
func (s *Store) ApplyBatch(ins, del []graph.Edge) (*BatchResult, error) {
	if len(ins) == 0 && len(del) == 0 {
		return &BatchResult{Generation: s.m.Generation}, nil
	}
	n := graph.VID(s.m.Vertices)
	if err := checkBatch("insert", ins, n); err != nil {
		return nil, err
	}
	if err := checkBatch("delete", del, n); err != nil {
		return nil, err
	}
	// The dirty propagation below intersects against the pre-batch
	// summaries. The per-vertex Meta is edited exactly, as a copy, from
	// the per-shard decode below; the new summaries are transposed from
	// the edited copy.
	if _, err := s.SourceSummary(); err != nil {
		return nil, err
	}
	meta, err := s.Meta()
	if err != nil {
		return nil, err
	}
	ed := newMetaEdit(meta)

	// Group both sides by the destination's home shard, (dst,src)-
	// sorted — the delta file order and the order the linear merge
	// consumes. Tombstones are deduplicated: one removes all copies,
	// so repeats are redundant (and would break the zip's invariants).
	p := s.m.Shards
	insBy := groupByHome(s, ins, false)
	delBy := groupByHome(s, del, true)

	gen := s.m.Generation + 1
	newM := s.m.clone()
	if newM.BaseEdgeCounts == nil {
		// EdgeCounts diverges from the base files' counts from here on;
		// materialize the file-level counts first.
		newM.BaseEdgeCounts = append([]int64(nil), s.m.EdgeCounts...)
	}
	if newM.Deltas == nil {
		newM.Deltas = make([][]deltaRef, p)
	}
	if newM.DirtyGen == nil {
		newM.DirtyGen = make([]int64, p)
	}

	res := &BatchResult{Generation: gen}
	// Home ranges of sources whose out-degree may have changed — any
	// source named by the batch (deleting a missing edge over-marks;
	// that is only conservative).
	touched := make([]uint64, summaryWords(p))
	mark := func(es []graph.Edge) {
		for _, e := range es {
			j := s.Home(e.Src)
			touched[j/64] |= 1 << (j % 64)
		}
	}
	mark(ins)
	mark(del)

	contentDirty := make([]bool, p)
	for si := 0; si < p; si++ {
		bIns, bDel := insBy[si], delBy[si]
		if len(bIns.src) == 0 && len(bDel.src) == 0 {
			continue
		}
		cur, _, err := s.loadShard(si)
		if err != nil {
			return nil, err
		}
		name := deltaFileName(si, gen)
		if err := writeDeltaFile(filepath.Join(s.dir, name), bIns, bDel); err != nil {
			return nil, err
		}
		refs := append([]deltaRef(nil), newM.Deltas[si]...)
		newM.Deltas[si] = append(refs, deltaRef{
			File: name, Gen: gen, Ins: int64(len(bIns.src)), Del: int64(len(bDel.src)),
		})
		// Learn the exact new live count and Meta edit — what
		// loadShard's zip will reproduce — without materialising the
		// merge: the tombstones filter the sorted base and the sorted
		// inserts alike, in place (cur is this call's own decode, and
		// the inserts are already on disk), counted before they go.
		before := int64(len(cur.Src) + len(bIns.src))
		lost := ed.remove(cur.Src, cur.Dst, bDel)
		liveBase, _ := removeAllPairs(cur.Src, cur.Dst, bDel.src, bDel.dst)
		liveIns, liveInsDst := removeAllPairs(bIns.src, bIns.dst, bDel.src, bDel.dst)
		ed.insert(si, liveIns, liveInsDst)
		ed.dropLostFeeds(si, lost, liveBase, liveIns)
		live := int64(len(liveBase) + len(liveIns))
		res.Inserted += int64(len(bIns.src))
		res.Deleted += before - live
		newM.Edges += live - newM.EdgeCounts[si]
		newM.EdgeCounts[si] = live
		contentDirty[si] = true
	}

	// A shard is dirty if its content changed, or if it holds any edge
	// from a touched source range — the out-degree of such a source
	// changes the weight of every edge it feeds anywhere. The pre-batch
	// summaries are the right side to intersect: untouched shards'
	// summaries did not change, and content-changed shards are dirty
	// regardless.
	for j := 0; j < p; j++ {
		dirty := contentDirty[j]
		for w := 0; !dirty && w < len(touched); w++ {
			dirty = s.m.SrcSummary[j][w]&touched[w] != 0
		}
		if dirty {
			newM.DirtyGen[j] = gen
			res.Dirty = append(res.Dirty, j)
		}
	}

	newM.Generation = gen
	newM.Meta = metaFileName(gen)
	newMeta := ed.finish()
	newM.SrcSummary = newMeta.sourceSummaries(s.m.Bounds)
	if err := writeMetaFile(s.dir, newM.Meta, newMeta, p); err != nil {
		return nil, err
	}
	if err := writeManifest(s.dir, newM); err != nil {
		return nil, err
	}
	s.m, s.meta = newM, newMeta
	return res, nil
}

// metaEdit is one batch's exact edit of a Meta, made on copies so the
// previous generation's Meta stays intact: degree deltas per vertex,
// and the feeds-masks with bits set for live inserts and cleared where
// the batch deleted a source's last edge into a shard.
type metaEdit struct {
	base    *Meta
	feeds   []uint64
	out, in map[graph.VID]int64
	cand    []uint64 // scratch bitmap over V for dropLostFeeds, all clear between calls
}

func newMetaEdit(base *Meta) *metaEdit {
	return &metaEdit{
		base:  base,
		feeds: slices.Clone(base.feeds),
		out:   make(map[graph.VID]int64),
		in:    make(map[graph.VID]int64),
	}
}

// remove subtracts, from the degrees, the live copies in one shard's
// (dst,src)-sorted edges that the shard's sorted, deduplicated
// tombstones delete, before the edges are filtered. It returns the
// sources that lost an edge there.
func (ed *metaEdit) remove(aS, aD []graph.VID, del pairList) (lost []graph.VID) {
	i := 0
	for j, u := range del.src {
		v := del.dst[j]
		p := seekPair(aS, aD, i, v, u)
		for i = p; i < len(aS) && aD[i] == v && aS[i] == u; i++ {
		}
		if c := int64(i - p); c > 0 {
			ed.out[u] -= c
			ed.in[v] -= c
			lost = append(lost, u)
		}
	}
	return lost
}

// insert adds shard si's surviving inserts to the degrees and sets si
// in their sources' masks.
func (ed *metaEdit) insert(si int, src, dst []graph.VID) {
	w, bit := si/64, uint64(1)<<(si%64)
	for k, u := range src {
		ed.out[u]++
		ed.in[dst[k]]++
		ed.feeds[int(u)*ed.base.words+w] |= bit
	}
}

// dropLostFeeds clears si from the mask of every lost source that no
// longer has a live edge into shard si, which it finds with one pass
// over the shard's live sources that stops once every candidate is
// accounted for.
func (ed *metaEdit) dropLostFeeds(si int, lost []graph.VID, live ...[]graph.VID) {
	if len(lost) == 0 {
		return
	}
	if ed.cand == nil {
		ed.cand = make([]uint64, (ed.base.NumVertices()+63)/64)
	}
	cand, left := ed.cand, 0
	for _, u := range lost {
		if w, b := u>>6, uint64(1)<<(u&63); cand[w]&b == 0 {
			cand[w] |= b
			left++
		}
	}
	for _, srcs := range live {
		for k := 0; k < len(srcs) && left > 0; k++ {
			if u := srcs[k]; cand[u>>6]&(1<<(u&63)) != 0 {
				cand[u>>6] &^= 1 << (u & 63)
				left--
			}
		}
	}
	w, bit := si/64, uint64(1)<<(si%64)
	for _, u := range lost {
		if cand[u>>6]&(1<<(u&63)) != 0 {
			cand[u>>6] &^= 1 << (u & 63)
			ed.feeds[int(u)*ed.base.words+w] &^= bit
		}
	}
}

// finish returns the edited Meta.
func (ed *metaEdit) finish() *Meta {
	return &Meta{
		words:  ed.base.words,
		outOff: shiftOffsets(ed.base.outOff, ed.out),
		inOff:  shiftOffsets(ed.base.inOff, ed.in),
		feeds:  ed.feeds,
	}
}

// shiftOffsets returns the prefix sums off with each vertex v's degree
// moved by delta[v], in one pass; off itself when nothing moved.
func shiftOffsets(off []int64, delta map[graph.VID]int64) []int64 {
	if len(delta) == 0 {
		return off
	}
	vs := make([]graph.VID, 0, len(delta))
	for v := range delta {
		vs = append(vs, v)
	}
	slices.Sort(vs)
	out := make([]int64, len(off))
	var shift int64
	from := 0
	for _, v := range vs {
		// Offsets up to v's start carry the shift so far; v's own
		// delta moves every offset after it.
		for i := from; i <= int(v); i++ {
			out[i] = off[i] + shift
		}
		shift += delta[v]
		from = int(v) + 1
	}
	for i := from; i < len(off); i++ {
		out[i] = off[i] + shift
	}
	return out
}

// checkBatch validates one side of a batch against the vertex count.
func checkBatch(op string, es []graph.Edge, n graph.VID) error {
	for i, e := range es {
		if e.Src >= n {
			return &BatchError{Op: op, Index: i, Field: "source", VID: e.Src, Hi: n}
		}
		if e.Dst >= n {
			return &BatchError{Op: op, Index: i, Field: "destination", VID: e.Dst, Hi: n}
		}
	}
	return nil
}

// pairList is one shard's half of a batch as parallel (dst,src)-sorted
// arrays — the shape the encoder and the linear merges consume.
type pairList struct {
	src, dst []graph.VID
}

// groupByHome splits a validated batch by the destination's home
// shard, sorting each group by (dst,src); dedup additionally collapses
// equal pairs (tombstones).
func groupByHome(s *Store, es []graph.Edge, dedup bool) map[int]pairList {
	out := make(map[int]pairList)
	for _, e := range es {
		si := s.Home(e.Dst)
		pl := out[si]
		pl.src = append(pl.src, e.Src)
		pl.dst = append(pl.dst, e.Dst)
		out[si] = pl
	}
	for si, pl := range out {
		sort.Sort(&dstSrcOrder{src: pl.src, dst: pl.dst})
		if dedup {
			k := 0
			for i := range pl.src {
				if i > 0 && pl.src[i] == pl.src[i-1] && pl.dst[i] == pl.dst[i-1] {
					continue
				}
				pl.src[k], pl.dst[k] = pl.src[i], pl.dst[i]
				k++
			}
			pl.src, pl.dst = pl.src[:k], pl.dst[:k]
		}
		out[si] = pl
	}
	return out
}

// clone deep-copies the manifest far enough that the per-shard rows
// ApplyBatch/Compact replace never alias the old generation's view
// (row slices are replaced wholesale, so copying the spines suffices).
func (m manifest) clone() manifest {
	m.Bounds = append([]graph.VID(nil), m.Bounds...)
	m.EdgeCounts = append([]int64(nil), m.EdgeCounts...)
	if m.SrcSummary != nil {
		m.SrcSummary = append([][]uint64(nil), m.SrcSummary...)
	}
	if m.BaseFiles != nil {
		m.BaseFiles = append([]string(nil), m.BaseFiles...)
	}
	if m.BaseEdgeCounts != nil {
		m.BaseEdgeCounts = append([]int64(nil), m.BaseEdgeCounts...)
	}
	if m.Deltas != nil {
		m.Deltas = append([][]deltaRef(nil), m.Deltas...)
	}
	if m.DirtyGen != nil {
		m.DirtyGen = append([]int64(nil), m.DirtyGen...)
	}
	return m
}

func deltaFileName(si int, gen int64) string {
	return fmt.Sprintf("delta-%04d-g%06d.bin", si, gen)
}

// writeDeltaFile encodes one delta shard — magic, uvarint insert and
// tombstone counts, then the two v2-encoded streams — atomically, like
// base shard files.
func writeDeltaFile(path string, ins, del pairList) error {
	return writeFileAtomic(path, func(f *os.File) error {
		w := bufio.NewWriter(f)
		if _, err := w.Write(deltaMagic[:]); err != nil {
			return err
		}
		if err := putUvarint(w, uint64(len(ins.src))); err != nil {
			return err
		}
		if err := putUvarint(w, uint64(len(del.src))); err != nil {
			return err
		}
		if err := encodeV2Stream(w, ins.src, ins.dst); err != nil {
			return err
		}
		if err := encodeV2Stream(w, del.src, del.dst); err != nil {
			return err
		}
		return w.Flush()
	})
}

// readDeltaFile decodes one delta shard file with the base decoders'
// defensive posture: magic, declared counts against the manifest's
// ref, a minimum-size bound before any allocation, every ID validated
// in range, and no trailing bytes. Close errors fail the decode.
func readDeltaFile(path string, n int, lo, hi graph.VID, ref deltaRef) (ins, del pairList, size int64, err error) {
	size, err = readFileWith(path, func(f *os.File, size int64) error {
		br := bufio.NewReader(f)
		var magic [4]byte
		if _, err := io.ReadFull(br, magic[:]); err != nil {
			return fmt.Errorf("shard: %s: delta magic: %v", path, err)
		}
		if magic != deltaMagic {
			return fmt.Errorf("shard: %s: not a delta shard file (magic %q)", path, magic[:])
		}
		insCount, err := binary.ReadUvarint(br)
		if err != nil {
			return fmt.Errorf("shard: %s: insert count varint: %v", path, err)
		}
		delCount, err := binary.ReadUvarint(br)
		if err != nil {
			return fmt.Errorf("shard: %s: tombstone count varint: %v", path, err)
		}
		// Bound both counts before any arithmetic or allocation sized by
		// them (the v2 decoder's maxCount guard, doubled for two streams),
		// then hold them to the manifest's declaration.
		if insCount > maxDeltaEdges || delCount > maxDeltaEdges ||
			int64(insCount) != ref.Ins || int64(delCount) != ref.Del {
			return fmt.Errorf("shard: %s: declares %d inserts / %d tombstones, manifest says %d / %d",
				path, insCount, delCount, ref.Ins, ref.Del)
		}
		// Every edge costs at least two stream bytes; the trailing-bytes
		// check below makes the size agreement exact.
		minSize := 4 + uvarintLen(insCount) + uvarintLen(delCount) + 2*int64(insCount) + 2*int64(delCount)
		if size < minSize {
			return fmt.Errorf("shard: %s: file is %d bytes, need at least %d for %d+%d edges",
				path, size, minSize, insCount, delCount)
		}
		if ins.src, ins.dst, err = decodeV2Stream(br, path, n, lo, hi, int64(insCount)); err != nil {
			return err
		}
		if del.src, del.dst, err = decodeV2Stream(br, path, n, lo, hi, int64(delCount)); err != nil {
			return err
		}
		return expectEOF(br, path, int64(insCount+delCount))
	})
	if err != nil {
		return pairList{}, pairList{}, 0, err
	}
	return ins, del, size, nil
}

// mergeDeltas folds shard i's pending delta files into its decoded
// base COO, in the base's own arrays where it can: the base is
// (dst,src)-sorted by construction (readShardFile), so each
// generation's inserts are zipped in and its tombstones filtered out as
// block moves between the few positions a delta touches. The result's
// per-destination source order is ascending, exactly what a
// from-scratch rebuild of the merged multiset decodes to, which is why
// every engine path is bit-identical over a mutated store.
func (s *Store) mergeDeltas(i int, base *graph.COO, size int64) (*graph.COO, int64, error) {
	src, dst := base.Src, base.Dst
	lo, hi := s.m.Bounds[i], s.m.Bounds[i+1]
	for _, ref := range s.m.Deltas[i] {
		ins, del, n, err := readDeltaFile(filepath.Join(s.dir, ref.File), s.m.Vertices, lo, hi, ref)
		if err != nil {
			return nil, 0, err
		}
		size += n
		src, dst = mergeSortedPairs(src, dst, ins.src, ins.dst)
		src, dst = removeAllPairs(src, dst, del.src, del.dst)
	}
	if int64(len(src)) != s.m.EdgeCounts[i] {
		return nil, 0, fmt.Errorf("shard: %s: %d edges after merging %d deltas, manifest says %d",
			s.basePath(i), len(src), len(s.m.Deltas[i]), s.m.EdgeCounts[i])
	}
	return &graph.COO{N: base.N, Src: src, Dst: dst}, size, nil
}

// dstSrcOrder sorts parallel src/dst slices by (dst, src) — the order
// of every delta stream and every loaded shard. Equal pairs (parallel
// edges) are interchangeable, so the unstable sort is still
// deterministic in output.
type dstSrcOrder struct {
	src, dst []graph.VID
}

func (o *dstSrcOrder) Len() int { return len(o.src) }
func (o *dstSrcOrder) Less(i, j int) bool {
	return pairLess(o.dst[i], o.src[i], o.dst[j], o.src[j])
}
func (o *dstSrcOrder) Swap(i, j int) {
	o.src[i], o.src[j] = o.src[j], o.src[i]
	o.dst[i], o.dst[j] = o.dst[j], o.dst[i]
}

// pairLess orders (dst,src) pairs — the v2 on-disk order.
func pairLess(d1, s1, d2, s2 graph.VID) bool {
	if d1 != d2 {
		return d1 < d2
	}
	return s1 < s2
}

// seekPair returns the first index at or after from whose pair is not
// below (d,s) in a (dst,src)-sorted list. It gallops from from, so the
// cost is logarithmic in the distance moved: zipping a short sorted list
// against a long one costs O(short · log(long/short)), and two of
// similar length stay linear.
func seekPair(aS, aD []graph.VID, from int, d, s graph.VID) int {
	hi := from
	for step := 1; hi < len(aS) && pairLess(aD[hi], aS[hi], d, s); step *= 2 {
		from, hi = hi+1, hi+step
	}
	hi = min(hi, len(aS))
	return from + sort.Search(hi-from, func(k int) bool { return !pairLess(aD[from+k], aS[from+k], d, s) })
}

// mergeSortedPairs zips two (dst,src)-sorted edge lists into one,
// preserving duplicates from both sides (parallel edges are legal). a is
// moved in whole blocks between the positions b's pairs land on.
func mergeSortedPairs(aS, aD, bS, bD []graph.VID) ([]graph.VID, []graph.VID) {
	if len(bS) == 0 {
		return aS, aD
	}
	outS := make([]graph.VID, 0, len(aS)+len(bS))
	outD := make([]graph.VID, 0, len(aS)+len(bS))
	i := 0
	for j := range bS {
		p := seekPair(aS, aD, i, bD[j], bS[j])
		outS = append(append(outS, aS[i:p]...), bS[j])
		outD = append(append(outD, aD[i:p]...), bD[j])
		i = p
	}
	return append(outS, aS[i:]...), append(outD, aD[i:]...)
}

// removeAllPairs filters, in place, every copy of every (dst,src)
// pair named in the sorted, deduplicated tombstone list out of the
// sorted edge list. A tombstone matching nothing is a no-op (deleting a
// missing edge is legal); a run of parallel copies all falls to one
// tombstone. Survivors move down in whole blocks, and not at all before
// the first match.
func removeAllPairs(aS, aD, tS, tD []graph.VID) ([]graph.VID, []graph.VID) {
	k, i := 0, 0 // write and read cursors
	keep := func(end int) {
		if k != i {
			copy(aS[k:], aS[i:end])
			copy(aD[k:], aD[i:end])
		}
		k += end - i
	}
	for j := range tS {
		p := seekPair(aS, aD, i, tD[j], tS[j])
		keep(p)
		for i = p; i < len(aS) && aD[i] == tD[j] && aS[i] == tS[j]; i++ {
		}
	}
	keep(len(aS))
	return aS[:k], aD[:k]
}
