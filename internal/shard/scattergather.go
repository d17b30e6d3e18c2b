package shard

// Partition-centric two-phase sweeps (Options.SweepMode =
// SweepScatterGather): the PCPM design — Lakhotia et al., "Accelerating
// PageRank using Partition-Centric Processing" — mapped onto the
// store's locality partitions. A dense sweep splits into:
//
//   scatter — each staged shard's edges are streamed exactly once and
//   re-encoded into a compact per-shard bin of (dstOffset, src) pairs:
//   pure sequential appends, one segment per apply
//   task, on the shard's own NUMA domain, so no scatter ever writes
//   across domains. Shards flow through the same ordered, windowed,
//   IODepth-bounded staging pipeline as an edge-centric sweep.
//
//   gather — after the window barrier, each domain replays only its own
//   bins into its 64-aligned destination ranges: pure sequential reads,
//   no atomics. Segments mirror the resident's task boundaries, so
//   gather's parallel replay writes the same disjoint destination
//   sub-ranges in the same per-destination order as the edge-centric
//   apply — bit-identical by the same disjointness argument that makes
//   the concurrent in-place apply safe.
//
// Bins encode the full shard (the frontier filter moves to gather, and
// the operator's Cond/Update run only there, where destination state
// mutates), which makes them operator- and frontier-independent: bins
// are retained in the host-shared bin cache, and later dense sweeps
// replay them without touching the plan, the LRU, or the disk. That
// retention is the mode's win condition — on an iterative dense
// algorithm the edges are read from disk once and every further
// iteration moves only ~3 bin bytes per edge from memory, versus the
// edge-centric path re-reading (or re-decoding from the LRU) the
// shards each sweep. With Options.BinBudgetBytes set the cache bounds
// that footprint: cold bins spill to files next to the store and
// replay with one sequential read; a fully evicted or corrupt spilled
// bin just re-scatters (see bincache.go).

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/api"
	"repro/internal/frontier"
	"repro/internal/graph"
)

// SweepMode selects the dense-sweep strategy; see Options.SweepMode.
type SweepMode int

const (
	// SweepEdgeCentric applies each staged shard in place — the
	// historical path and the differential baseline.
	SweepEdgeCentric SweepMode = iota
	// SweepScatterGather runs dense sweeps as scatter (stream edges
	// once, append per-shard update bins) then gather (each domain
	// replays its own bins), retaining bins across sweeps.
	SweepScatterGather
)

func (m SweepMode) valid() bool { return m >= SweepEdgeCentric && m <= SweepScatterGather }

func (m SweepMode) String() string {
	switch m {
	case SweepEdgeCentric:
		return "edge-centric"
	case SweepScatterGather:
		return "scatter-gather"
	}
	return fmt.Sprintf("SweepMode(%d)", int(m))
}

// SweepModes returns every valid mode, for ablation loops.
func SweepModes() []SweepMode { return []SweepMode{SweepEdgeCentric, SweepScatterGather} }

// ParseSweepMode parses a mode name as printed by SweepMode.String —
// the -sweepmode flag surface.
func ParseSweepMode(s string) (SweepMode, error) {
	for _, m := range SweepModes() {
		if s == m.String() {
			return m, nil
		}
	}
	return 0, fmt.Errorf("shard: unknown sweep mode %q (have edge-centric, scatter-gather)", s)
}

// binShard is one shard's scattered update bin: every (dstOffset, src)
// pair the shard contributes to its own destination range, delta-
// encoded as zigzag uvarints. Segment t holds apply task t's pairs in
// the resident's order, so the segment set inherits the resident's
// disjoint 64-aligned destination sub-ranges. Deltas are signed
// (zigzag): residents are (dst,src)-sorted, so the source delta goes
// negative wherever a new destination's run begins.
type binShard struct {
	idx     int
	lo      graph.VID // destination-range base the offsets are relative to
	segs    [][]byte  // per-task encoded streams, resident order preserved
	entries int64     // (dstOffset, src) pairs across all segments
	bytes   int64     // encoded bytes across all segments
}

// zigzag maps a signed delta onto the uvarint-friendly unsigned line
// (0,-1,1,-2,... -> 0,1,2,3,...); unzigzag inverts it.
func zigzag(x int64) uint64   { return uint64(x<<1) ^ uint64(x>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// sweepScatterGather runs one dense EdgeMap as scatter then gather.
// Every plan entry resolves its bin through the host-shared bin cache,
// pinned for the sweep's duration (a pinned bin is never evicted, so
// gather replays exactly what was resolved): a memory hit skips the
// fetch entirely, a spilled bin replays from its file with one
// sequential read, and the rest flow, order-planned, through the same
// staging window as an edge-centric sweep, with scatterShard standing
// in for the apply. The gather barrier then replays every planned bin,
// one goroutine per domain. Panics (operator, load failure) propagate
// exactly like the edge-centric path: scatter runs no operator code,
// so its only failures are load errors re-raised by wait; gather
// failures are re-raised verbatim after all gather goroutines join —
// and the deferred release below drops every pin either way, so an
// aborted sweep leaves no bin unevictable.
func (e *Engine) sweepScatterGather(f *frontier.Frontier, plan []int, cur *frontier.Bitmap, cond func(graph.VID) bool, op api.EdgeOp, next *frontier.Bitmap, accs []sweepAccum) {
	atomic.AddInt64(&e.stats.ScatterGatherSweeps, 1)
	// held[si] is plan entry si's pinned bin for this sweep. Slots are
	// written by the resolve loop below (sweep goroutine) or by the
	// concurrent scatter applies (distinct slots, one plan entry per
	// shard) and read only after wait's barrier — the same write-once
	// discipline the per-engine bin slices used.
	held := make([]*binShard, e.st.NumShards())
	releases := make([]func(), e.st.NumShards())
	defer func() {
		for _, rel := range releases {
			if rel != nil {
				rel()
			}
		}
	}()
	scatterPlan := make([]int, 0, len(plan))
	for _, si := range plan {
		if b, rel, ok := e.bins.acquire(si); ok {
			held[si], releases[si] = b, rel
			atomic.AddInt64(&e.stats.BinShardsReused, 1)
			continue
		}
		if e.bins.hasSpill(si) {
			lo, _ := e.st.Range(si)
			b, diskBytes, err := e.bins.loadSpill(si, lo)
			if err == nil {
				atomic.AddInt64(&e.stats.BinSpillReplays, 1)
				atomic.AddInt64(&e.stats.BinSpillBytesRead, diskBytes)
				e.admitBin(held, releases, b)
				continue
			}
			// A missing, truncated or corrupt spill file is never an
			// error and never a wrong result: drop it and re-scatter the
			// shard — the same recovery a fully evicted bin takes.
			e.bins.dropSpill(si)
		}
		scatterPlan = append(scatterPlan, si)
	}
	// Order-plan only the shards actually fetched: the planner's LRU
	// simulation stays exact (PlannedCacheHits still equals the
	// CacheHits the scatter then collects) because reused and replayed
	// bins never touch the cache.
	scatterPlan = e.orderPlan(scatterPlan)
	if len(scatterPlan) > 0 {
		w := e.startSweep(scatterPlan, func(sh *resident) {
			// A bin is valid the moment it is scattered — it is just the
			// shard re-encoded — so bins admitted before an aborted
			// sweep's failure point stay cached (pins dropped by the
			// deferred release); the failed shard's slot stays nil.
			e.admitBin(held, releases, e.scatterShard(sh))
		})
		defer w.stop()
		w.wait()
	}
	// A complete frontier admits every edge, so gather can skip the
	// per-edge frontier test (cur is all-ones); incomplete dense
	// frontiers filter at replay time — the same test, the same edge
	// order, just deferred from the edge-centric apply loop.
	needCur := f.Count() != int64(e.g.NumVertices())
	e.gatherPlan(plan, held, needCur, cur, cond, op, next, accs)
}

// admitBin offers a freshly scattered or spill-replayed bin to the bin
// cache, pinned, and records the canonical bin (another session may
// have raced the insert with an identical one) plus its release in
// this sweep's slots. A refused insert — the budget could not cover
// the bytes even after evicting every cold unpinned bin — still
// gathers: the bin is used transient and was spilled by the cache, so
// the next sweep replays it from disk instead of re-scattering.
func (e *Engine) admitBin(held []*binShard, releases []func(), b *binShard) {
	bin, rel, evicted, spilledBytes := e.bins.put(b)
	held[b.idx], releases[b.idx] = bin, rel
	if evicted > 0 {
		atomic.AddInt64(&e.stats.BinShardsEvicted, evicted)
	}
	if spilledBytes > 0 {
		atomic.AddInt64(&e.stats.BinBytesSpilled, spilledBytes)
	}
}

// scatterShard encodes one resident shard into its bin on the shard's
// owning domain, one worker per apply task — the scatter phase's only
// work. It runs as the staging window's "apply" (on the domain's apply
// goroutine), so it keeps the same occupancy bookkeeping and hooks as
// applyShard; DomainShards/DomainEdges are charged at gather, the
// phase that performs the edge work.
func (e *Engine) scatterShard(sh *resident) *binShard {
	si := sh.idx
	dom := e.domainOf[si]
	lo, _ := e.st.Range(si)
	level := atomic.AddInt32(&e.applying, 1)
	// Deferred for the same reason as applyShard: a panic below (none
	// today — scatter runs no operator code) must not wedge the count.
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
	tasks := len(sh.off) - 1
	b := &binShard{idx: si, lo: lo, segs: make([][]byte, tasks)}
	e.domains[dom].ParallelTasks(tasks, func(task, _ int) {
		src := sh.src[sh.off[task]:sh.off[task+1]]
		dst := sh.dst[sh.off[task]:sh.off[task+1]]
		// Typical pairs cost ~3 bytes (small deltas both streams).
		buf := make([]byte, 0, 3*len(src)+8)
		var tmp [binary.MaxVarintLen64]byte
		var prevD, prevS int64
		for i := range src {
			d, s := int64(dst[i]-lo), int64(src[i])
			buf = append(buf, tmp[:binary.PutUvarint(tmp[:], zigzag(d-prevD))]...)
			buf = append(buf, tmp[:binary.PutUvarint(tmp[:], zigzag(s-prevS))]...)
			prevD, prevS = d, s
		}
		b.segs[task] = buf
	})
	for t := range b.segs {
		b.bytes += int64(len(b.segs[t]))
	}
	b.entries = int64(len(sh.src))
	atomic.AddInt64(&e.stats.BinBytesWritten, b.bytes)
	if e.onApplyEnd != nil {
		e.onApplyEnd(si)
	}
	return b
}

// gatherPlan replays every planned shard's bin, one goroutine per
// modelled NUMA domain over that domain's own bins in plan order — the
// phase-level barrier mirroring the window's applyLoop/fail/wait
// discipline: the first failure wins, remaining domains stop at their
// next bin boundary, every goroutine joins before the panic is
// re-raised verbatim on the sweep goroutine, so no gather goroutine
// outlives its EdgeMap and a panicking operator tears down cleanly.
func (e *Engine) gatherPlan(plan []int, held []*binShard, needCur bool, cur *frontier.Bitmap, cond func(graph.VID) bool, op api.EdgeOp, next *frontier.Bitmap, accs []sweepAccum) {
	perDomain := make([][]*binShard, len(e.domains))
	for _, si := range plan {
		b := held[si]
		if b == nil {
			// Unreachable: every plan entry was either reused or just
			// scattered (an aborted scatter panics before gather runs).
			panic(fmt.Sprintf("shard: engine sweep: shard %d has no scatter bin", si))
		}
		perDomain[e.domainOf[si]] = append(perDomain[e.domainOf[si]], b)
	}
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		cause   any
		aborted int32
	)
	for d := range perDomain {
		if len(perDomain[d]) == 0 {
			continue
		}
		wg.Add(1)
		go func(d int, bins []*binShard) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					atomic.StoreInt32(&aborted, 1)
					mu.Lock()
					if cause == nil {
						cause = r
					}
					mu.Unlock()
				}
			}()
			for _, b := range bins {
				if atomic.LoadInt32(&aborted) != 0 {
					return
				}
				e.gatherBin(d, b, needCur, cur, cond, op, next, accs)
			}
		}(d, perDomain[d])
	}
	wg.Wait()
	if cause != nil {
		panic(cause)
	}
}

// gatherBin replays one bin on its domain's workers, one task per
// segment. Segments are the resident's apply tasks, so every destination
// (and every next-frontier bitmap word) is written by exactly one
// worker, per-destination order is resident order, and the non-atomic
// Update path is safe — exactly applyShard's contract, with the edges
// decoded from the bin instead of the resident.
func (e *Engine) gatherBin(dom int, b *binShard, needCur bool, cur *frontier.Bitmap, cond func(graph.VID) bool, op api.EdgeOp, next *frontier.Bitmap, accs []sweepAccum) {
	atomic.AddInt64(&e.stats.DomainShards[dom], 1)
	atomic.AddInt64(&e.stats.DomainEdges[dom], b.entries)
	atomic.AddInt64(&e.stats.BinBytesRead, b.bytes)
	level := atomic.AddInt32(&e.applying, 1)
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
	mine := accs[dom*e.pool.Threads() : (dom+1)*e.pool.Threads()]
	e.domains[dom].ParallelTasks(len(b.segs), func(task, worker int) {
		a := &mine[worker]
		seg := b.segs[task]
		var prevD, prevS int64
		for pos := 0; pos < len(seg); {
			du, n := binary.Uvarint(seg[pos:])
			if n <= 0 {
				panic("shard: corrupt scatter bin (destination delta)")
			}
			pos += n
			su, n := binary.Uvarint(seg[pos:])
			if n <= 0 {
				panic("shard: corrupt scatter bin (source delta)")
			}
			pos += n
			prevD += unzigzag(du)
			prevS += unzigzag(su)
			u, v := graph.VID(prevS), b.lo+graph.VID(prevD)
			if needCur && !cur.Get(u) {
				continue
			}
			if !cond(v) {
				continue
			}
			if op.Update(u, v) && !next.Get(v) {
				next.Set(v)
				a.count++
				a.outDeg += e.g.OutDegree(v)
			}
		}
	})
}
