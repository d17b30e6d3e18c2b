package shard

// Incremental re-convergence over a mutated store: rather than
// recomputing PageRank or connected components from scratch after an
// ApplyBatch, restart the iteration from the previous fixed point and
// sweep only the shards whose inputs changed — the batch's dirty set
// (Store.DirtyShards) — then let dirtiness propagate outward through
// the same source-range summaries the dense planner skips by: a shard
// becomes dirty only when a source range holding a changed vertex
// feeds it. On localized batches the dirty frontier touches a few
// shards and dies out, so re-convergence loads strictly fewer shards
// than a full recompute while landing on the same fixed point (to
// tolerance).
//
// Both kernels iterate equations whose fixed points are independent
// of sweep schedule, which is what makes skipping clean shards sound:
//
//   - IncrementalPR runs the Jacobi iteration of the strictly local
//     PageRank system r(v) = (1-d)/n + d·Σ_{u→v} r(u)/deg(u), with NO
//     dangling-mass redistribution. Redistribution is a global
//     coupling — every dangling vertex feeds every other — that would
//     make every shard dirty on any degree change; the local system
//     is the standard formulation for incremental and distributed
//     settings. Its fixed point differs from algorithms.PR's
//     (which redistributes), so compare IncrementalPR runs with
//     IncrementalPR runs.
//
//   - IncrementalCC runs in-place monotone min-label propagation
//     along edge direction — the same fixed point as algorithms.CC.
//     Labels only ever decrease, so restarting from a previous fixed
//     point is exact for insert-only batches; a deletion can orphan a
//     label that should rise, which monotone propagation cannot
//     express, so pass prev == nil (full recompute) after deletions.

import (
	"fmt"
	"math"

	"repro/internal/graph"
)

// FixedPoint is the result of an incremental re-convergence: the
// vertex state at the fixed point, how many sweeps over the dirty set
// it took, and how many shard visits (fetches) those sweeps cost —
// the quantity incremental re-convergence exists to shrink.
type FixedPoint struct {
	Ranks       []float64 // IncrementalPR only
	Labels      []int32   // IncrementalCC only
	Sweeps      int
	ShardVisits int64
}

// IncrementalPR converges the local PageRank system (damping 0.85, no
// dangling redistribution; see the package comment above) to within
// tol, starting from ranks prev and initially sweeping only the
// shards in seed. prev == nil starts from the uniform vector and seed
// == nil sweeps everything — together a full computation. For
// re-convergence after ApplyBatch, pass the previous FixedPoint's
// Ranks and the batch's Dirty list (or Store.DirtyShards over the
// engine built for the new generation).
//
// A vertex's rank moving by more than tol marks its home range
// changed; the next sweep visits exactly the shards fed by a changed
// range. The returned ranks therefore match a full run's to within a
// small multiple of tol, independent of the seed — shards left out of
// the dirty frontier are precisely those whose equations' inputs
// never moved by more than tol.
func (e *Engine) IncrementalPR(prev []float64, seed []int, tol float64, maxSweeps int) (*FixedPoint, error) {
	e.checkGen()
	const d = 0.85
	n := e.g.NumVertices()
	if prev != nil && len(prev) != n {
		return nil, fmt.Errorf("shard: incremental pr: prev has %d ranks, graph has %d vertices", len(prev), n)
	}
	if tol <= 0 {
		return nil, fmt.Errorf("shard: incremental pr: tolerance %v must be positive", tol)
	}
	r := make([]float64, n)
	if prev == nil {
		for v := range r {
			r[v] = 1 / float64(n)
		}
	} else {
		copy(r, prev)
	}
	base := (1 - d) / float64(n)

	p := e.st.NumShards()
	dirty, err := e.seedDirty(seed, p)
	if err != nil {
		return nil, err
	}
	contrib := make([]float64, n)
	fp := &FixedPoint{Ranks: r}
	for len(dirty) > 0 && fp.Sweeps < maxSweeps {
		// Freeze this sweep's contributions (Jacobi): every dirty
		// shard reads the same source vector regardless of visit order.
		for v := 0; v < n; v++ {
			if deg := e.g.OutDegree(graph.VID(v)); deg > 0 {
				contrib[v] = d * r[v] / float64(deg)
			} else {
				contrib[v] = 0
			}
		}
		changed := make([]uint64, summaryWords(p))
		for _, si := range dirty {
			lo, hi := e.st.Range(si)
			acc := make([]float64, hi-lo)
			if err := e.visitShard(si, func(u, v graph.VID) {
				acc[v-lo] += contrib[u]
			}); err != nil {
				return nil, err
			}
			fp.ShardVisits++
			for v := lo; v < hi; v++ {
				next := base + acc[v-lo]
				if math.Abs(next-r[v]) > tol {
					changed[si/64] |= 1 << (si % 64)
				}
				r[v] = next
			}
		}
		dirty = e.fedBy(changed, p)
		fp.Sweeps++
	}
	if len(dirty) > 0 {
		return nil, fmt.Errorf("shard: incremental pr: %d shards still dirty after %d sweeps", len(dirty), maxSweeps)
	}
	return fp, nil
}

// IncrementalCC converges min-label propagation along edge direction
// (the algorithms.CC fixed point) by in-place sweeps over the dirty
// set. prev == nil starts labels at vertex IDs and seed == nil sweeps
// everything — a full computation. Restarting from a previous fixed
// point is exact only for insert-only batches: labels are monotone
// decreasing, and a deletion may require a label to rise. maxSweeps
// bounds the propagation (labels settle within the component count's
// diameter in sweeps; n+1 is always safe).
func (e *Engine) IncrementalCC(prev []int32, seed []int, maxSweeps int) (*FixedPoint, error) {
	e.checkGen()
	n := e.g.NumVertices()
	if prev != nil && len(prev) != n {
		return nil, fmt.Errorf("shard: incremental cc: prev has %d labels, graph has %d vertices", len(prev), n)
	}
	labels := make([]int32, n)
	if prev == nil {
		for v := range labels {
			labels[v] = int32(v)
		}
	} else {
		copy(labels, prev)
	}

	p := e.st.NumShards()
	dirty, err := e.seedDirty(seed, p)
	if err != nil {
		return nil, err
	}
	fp := &FixedPoint{Labels: labels}
	for len(dirty) > 0 && fp.Sweeps < maxSweeps {
		changed := make([]uint64, summaryWords(p))
		for _, si := range dirty {
			if err := e.visitShard(si, func(u, v graph.VID) {
				if l := labels[u]; l < labels[v] {
					labels[v] = l
					changed[si/64] |= 1 << (si % 64)
				}
			}); err != nil {
				return nil, err
			}
			fp.ShardVisits++
		}
		dirty = e.fedBy(changed, p)
		fp.Sweeps++
	}
	if len(dirty) > 0 {
		return nil, fmt.Errorf("shard: incremental cc: %d shards still dirty after %d sweeps", len(dirty), maxSweeps)
	}
	return fp, nil
}

// seedDirty normalizes an initial dirty list: nil means every shard,
// otherwise indices are validated and deduplicated in order.
func (e *Engine) seedDirty(seed []int, p int) ([]int, error) {
	if seed == nil {
		all := make([]int, p)
		for i := range all {
			all[i] = i
		}
		return all, nil
	}
	in := make([]bool, p)
	var out []int
	for _, si := range seed {
		if si < 0 || si >= p {
			return nil, fmt.Errorf("shard: incremental: seed shard %d outside [0,%d)", si, p)
		}
		if !in[si] {
			in[si] = true
			out = append(out, si)
		}
	}
	return out, nil
}

// fedBy returns, ascending, the shards fed by any changed source
// range — the dense planner's summary intersection, reused as the
// dirty-propagation step.
func (e *Engine) fedBy(changed []uint64, p int) []int {
	var next []int
	for j := 0; j < p; j++ {
		feeds := e.feeds[j]
		for w := range feeds {
			if feeds[w]&changed[w] != 0 {
				next = append(next, j)
				break
			}
		}
	}
	return next
}

// visitShard fetches shard si through the engine's cache (counting
// hits and loads like any sweep) and streams its edges to f in
// per-destination order, releasing the pin before returning.
func (e *Engine) visitShard(si int, f func(u, v graph.VID)) error {
	st, err := e.admit(si)
	if err != nil {
		return err
	}
	defer st.release()
	for i := range st.sh.src {
		f(st.sh.src[i], st.sh.dst[i])
	}
	return nil
}
