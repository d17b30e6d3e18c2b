package shard

// The sweep-order planner. planSparse/planDense decide *which* shards a
// sweep must visit; this file decides *in what order* — the lever PCPM
// (Lakhotia et al.) and the locality-reordering literature show recovers
// a large fraction of the partitioning win without touching the on-disk
// format. The default ascending order is pathological for iterative
// dense algorithms: a cyclic reference pattern over P shards against an
// LRU of C < P shards hits never — the tail the cache kept alive at the
// end of sweep i is evicted exactly before sweep i+1 reaches it.
// Reordering the plan is free to do and free to prove: shards own
// disjoint 64-aligned destination ranges and operators write destination
// state only, so any permutation of the plan is bit-identical (the same
// argument that makes the cross-domain concurrent apply safe), and the
// planner runs strictly before startSweep, so the k-deep window and the
// per-domain apply discipline see an ordered plan exactly as they would
// an ascending one.

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/hilbert"
)

// Order selects the sweep-order policy: how the planner permutes a
// sweep's shard plan before the staging goroutine walks it.
type Order int

const (
	// OrderAscending streams the plan in ascending shard index — the
	// historical behaviour and the differential baseline every other
	// policy must match bit for bit.
	OrderAscending Order = iota
	// OrderZigzag alternates sweep direction across consecutive EdgeMaps
	// (boustrophedon): sweep i+1 starts on the shards sweep i finished
	// with — precisely the ones the LRU still holds — so an iterative
	// dense algorithm hits on as many shards per sweep as the cache
	// budget holds, where ascending order hits on none.
	OrderZigzag
	// OrderResidencyFirst schedules the plan greedily for the cache as it
	// stands: shards currently resident in the LRU run first (all hits,
	// and hits never evict), then the remainder in Hilbert order over
	// (shard index, source-range centroid), so consecutive uncached
	// shards read from nearby source ranges.
	OrderResidencyFirst
)

func (o Order) valid() bool { return o >= OrderAscending && o <= OrderResidencyFirst }

func (o Order) String() string {
	switch o {
	case OrderAscending:
		return "ascending"
	case OrderZigzag:
		return "zigzag"
	case OrderResidencyFirst:
		return "residency-first"
	default:
		return fmt.Sprintf("Order(%d)", int(o))
	}
}

// Orders lists every sweep-order policy, ascending baseline first — the
// iteration order ablations and CLIs use.
func Orders() []Order { return []Order{OrderAscending, OrderZigzag, OrderResidencyFirst} }

// ParseOrder resolves the CLI spelling of a sweep-order policy.
func ParseOrder(s string) (Order, error) {
	for _, o := range Orders() {
		if s == o.String() {
			return o, nil
		}
	}
	return 0, fmt.Errorf("shard: unknown sweep order %q (have ascending, zigzag, residency-first)", s)
}

// plannedStats is one ordered sweep's pending planner accounting,
// committed only after the sweep completes (see commitPlan).
type plannedStats struct {
	hits, baseHits int64
	shadowAfter    []int
}

// orderPlan permutes a sweep's baseline plan (always ascending, as
// planSparse/planDense emit it) according to Options.Order, and stages
// the planner stats: PlannedCacheHits is the number of hits the ordered
// plan will collect from the cache as it stands right now (a byte-priced
// simulation of the cache's own policy — see shadowLRU for when it is
// exact), and ReloadsAvoided is the net
// number of loads the chosen order saves against the whole-run
// ascending baseline. Applies to sparse and dense plans alike. The
// stats are only *staged* here — commitPlan publishes them after the
// sweep completes, so a sweep aborted mid-plan (operator panic, load
// failure) charges nothing and does not advance the baseline shadow
// past fetches that never happened.
func (e *Engine) orderPlan(plan []int) []int {
	sweep := e.sweepSeq
	e.sweepSeq++
	e.pending = nil // drop any accounting an aborted sweep left staged
	if len(plan) == 0 {
		return plan
	}
	resident := e.cache.snapshotStore(e.st)
	ordered := plan
	switch e.opts.Order {
	case OrderZigzag:
		if sweep%2 == 1 {
			ordered = make([]int, len(plan))
			for i, si := range plan {
				ordered[len(plan)-1-i] = si
			}
		}
	case OrderResidencyFirst:
		ordered = e.residencyFirst(plan, resident)
	}
	hits := int64(e.shadow.seeded(resident).replay(ordered))
	e.pending = &plannedStats{hits: hits, baseHits: hits}
	if e.opts.Order != OrderAscending {
		// The shadow cache replays the baseline plan from the state a
		// pure ascending run would be in by now, so the accumulated delta
		// is the whole-run saving, not a per-sweep counterfactual:
		// reordering one sweep also changes which shards the *next* sweep
		// finds resident. Replay a clone; the persistent shadow advances
		// only on commit. An ascending engine is its own baseline: it
		// avoids nothing by definition and keeps no shadow.
		base := e.shadow.seeded(e.shadow.mru)
		e.pending.baseHits, e.pending.shadowAfter = int64(base.replay(plan)), base.mru
	}
	return ordered
}

// commitPlan publishes the accounting orderPlan staged, once the sweep
// it described has completed. Like the rest of the planner state it is
// called only from EdgeMap on the sweep goroutine.
func (e *Engine) commitPlan() {
	p := e.pending
	if p == nil {
		return
	}
	e.pending = nil
	atomic.AddInt64(&e.stats.PlannedCacheHits, p.hits)
	atomic.AddInt64(&e.stats.ReloadsAvoided, p.hits-p.baseHits)
	e.shadow.mru = p.shadowAfter
}

// residencyFirst splits the plan into the shards the LRU currently holds
// (kept in ascending order; they are all hits and hits never evict, so
// their relative order cannot cost a load) followed by the uncached
// remainder sorted by the engine's precomputed Hilbert key.
func (e *Engine) residencyFirst(plan []int, resident []int) []int {
	res := make(map[int]bool, len(resident))
	for _, si := range resident {
		res[si] = true
	}
	ordered := make([]int, 0, len(plan))
	rest := make([]int, 0, len(plan))
	for _, si := range plan {
		if res[si] {
			ordered = append(ordered, si)
		} else {
			rest = append(rest, si)
		}
	}
	sort.Slice(rest, func(a, b int) bool {
		if e.hilbertKey[rest[a]] != e.hilbertKey[rest[b]] {
			return e.hilbertKey[rest[a]] < e.hilbertKey[rest[b]]
		}
		return rest[a] < rest[b]
	})
	return append(ordered, rest...)
}

// hilbertKeys precomputes each shard's position on the Hilbert curve
// over (shard index, source-range centroid): y is the mean index of the
// destination ranges the shard's edge sources fall in (from the store's
// source summary), so shards adjacent on the curve read from nearby
// source ranges and their current-array accesses overlap.
func hilbertKeys(feeds [][]uint64, p int) []uint64 {
	ord := hilbert.OrderFor(p)
	keys := make([]uint64, p)
	for i, words := range feeds {
		var sum, n int
		for w, word := range words {
			for word != 0 {
				sum += w*64 + bits.TrailingZeros64(word)
				n++
				word &= word - 1
			}
		}
		centroid := 0
		if n > 0 {
			centroid = sum / n
		}
		keys[i] = hilbert.XY2D(ord, uint32(i), uint32(centroid))
	}
	return keys
}

// shadowLRU is an index-only model of the shard cache's exact policy:
// a hit promotes to the front; a miss evicts from the back until the
// shard's decoded bytes fit the budget, then inserts at the front (a
// shard larger than the whole budget is refused, as the cache refuses
// it). The planner uses it two ways: seeded from the live cache's
// snapshot to predict the sweep it just ordered, and as the engine's
// persistent shadow of the cache a whole-run ascending baseline would
// have, which ReloadsAvoided is measured against. For a lone session
// the prediction is exact under any interleaving (a sweep's pins sit on
// shards it already visited, so a skipped victim cannot cost it a hit);
// the baseline matches a real ascending run's loads only when applies
// finish in plan order. Other sessions make both estimates.
type shadowLRU struct {
	budget int64
	cost   []int64 // per-shard decoded bytes (hostCore.shardBytes)
	mru    []int
}

// seeded returns a fresh model of the same cache holding resident, most
// recently used first.
func (s *shadowLRU) seeded(resident []int) *shadowLRU {
	return &shadowLRU{budget: s.budget, cost: s.cost, mru: append([]int(nil), resident...)}
}

// replay runs plan through the model, mutating it, and returns the hit
// count.
func (s *shadowLRU) replay(plan []int) int {
	var bytes int64
	for _, si := range s.mru {
		bytes += s.cost[si]
	}
	hits := 0
	for _, si := range plan {
		if pos := slices.Index(s.mru, si); pos >= 0 {
			hits++
			copy(s.mru[1:pos+1], s.mru[:pos])
			s.mru[0] = si
			continue
		}
		for bytes+s.cost[si] > s.budget && len(s.mru) > 0 {
			bytes -= s.cost[s.mru[len(s.mru)-1]]
			s.mru = s.mru[:len(s.mru)-1]
		}
		if bytes+s.cost[si] <= s.budget {
			bytes += s.cost[si]
			s.mru = slices.Insert(s.mru, 0, si)
		}
	}
	return hits
}
