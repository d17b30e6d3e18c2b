package locality

// Sweep-order scoring. The out-of-core engine (internal/shard) visits
// each EdgeMap's shard plan in ascending shard order; this file is the
// offline model of what any other multi-sweep schedule would do to the
// shard cache: it replays the schedule through the exact reuse-distance
// analyzer and an LRU of the engine's shard budget, and scores it
// against the ascending baseline over the same per-sweep shard sets. It
// answers, without running the engine, how many shard re-reads a
// schedule's locality would save — the evidence any engine-chosen
// sweep order has to bring before it earns a place in the engine.

import "sort"

// SweepOrderScore summarises the shard-granularity locality of one
// multi-sweep schedule at a given LRU budget.
type SweepOrderScore struct {
	Accesses int64 // total shard visits across all sweeps
	Loads    int64 // simulated disk loads: cold first touches plus LRU misses
	Hits     int64 // visits served by the simulated LRU
	// MeanReuse is the mean finite LRU stack distance of the schedule
	// (bucket-midpoint approximation, the package's standard), and
	// MaxReuse the largest distance observed: a schedule whose
	// distances sit below the shard budget is the one the LRU can serve.
	MeanReuse float64
	MaxReuse  int64
}

// SweepOrderComparison scores a planned schedule against the ascending
// baseline over the same per-sweep shard sets.
type SweepOrderComparison struct {
	CacheShards int
	Planned     SweepOrderScore
	Ascending   SweepOrderScore
	// ReloadsAvoided is Ascending.Loads − Planned.Loads: positive when
	// the planned order needs fewer disk loads than streaming every
	// sweep in ascending shard index.
	ReloadsAvoided int64
}

// MeasureSweepOrder scores a planned multi-sweep shard schedule —
// plans[s] is sweep s's shard sequence, in execution order — against the
// ascending baseline (each sweep's shard set sorted ascending, the
// engine's order) at an LRU budget of cacheShards resident shards. A
// visit hits the LRU exactly when its reuse distance is finite and below
// the budget, so the score ties the reuse-distance histogram and the
// load count to the same replay.
func MeasureSweepOrder(plans [][]int, cacheShards int) SweepOrderComparison {
	if cacheShards < 1 {
		cacheShards = 1
	}
	baseline := make([][]int, len(plans))
	for s, plan := range plans {
		baseline[s] = append([]int(nil), plan...)
		sort.Ints(baseline[s])
	}
	planned := scoreSchedule(plans, cacheShards)
	ascending := scoreSchedule(baseline, cacheShards)
	return SweepOrderComparison{
		CacheShards:    cacheShards,
		Planned:        planned,
		Ascending:      ascending,
		ReloadsAvoided: ascending.Loads - planned.Loads,
	}
}

// scoreSchedule replays one schedule through the exact reuse-distance
// analyzer. LRU inclusion: a reference with stack distance d hits a
// cache of capacity C iff 0 <= d < C, so loads are the cold accesses
// plus the distances at or past the budget.
func scoreSchedule(plans [][]int, cacheShards int) SweepOrderScore {
	var n int
	for _, plan := range plans {
		n += len(plan)
	}
	ra := NewReuseAnalyzer(n)
	var score SweepOrderScore
	for _, plan := range plans {
		for _, si := range plan {
			d := ra.Access(uint64(si))
			score.Accesses++
			if d >= 0 && d < int64(cacheShards) {
				score.Hits++
			} else {
				score.Loads++
			}
		}
	}
	hist := ra.Histogram()
	score.MeanReuse = hist.Mean()
	score.MaxReuse = ra.MaxObserved()
	return score
}
