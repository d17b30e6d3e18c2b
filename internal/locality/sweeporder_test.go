package locality

import "testing"

// ascendingSweeps builds s identical full sweeps over p shards.
func ascendingSweeps(p, s int) [][]int {
	plans := make([][]int, s)
	for i := range plans {
		plans[i] = make([]int, p)
		for j := range plans[i] {
			plans[i][j] = j
		}
	}
	return plans
}

// zigzagSweeps reverses every odd sweep — the boustrophedon schedule,
// the classic alternative to a cyclic ascending sweep.
func zigzagSweeps(p, s int) [][]int {
	plans := ascendingSweeps(p, s)
	for i := 1; i < s; i += 2 {
		for a, b := 0, p-1; a < b; a, b = a+1, b-1 {
			plans[i][a], plans[i][b] = plans[i][b], plans[i][a]
		}
	}
	return plans
}

// TestMeasureSweepOrderZigzagClosedForm pins the scorer to the closed
// form of the boustrophedon win: with P shards, budget C < P and S
// sweeps, ascending loads S·P (the cyclic pattern never hits an LRU
// smaller than the cycle) while zigzag loads S·P − (S−1)·C.
func TestMeasureSweepOrderZigzagClosedForm(t *testing.T) {
	const p, c, s = 8, 3, 10
	cmp := MeasureSweepOrder(zigzagSweeps(p, s), c)
	if got, want := cmp.Ascending.Loads, int64(s*p); got != want {
		t.Fatalf("ascending loads = %d, want %d (cyclic LRU never hits)", got, want)
	}
	if got, want := cmp.Planned.Loads, int64(s*p-(s-1)*c); got != want {
		t.Fatalf("zigzag loads = %d, want %d", got, want)
	}
	if got, want := cmp.ReloadsAvoided, int64((s-1)*c); got != want {
		t.Fatalf("ReloadsAvoided = %d, want %d", got, want)
	}
	if cmp.Planned.Hits+cmp.Planned.Loads != cmp.Planned.Accesses {
		t.Fatalf("hits %d + loads %d != accesses %d",
			cmp.Planned.Hits, cmp.Planned.Loads, cmp.Planned.Accesses)
	}
	// The reuse story behind the load counts: ascending's only finite
	// distance is the full cycle (P−1 distinct shards between visits),
	// zigzag's reversal folds part of the schedule below the budget.
	if cmp.Ascending.MaxReuse != p-1 || cmp.Ascending.MeanReuse <= float64(c) {
		t.Fatalf("ascending reuse profile unexpected: mean %.2f max %d",
			cmp.Ascending.MeanReuse, cmp.Ascending.MaxReuse)
	}
	if cmp.Planned.MeanReuse >= cmp.Ascending.MeanReuse {
		t.Fatalf("zigzag mean reuse %.2f not below ascending %.2f",
			cmp.Planned.MeanReuse, cmp.Ascending.MeanReuse)
	}
}

// TestMeasureSweepOrderAscendingIsItsOwnBaseline: scoring the baseline
// schedule against itself must save nothing, whatever the budget.
func TestMeasureSweepOrderAscendingIsItsOwnBaseline(t *testing.T) {
	for _, c := range []int{1, 3, 8, 100} {
		cmp := MeasureSweepOrder(ascendingSweeps(8, 6), c)
		if cmp.ReloadsAvoided != 0 {
			t.Fatalf("budget %d: ascending vs itself avoided %d reloads", c, cmp.ReloadsAvoided)
		}
		if cmp.Planned != cmp.Ascending {
			t.Fatalf("budget %d: identical schedules scored differently: %+v vs %+v",
				c, cmp.Planned, cmp.Ascending)
		}
	}
}

// TestMeasureSweepOrderBudgetCoversCycle: once the budget holds every
// shard, ordering is a no-op win — both schedules pay one cold load per
// shard and hit thereafter.
func TestMeasureSweepOrderBudgetCoversCycle(t *testing.T) {
	const p, s = 8, 5
	cmp := MeasureSweepOrder(zigzagSweeps(p, s), p)
	if cmp.Planned.Loads != p || cmp.Ascending.Loads != p {
		t.Fatalf("whole-cycle budget should load each shard once: planned %d, ascending %d, want %d",
			cmp.Planned.Loads, cmp.Ascending.Loads, p)
	}
	if cmp.ReloadsAvoided != 0 {
		t.Fatalf("ReloadsAvoided = %d with the cycle cached, want 0", cmp.ReloadsAvoided)
	}
}

// TestMeasureSweepOrderRaggedSparsePlans: per-sweep shard sets need not
// match — sparse sweeps plan subsets — and the baseline must sort each
// sweep independently without leaking shards across sweeps.
func TestMeasureSweepOrderRaggedSparsePlans(t *testing.T) {
	plans := [][]int{
		{5, 1, 3},
		{3, 5},
		{},
		{2},
		{5, 3, 1},
	}
	cmp := MeasureSweepOrder(plans, 2)
	var visits int64
	for _, p := range plans {
		visits += int64(len(p))
	}
	if cmp.Planned.Accesses != visits || cmp.Ascending.Accesses != visits {
		t.Fatalf("accesses %d/%d, want %d", cmp.Planned.Accesses, cmp.Ascending.Accesses, visits)
	}
	// Schedules over the same sets can differ only in reuse, not volume.
	if cmp.Planned.Hits+cmp.Planned.Loads != visits {
		t.Fatalf("planned hits+loads != accesses: %+v", cmp.Planned)
	}
	if cmp.ReloadsAvoided != cmp.Ascending.Loads-cmp.Planned.Loads {
		t.Fatalf("ReloadsAvoided inconsistent: %+v", cmp)
	}
}
