package sched

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestParallelForCoversAll(t *testing.T) {
	for _, threads := range []int{1, 2, 8} {
		for _, n := range []int{0, 1, 7, 1000} {
			p := NewPool(threads)
			hits := make([]int32, n)
			p.ParallelFor(n, 16, func(i int) { atomic.AddInt32(&hits[i], 1) })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("threads=%d n=%d: index %d hit %d times", threads, n, i, h)
				}
			}
		}
	}
}

func TestParallelForChunksCoversAll(t *testing.T) {
	p := NewPool(4)
	const n = 1013
	hits := make([]int32, n)
	p.ParallelForChunks(n, 7, func(w, lo, hi int) {
		if w < 0 || w >= p.Threads() {
			t.Errorf("bad worker id %d", w)
		}
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d hit %d times", i, h)
		}
	}
}

func TestParallelRangeBlocksDisjoint(t *testing.T) {
	p := NewPool(3)
	const n = 100
	owner := make([]int32, n)
	p.ParallelRange(n, func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&owner[i], 1)
		}
	})
	for i, c := range owner {
		if c != 1 {
			t.Fatalf("index %d covered %d times", i, c)
		}
	}
}

func TestParallelTasksEachOnce(t *testing.T) {
	p := NewPool(4)
	const k = 37
	hits := make([]int32, k)
	p.ParallelTasks(k, func(task, worker int) {
		atomic.AddInt32(&hits[task], 1)
		if worker < 0 || worker >= 4 {
			t.Errorf("bad worker %d", worker)
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("task %d ran %d times", i, h)
		}
	}
}

func TestPoolDefaults(t *testing.T) {
	if NewPool(0).Threads() < 1 {
		t.Fatal("default pool has no threads")
	}
	if NewPool(-3).Threads() < 1 {
		t.Fatal("negative threads not defaulted")
	}
	if NewPool(7).Threads() != 7 {
		t.Fatal("explicit thread count ignored")
	}
}

func TestTopologyPartitionsFor(t *testing.T) {
	topo := Topology{Domains: 4}
	cases := map[int]int{1: 4, 4: 4, 5: 8, 8: 8, 383: 384, 384: 384, 0: 1}
	for in, want := range cases {
		if got := topo.PartitionsFor(in); got != want {
			t.Fatalf("PartitionsFor(%d) = %d, want %d", in, got, want)
		}
	}
	single := Topology{Domains: 1}
	if single.PartitionsFor(5) != 5 {
		t.Fatal("single domain should not round")
	}
}

func TestTopologyDomainAssignment(t *testing.T) {
	topo := Topology{Domains: 4}
	counts := make([]int, 4)
	for p := 0; p < 384; p++ {
		counts[topo.DomainOf(p)]++
	}
	for d, c := range counts {
		if c != 96 {
			t.Fatalf("domain %d holds %d partitions, want 96", d, c)
		}
	}
}

func TestDomainLoads(t *testing.T) {
	topo := Topology{Domains: 2}
	loads := topo.DomainLoads([]int64{1, 10, 100, 1000})
	if loads[0] != 101 || loads[1] != 1010 {
		t.Fatalf("loads = %v", loads)
	}
}

func TestSingleWorkerInlinePaths(t *testing.T) {
	// All loop primitives short-circuit to inline execution on one
	// worker; verify each covers [0,n).
	p := NewPool(1)
	var a, b, c, d int
	p.ParallelFor(5, 2, func(int) { a++ })
	p.ParallelForChunks(5, 2, func(_, lo, hi int) { b += hi - lo })
	p.ParallelRange(5, func(_, lo, hi int) { c += hi - lo })
	p.ParallelTasks(5, func(int, int) { d++ })
	if a != 5 || b != 5 || c != 5 || d != 5 {
		t.Fatalf("inline coverage: %d %d %d %d", a, b, c, d)
	}
	// Zero-size loops are no-ops.
	p.ParallelFor(0, 2, func(int) { t.Error("called") })
	p.ParallelRange(0, func(int, int, int) { t.Error("called") })
	p.ParallelTasks(0, func(int, int) { t.Error("called") })
	p.ParallelForChunks(0, 2, func(int, int, int) { t.Error("called") })
}

func TestDefaultTopology(t *testing.T) {
	if DefaultTopology().Domains != 4 {
		t.Fatal("paper machine has 4 NUMA domains")
	}
	zero := Topology{}
	if zero.DomainOf(3) != 0 {
		t.Fatal("zero topology should map everything to domain 0")
	}
}

// TestParallelTasksPanicPropagates: a panicking task surfaces on the
// calling goroutine — recoverable — and leaves no worker goroutines
// behind, for both the inline single-worker path and the multi-worker
// path. This is what lets the out-of-core engine tear a concurrent
// sweep down cleanly when an operator panics mid-apply.
func TestParallelTasksPanicPropagates(t *testing.T) {
	for _, threads := range []int{1, 2, 8} {
		p := NewPool(threads)
		baseline := runtime.NumGoroutine()
		var ran int32
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("threads=%d: panic did not propagate", threads)
				}
				if s, ok := r.(string); !ok || s != "task boom" {
					t.Fatalf("threads=%d: recovered %v, want the original panic value", threads, r)
				}
			}()
			p.ParallelTasks(64, func(task, worker int) {
				atomic.AddInt32(&ran, 1)
				if task == 3 {
					panic("task boom")
				}
			})
		}()
		if atomic.LoadInt32(&ran) == 0 {
			t.Fatalf("threads=%d: no task ran before the panic", threads)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if now := runtime.NumGoroutine(); now > baseline {
			t.Fatalf("threads=%d: goroutines grew from %d to %d after a panicking task set",
				threads, baseline, now)
		}
	}
}
