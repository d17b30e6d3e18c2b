// Package sched provides the parallel runtime shared by all engines: a
// bounded worker pool, chunked parallel-for loops and self-scheduled
// task sets, plus a modelled NUMA topology that sets partition counts.
// Go offers no physical NUMA placement, so the model only keeps the
// paper's books (§III.D: partition counts are multiples of the domain
// count); the *ownership* discipline the atomic-free update path
// depends on — one partition is processed by exactly one worker at a
// time — is ParallelTasks' contract.
package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool runs tasks on a fixed number of workers. A Pool with Threads=1
// executes inline, which tests use for deterministic sequencing.
type Pool struct {
	threads int
}

// NewPool returns a pool with the given parallelism; threads <= 0 selects
// GOMAXPROCS.
func NewPool(threads int) *Pool {
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	return &Pool{threads: threads}
}

// Threads returns the pool's parallelism.
func (p *Pool) Threads() int { return p.threads }

// ParallelFor runs fn(i) for i in [0,n) across the pool using dynamic
// chunk self-scheduling: workers grab chunks of the given size from a
// shared counter, which load-balances skewed iterations (high-degree
// vertices) without a work-stealing deque. A panicking fn is re-raised
// on the caller as in ParallelTasks.
func (p *Pool) ParallelFor(n int, chunk int, fn func(i int)) {
	p.ParallelForChunks(n, chunk, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// ParallelForChunks is ParallelFor with the worker ID and chunk bounds
// exposed: workers self-schedule chunks of size chunk from [0,n) and call
// fn(worker, lo, hi) per chunk. Engines use the worker ID to index
// per-worker accumulators without atomics. A panicking fn is re-raised
// on the caller as in ParallelTasks.
func (p *Pool) ParallelForChunks(n, chunk int, fn func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	if chunk <= 0 {
		chunk = 1
	}
	workers := min(p.threads, (n+chunk-1)/chunk)
	if workers <= 1 {
		fn(0, 0, n)
		return
	}
	var next int64
	run(workers, func(w int, stopped func() bool) {
		for !stopped() {
			start := int(atomic.AddInt64(&next, int64(chunk))) - chunk
			if start >= n {
				return
			}
			fn(w, start, min(start+chunk, n))
		}
	})
}

// ParallelRange splits [0,n) into one contiguous block per worker and
// runs fn(worker, lo, hi). Used when per-worker accumulators must be
// indexed by worker ID (frontier statistics aggregation). A panicking
// fn is re-raised on the caller as in ParallelTasks.
func (p *Pool) ParallelRange(n int, fn func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	workers := min(p.threads, n)
	if workers <= 1 {
		fn(0, 0, n)
		return
	}
	run(workers, func(w int, _ func() bool) {
		fn(w, w*n/workers, (w+1)*n/workers)
	})
}

// ParallelTasks runs exactly k tasks, self-scheduled over the pool's
// workers: fn(task, worker). Each task runs on exactly one worker; at
// most Threads() run concurrently. This is the "one partition per thread"
// execution the paper's atomic-free path requires. One worker (or
// k <= 1) executes inline.
//
// A panicking task does not crash the process: the first panic value is
// captured, the remaining workers stop claiming tasks, and the panic is
// re-raised on the calling goroutine once every worker has exited — the
// same surfacing an inline (single-worker) run gets for free. Callers
// that recover therefore observe no leaked worker goroutines. Tasks
// already running when the panic fires still complete. The value is
// re-raised verbatim so recover sites can inspect it, at the price of
// the worker's original stack trace; a task that needs the faulting
// frames preserved should capture them itself before panicking. Every
// loop of the pool surfaces panics this way.
func (p *Pool) ParallelTasks(k int, fn func(task, worker int)) {
	if k <= 0 {
		return
	}
	workers := min(p.threads, k)
	if workers <= 1 {
		for t := 0; t < k; t++ {
			fn(t, 0)
		}
		return
	}
	var next int64
	run(workers, func(w int, stopped func() bool) {
		for !stopped() {
			t := int(atomic.AddInt64(&next, 1)) - 1
			if t >= k {
				return
			}
			fn(t, w)
		}
	})
}

// run starts body(w, stopped) on one goroutine per worker and waits for
// all of them. The first panic among them sets stopped, so loops that
// check it claim no further work, and is re-raised on the caller once
// every worker has exited.
func run(workers int, body func(w int, stopped func() bool)) {
	var stop atomic.Bool
	var panicMu sync.Mutex
	var panicVal any
	stopped := stop.Load
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if panicVal == nil {
						panicVal = r
					}
					panicMu.Unlock()
					stop.Store(true)
				}
			}()
			body(w, stopped)
		}()
	}
	wg.Wait()
	if panicVal != nil {
		panic(panicVal)
	}
}

// DefaultChunk is the grain for vertex-indexed parallel-for loops; 1024
// vertices amortises the scheduling counter while staying fine enough to
// balance power-law degree skew.
const DefaultChunk = 1024
