package shard

// The sweep pipeline: the paper's "COO + na" discipline run as one task
// stream, the way PCPM self-schedules partitions over one thread pool.
// A single staging goroutine walks the shard plan in order, fetching
// each shard (a cache hit, else a synchronous read under the host's
// read lock) onto a plan-ordered queue; that keeps the cache's get/add
// sequence that of a sequential sweep. The pool's W workers claim the
// staged shards' tasks, the 64-aligned destination sub-ranges
// taskOffsets cuts: a worker takes the oldest staged shard and claims
// its tasks front to back, and a worker that finds no staged shard
// helps the oldest begun shard with tasks left, from its back. So a
// long plan keeps up to W shards in flight, each mostly on one worker,
// and a lone shard (a one-shard plan, or the tail) is split across
// every idle worker. Results are bit-identical to a sequential sweep:
// tasks own disjoint destination sub-ranges, operators write
// destination state only, and each destination's in-edges stay in one
// task, in file order.
//
// A shard is applying from its first claimed task until its last task
// finishes, when its cache pin drops. In units of slots — how many of
// the store's largest decoded shard the cache budget holds — at most
// max(1, min(2W, slots − applying)) shards sit staged (fetched, no task
// claimed), and staged plus applying shards never exceed slots + 1: the
// cache budget plus the read in flight. Every staged or applying shard
// is pinned, so a lone session's pins fit its budget whenever the
// budget holds more shards than the workers plus one.

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// loadFailure wraps a shard-read error so teardown can tell it apart
// from an operator panic: load failures are surfaced with the engine's
// "shard: engine sweep:" prefix, operator panics are re-raised verbatim.
type loadFailure struct{ err error }

// windowShard is one staged shard with its task bookkeeping. Tasks are
// claimed and retired with atomics, so a worker applying its own shard
// never takes the window's mutex between tasks.
type windowShard struct {
	stagedShard
	span  atomic.Uint64 // the unclaimed tasks [next, end), packed next<<32 | end
	left  atomic.Int32  // tasks not yet finished; the pin drops at zero
	began bool          // its first task was claimed before any abort (set under the mutex)
}

// claim takes the shard's first unclaimed task, or its last one when
// back is set; -1 when none is left.
func (s *windowShard) claim(back bool) int {
	for {
		v := s.span.Load()
		next, end := int(v>>32), int(uint32(v))
		if next >= end {
			return -1
		}
		task, nv := next, v+1<<32
		if back {
			task, nv = end-1, v-1
		}
		if s.span.CompareAndSwap(v, nv) {
			return task
		}
	}
}

// sweepWindow owns one sweep's pipeline: the staging goroutine, the
// pool's workers and the bounded-window accounting that couples them to
// the cache budget.
type sweepWindow struct {
	e       *Engine
	k       *sweepKernel
	publish func(*resident) // nil unless the sweep leads a co-scheduled pass

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []*windowShard // staged shards no task of which is claimed, in plan order
	begun    []*windowShard // shards with a claimed task, in plan order; a prefix may be claimed out
	staged   int            // shards holding a window credit: being fetched, or queued
	applying int            // shards with a claimed task and an unfinished one
	staging  bool           // the stager may still append
	aborted  atomic.Bool    // written under mu, read anywhere
	cause    any            // first failure: a loadFailure or an operator panic value

	workers    sync.WaitGroup // the pool workers other than the sweep goroutine's
	stagerDone chan struct{}  // closed when the staging goroutine has exited
}

// startSweep launches the pipeline for a planned shard sequence: the
// staging goroutine plus W−1 workers; wait runs worker 0 on the sweep
// goroutine. The caller must invoke wait, and should defer stop as the
// teardown barrier, so no sweep leaks goroutines even when wait
// re-raises a failure.
func (e *Engine) startSweep(plan []int, k *sweepKernel, publish func(*resident)) *sweepWindow {
	w := &sweepWindow{e: e, k: k, publish: publish, staging: true, stagerDone: make(chan struct{})}
	w.cond = sync.NewCond(&w.mu)
	go w.stage(plan)
	for worker := 1; worker < e.pool.Threads(); worker++ {
		w.workers.Add(1)
		go func() {
			defer w.workers.Done()
			w.work(worker)
		}()
	}
	return w
}

// stage is the staging goroutine: for each plan entry, in order, it
// claims a window credit, fetches the shard (admit) and appends it to
// the queue. A load failure aborts the sweep.
func (w *sweepWindow) stage(plan []int) {
	defer close(w.stagerDone)
	defer func() {
		w.mu.Lock()
		w.staging = false
		w.cond.Broadcast()
		w.mu.Unlock()
	}()
	for _, si := range plan {
		if !w.claim() {
			return
		}
		st, err := w.e.admit(si)
		if err != nil {
			w.fail(loadFailure{err})
			return
		}
		ws := &windowShard{stagedShard: st}
		tasks := len(st.sh.off) - 1
		ws.span.Store(uint64(tasks))
		ws.left.Store(int32(tasks))
		w.mu.Lock()
		w.queue = append(w.queue, ws)
		depth, applying := w.staged, w.applying
		w.cond.Broadcast()
		w.mu.Unlock()
		if h := w.e.onStage; h != nil {
			h(si, depth, applying)
		}
	}
}

// claim blocks until the window has a credit for the next plan entry
// and takes it; false means the sweep aborted.
func (w *sweepWindow) claim() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	for !w.aborted.Load() && (w.staged >= w.limitLocked() || w.staged+w.applying > w.e.slots) {
		w.cond.Wait()
	}
	if w.aborted.Load() {
		return false
	}
	w.staged++
	return true
}

// stagedPerWorker is the window's depth cap per pool worker. Not one:
// the stager gets a core back only when a worker idles, and W staged
// shards drain in about one shard's time (on a two-core host a cap of
// W measured 13 % slower on sparse-frontier's short sweeps).
const stagedPerWorker = 2

// limitLocked is the dynamic window bound: the depth cap, shrunk so
// staged shards plus applying ones stay inside the cache budget,
// floored at one so a one-shard budget still keeps one shard staged
// ahead of the apply.
func (w *sweepWindow) limitLocked() int {
	return max(1, min(stagedPerWorker*w.e.pool.Threads(), w.e.slots-w.applying))
}

// work is one pool worker: it claims tasks until the plan is
// exhausted. After an abort it keeps claiming — and finishing unrun —
// whatever is staged, so every pin drops. An operator panic is recorded
// as the sweep's failure and re-raised by wait.
func (w *sweepWindow) work(worker int) {
	var own *windowShard
	for {
		s, task, run, ok := w.next(own)
		if !ok {
			return
		}
		if task == 0 {
			own = s
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					w.fail(r)
				}
			}()
			if task == 0 && s.began {
				if w.publish != nil {
					w.publish(s.sh)
				}
				w.e.beginApply(s.sh.idx)
			}
			if run {
				w.k.apply(s.sh, task, worker)
			}
		}()
		w.finish(s)
	}
}

// next claims a task for a worker whose last shard taken from the
// queue is own: own's next task; else the first task of the oldest
// staged shard; else the last unclaimed task of the oldest begun shard.
// It blocks while there is nothing to claim and the stager may still
// append. run is false once the sweep has aborted; ok is false when
// nothing is left to claim and the stager has exited.
func (w *sweepWindow) next(own *windowShard) (s *windowShard, task int, run, ok bool) {
	if own != nil {
		if task = own.claim(false); task >= 0 {
			return own, task, !w.aborted.Load(), true
		}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for {
		if len(w.queue) > 0 {
			s = w.queue[0]
			w.queue = w.queue[1:]
			s.began = !w.aborted.Load()
			w.staged--
			w.applying++
			w.begun = append(w.begun, s)
			w.cond.Broadcast()
			return s, s.claim(false), s.began, true
		}
		// A claimed-out shard never gains a task again, so the oldest
		// begun shard with one left is found by dropping from the front.
		for len(w.begun) > 0 {
			if task = w.begun[0].claim(true); task >= 0 {
				return w.begun[0], task, !w.aborted.Load(), true
			}
			w.begun = w.begun[1:]
		}
		if !w.staging {
			return nil, 0, false, false
		}
		w.cond.Wait()
	}
}

// finish retires one claimed task. The shard's last task drops its pin
// and leaves the applying set, which can widen the window bound.
func (w *sweepWindow) finish(s *windowShard) {
	if s.left.Add(-1) != 0 {
		return
	}
	// Drop the pin before the applying count, so the stager's next
	// credit never meets a budget still holding this shard.
	s.release()
	w.mu.Lock()
	w.applying--
	w.cond.Broadcast()
	w.mu.Unlock()
	if s.began {
		w.e.endApply(s.sh.idx)
	}
}

// fail records the sweep's first failure and aborts the pipeline; later
// failures (a second worker panicking while the first unwinds) are
// dropped, matching errgroup-style first-error semantics.
func (w *sweepWindow) fail(cause any) {
	w.mu.Lock()
	if !w.aborted.Load() {
		w.aborted.Store(true)
		w.cause = cause
	}
	w.cond.Broadcast()
	w.mu.Unlock()
}

// wait runs worker 0 on the sweep goroutine, blocks until the pipeline
// has fully drained, then re-raises the sweep's failure — if any — there:
// load errors with the engine's panic prefix, operator panics verbatim.
// EdgeMap cannot return an error through api.System.
func (w *sweepWindow) wait() {
	w.work(0)
	<-w.stagerDone
	w.workers.Wait()
	w.mu.Lock()
	cause := w.cause
	w.mu.Unlock()
	switch c := cause.(type) {
	case nil:
	case loadFailure:
		panic(fmt.Sprintf("shard: engine sweep: %v", c.err))
	default:
		panic(c)
	}
}

// stop is the teardown barrier: it aborts whatever is still pending and
// returns only after the staging goroutine and every worker have
// exited, so no further cache or stats mutation happens. A read still
// in flight at the abort finishes first, and its pin drops unapplied.
// It is idempotent and safe after wait.
func (w *sweepWindow) stop() {
	w.fail(nil)
	<-w.stagerDone
	w.workers.Wait()
}
