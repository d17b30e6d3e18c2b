package shard

// The sweep pipeline's concurrency model (PCPM-style pipelining,
// Lakhotia et al., generalised to Polymer's all-sockets-at-once
// execution): a sweep's shard plan is known up front, so a single
// staging goroutine walks it in order, fetching each shard — a cache
// hit, else a synchronous read under the host's read lock — and handing
// it to the apply goroutine of the modelled NUMA domain that owns it.
// Up to min(D, Threads) shards are applied simultaneously, one per
// domain, each by its own domain's worker view (the cap keeps aggregate
// parallelism at the pool size when domains outnumber workers); this is
// safe, and bit-identical to a sequential sweep, because shards own
// disjoint 64-aligned destination ranges and every operator writes
// destination state only, so no two concurrent applies ever touch the
// same vertex or the same next-frontier bitmap word. Fetching in plan
// order on one goroutine is also what keeps the cache's get/add
// sequence that of a sequential sweep, and what keeps a stalled read
// from ever being a later plan entry than the one the stager waits on.
//
// The stager is throttled by a bounded window, counted in slots — how
// many of the store's largest decoded shard the cache's byte budget
// holds: at most max(1, min(D, slots − in-flight applies)) shards may
// sit staged ahead (fetched, not yet begun applying), and staged plus
// mid-apply shards together never exceed slots + 1, the engine's
// footprint of "the cache budget plus the read in flight". Every staged
// or applying shard holds a cache pin, so this bound is what keeps a
// lone session's pins inside the budget — no refused inserts — whenever
// the budget holds more shards than the concurrent applies plus one.

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// loadFailure wraps a shard-read error so teardown can tell it apart
// from an operator panic: load failures are surfaced with the engine's
// "shard: engine sweep:" prefix, operator panics are re-raised verbatim.
type loadFailure struct{ err error }

// sweepWindow owns one sweep's pipeline: the staging goroutine, the
// per-domain apply goroutines and the bounded-window accounting that
// couples them to the cache budget.
type sweepWindow struct {
	e        *Engine
	k        int // window depth cap: the domain count
	applyCap int // max simultaneous applies: min(Domains, Pool.Threads())

	mu       sync.Mutex
	cond     *sync.Cond
	staged   int // shards holding a window credit: being fetched or fetched, not yet begun applying
	applying int // shards mid-apply across all domains
	aborted  bool
	cause    any // first failure: a loadFailure or an operator panic value

	queues     []chan stagedShard // per-domain hand-off, capacity = that domain's plan share
	applyWG    sync.WaitGroup     // one count per running apply goroutine
	stagerDone chan struct{}      // closed when the staging goroutine has exited
}

// startSweep launches the pipeline for a planned shard sequence: one
// apply goroutine per domain with work, fed in plan order through
// per-domain queues, plus the staging goroutine. apply runs one
// resident shard (it is the closure over this EdgeMap's frontier and
// operator state).
// The caller must invoke wait, and should defer stop as the teardown
// barrier — stop is idempotent and returns only after every pipeline
// goroutine has exited, so no sweep leaks goroutines even when wait
// re-raises a failure.
func (e *Engine) startSweep(plan []int, apply func(*resident)) *sweepWindow {
	// Concurrency never exceeds the pool: a machine modelled with T
	// workers runs at most T domain applies at once, so Threads keeps
	// meaning total parallelism even when Split had to deal borrowed
	// worker IDs to more domains than workers.
	w := &sweepWindow{
		e:          e,
		k:          len(e.domains),
		applyCap:   max(1, min(len(e.domains), e.pool.Threads())),
		stagerDone: make(chan struct{}),
	}
	w.cond = sync.NewCond(&w.mu)
	perDomain := make([]int, len(e.domains))
	for _, si := range plan {
		perDomain[e.domainOf[si]]++
	}
	w.queues = make([]chan stagedShard, len(e.domains))
	for d, n := range perDomain {
		if n == 0 {
			continue
		}
		// Full-capacity queues: the stager never blocks on a hand-off,
		// only on window credits, so teardown has a single wake-up path.
		w.queues[d] = make(chan stagedShard, n)
		w.applyWG.Add(1)
		go w.applyLoop(d, apply)
	}
	go w.stage(plan)
	return w
}

// stage is the staging goroutine: for each plan entry, in order, it
// claims a window credit, fetches the shard (admit) and hands it to its
// domain's apply queue. On a load failure or an abort it closes the
// queues early; the apply goroutines drain and exit.
func (w *sweepWindow) stage(plan []int) {
	defer close(w.stagerDone)
	defer func() {
		for _, q := range w.queues {
			if q != nil {
				close(q)
			}
		}
	}()
	for _, si := range plan {
		if !w.claim() {
			return
		}
		sh, err := w.e.admit(si)
		if err != nil {
			w.release()
			w.fail(loadFailure{err})
			return
		}
		w.recordStaged(si)
		w.queues[w.e.domainOf[si]] <- sh
	}
}

// claim blocks until the window has a credit for the next plan entry
// and takes it; false means the sweep aborted.
func (w *sweepWindow) claim() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	for !w.aborted && (w.staged >= w.limitLocked() || w.staged+w.applying > w.e.slots) {
		w.cond.Wait()
	}
	if w.aborted {
		return false
	}
	w.staged++
	return true
}

// applyLoop is one domain's apply goroutine: it applies the domain's
// shards strictly in plan order, concurrently with the other domains'
// loops. An operator panic is captured, recorded as the sweep's failure
// and re-raised later on the sweep goroutine by wait — the loop keeps
// draining its queue so the stager can never wedge on teardown.
func (w *sweepWindow) applyLoop(d int, apply func(*resident)) {
	defer w.applyWG.Done()
	for st := range w.queues[d] {
		w.beginApply()
		func() {
			defer w.endApply()
			// Drop the cache pin admit took for this shard on every exit:
			// applied, drained after an abort, or panicked mid-apply — a
			// leaked pin would make the shard unevictable for every
			// other query on the store.
			defer st.release()
			defer func() {
				if r := recover(); r != nil {
					w.fail(r)
				}
			}()
			if !w.isAborted() {
				apply(st.sh)
			}
		}()
	}
}

// limitLocked is the dynamic window bound: the depth cap k, shrunk so
// staged shards plus in-flight applies stay inside the cache budget,
// floored at one so a one-shard budget still keeps one shard staged
// ahead of the apply.
func (w *sweepWindow) limitLocked() int {
	return max(1, min(w.k, w.e.slots-w.applying))
}

// release returns an unused credit (the read behind it failed).
func (w *sweepWindow) release() {
	w.mu.Lock()
	w.staged--
	w.cond.Broadcast()
	w.mu.Unlock()
}

// recordStaged samples the window depth right after a shard became
// resident, feeding the WindowDepths histogram and the test hook.
func (w *sweepWindow) recordStaged(si int) {
	w.mu.Lock()
	depth, applying := w.staged, w.applying
	w.mu.Unlock()
	if depth >= 1 && depth < len(w.e.stats.WindowDepths) {
		atomic.AddInt64(&w.e.stats.WindowDepths[depth], 1)
	}
	if h := w.e.onStage; h != nil {
		h(si, depth, applying)
	}
}

// beginApply moves one shard from the window into the applying set,
// freeing its credit so the stager can run ahead. It blocks while the
// engine is already running applyCap simultaneous applies, so aggregate
// apply parallelism never exceeds the pool's Threads (an abort lifts
// the wait; the caller then skips the apply and drains).
func (w *sweepWindow) beginApply() {
	w.mu.Lock()
	for !w.aborted && w.applying >= w.applyCap {
		w.cond.Wait()
	}
	w.staged--
	w.applying++
	w.cond.Broadcast()
	w.mu.Unlock()
}

// endApply retires one in-flight apply, which can widen the dynamic
// window bound.
func (w *sweepWindow) endApply() {
	w.mu.Lock()
	w.applying--
	w.cond.Broadcast()
	w.mu.Unlock()
}

func (w *sweepWindow) isAborted() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.aborted
}

// fail records the sweep's first failure and aborts the pipeline; later
// failures (a second domain panicking while the first unwinds) are
// dropped, matching errgroup-style first-error semantics.
func (w *sweepWindow) fail(cause any) {
	w.mu.Lock()
	if !w.aborted {
		w.aborted = true
		w.cause = cause
	}
	w.cond.Broadcast()
	w.mu.Unlock()
}

// wait blocks until the pipeline has fully drained, then re-raises the
// sweep's failure — if any — on the calling (sweep) goroutine: load
// errors with the engine's panic prefix, operator panics verbatim.
// EdgeMap cannot return an error through api.System.
func (w *sweepWindow) wait() {
	<-w.stagerDone
	w.applyWG.Wait()
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
// returns only after the staging goroutine and every apply goroutine
// have exited, so no further cache or stats mutation happens. A read
// still in flight at the abort finishes first, and its shard drains
// through its apply loop unapplied. It is idempotent and safe after
// wait.
func (w *sweepWindow) stop() {
	w.mu.Lock()
	w.aborted = true
	w.cond.Broadcast()
	w.mu.Unlock()
	<-w.stagerDone
	w.applyWG.Wait()
}
