package shard

// The sweep pipeline's concurrency model (PCPM-style pipelining,
// Lakhotia et al., generalised to Polymer's all-sockets-at-once
// execution): a sweep's shard plan is known up front, so a single
// staging goroutine walks it in order, issuing uncached reads through
// the internal/aio reader — up to Options.IODepth in flight at once,
// each executed by a worker of the modelled NUMA domain that owns the
// shard — and reaping the completions strictly in plan order, handing
// each shard to the apply goroutine of its domain. Up to
// min(D, Threads) shards are applied simultaneously, one per domain,
// each by its own domain's worker view (the cap keeps aggregate
// parallelism at the pool size when domains outnumber workers); this
// is safe, and bit-identical to a sequential sweep, because shards own
// disjoint 64-aligned destination ranges and every operator writes
// destination state only, so no two concurrent applies ever touch the
// same vertex or the same next-frontier bitmap word.
//
// The split between issue and reap is what keeps deeper IODepths
// bit-identical *and* stats-identical: reads complete out of order,
// but the cache is only consulted and mutated at the reap point, on
// the staging goroutine, in plan order — the exact get/add sequence a
// synchronous sweep would issue, which is also why the planner's
// shadow-LRU prediction (PlannedCacheHits) does not depend on depth.
//
// The stager is throttled by a bounded window, counted in slots — how
// many of the store's largest decoded shard the cache's byte budget
// holds: at most max(IODepth, min(Window, slots − in-flight applies))
// shards may sit staged ahead (issued, loading, loaded or promoted, not
// yet begun applying), and staged plus mid-apply shards together never
// exceed slots + IODepth, the engine's footprint of "the cache budget
// plus the reads in flight". Every staged or applying shard holds a
// cache pin, so this bound is what keeps a lone session's pins inside
// the budget — no refused inserts — whenever the budget holds more
// shards than IODepth plus the concurrent applies.

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/aio"
)

// loadFailure wraps a shard-read error so teardown can tell it apart
// from an operator panic: load failures are surfaced with the engine's
// "shard: engine sweep:" prefix, operator panics are re-raised verbatim.
type loadFailure struct{ err error }

// stagedRead is one plan entry the stager has claimed a window credit
// for: ticket is its in-flight async read, or nil when the stager
// predicted the cache would serve it at reap time.
type stagedRead struct {
	si     int
	ticket *aio.Ticket[loadResult]
}

// sweepWindow owns one sweep's pipeline: the staging goroutine, the
// aio reader, the per-domain apply goroutines and the bounded-window
// accounting that couples them to the cache budget.
type sweepWindow struct {
	e        *Engine
	k        int // window depth cap (Options.Window)
	depth    int // uncached-read budget (Options.IODepth)
	applyCap int // max simultaneous applies: min(Domains, Pool.Threads())
	reader   *aio.Reader[loadResult]

	mu       sync.Mutex
	cond     *sync.Cond
	staged   int // shards holding a window credit: issued, loading, loaded or promoted, not yet begun applying
	applying int // shards mid-apply across all domains
	aborted  bool
	cause    any // first failure: a loadFailure or an operator panic value

	queues     []chan stagedShard // per-domain hand-off, capacity = that domain's plan share
	applyWG    sync.WaitGroup     // one count per running apply goroutine
	stagerDone chan struct{}      // closed when the staging goroutine has exited
}

// startSweep launches the pipeline for a planned shard sequence: one
// apply goroutine per domain with work, fed in plan order through
// per-domain queues, the aio reader sized to the plan's per-domain
// shares (drawing reads from the host-wide budget, so the device sees
// at most IODepth uncached reads in flight across every concurrent
// query on the store), plus the staging goroutine. apply runs one
// resident shard (it is the closure over this EdgeMap's frontier and
// operator state).
// The caller must invoke wait, and should defer stop as the teardown
// barrier — stop is idempotent and returns only after every pipeline
// goroutine (the reader's workers included) has exited, so no sweep
// leaks goroutines even when wait re-raises a failure.
func (e *Engine) startSweep(plan []int, apply func(*resident)) *sweepWindow {
	w := &sweepWindow{e: e, k: e.opts.Window, depth: e.opts.IODepth, stagerDone: make(chan struct{})}
	// Concurrency never exceeds the pool: a machine modelled with T
	// workers runs at most T domain applies at once, so Threads keeps
	// meaning total parallelism even when Split had to deal borrowed
	// worker IDs to more domains than workers.
	w.applyCap = len(e.domains)
	if t := e.pool.Threads(); t < w.applyCap {
		w.applyCap = t
	}
	if w.applyCap < 1 {
		w.applyCap = 1
	}
	w.cond = sync.NewCond(&w.mu)
	perDomain := make([]int, len(e.domains))
	for _, si := range plan {
		perDomain[e.domainOf[si]]++
	}
	// The reader's queues are sized to the per-domain plan shares, so
	// Submit never blocks; its completion callback wakes the stager,
	// which may be waiting in pump for its FIFO head to become ready.
	// The broadcast must hold w.mu: pump checks Ready() under the lock
	// and then waits, so an unserialized completion could slip into
	// that gap and its wakeup would be lost — if it were the last wake
	// source, the stager would block forever.
	notify := func() {
		w.mu.Lock()
		w.cond.Broadcast()
		w.mu.Unlock()
	}
	w.reader = aio.NewShared[loadResult](perDomain, e.ioBudget, notify)
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

// stage is the staging goroutine: for each plan entry it claims a
// window credit (reaping ready reads while it waits), predicts the
// cache's answer with a non-promoting peek, and either issues an async
// read on the shard's domain queue or records a predicted hit.
// Completions are reaped — admitted to the cache, counted, handed to
// the applies — strictly in plan order by pump, never here. On a load
// failure or an abort it closes the queues early; the apply goroutines
// drain and exit.
func (w *sweepWindow) stage(plan []int) {
	defer close(w.stagerDone)
	defer func() {
		for _, q := range w.queues {
			if q != nil {
				close(q)
			}
		}
	}()
	var fifo []stagedRead
	for _, si := range plan {
		if !w.pump(&fifo, true) {
			return
		}
		var t *aio.Ticket[loadResult]
		if !w.e.cache.peek(cacheKey{w.e.st, si}) {
			t = w.submit(si)
		}
		fifo = append(fifo, stagedRead{si: si, ticket: t})
	}
	w.pump(&fifo, false)
}

// submit issues shard si's async read on its domain's queue.
func (w *sweepWindow) submit(si int) *aio.Ticket[loadResult] {
	return w.reader.Submit(int(w.e.domainOf[si]), func() (loadResult, error) {
		return w.e.readShard(si)
	})
}

// pump drives the reap side of the pipeline while the stager has
// something to wait for: every time the FIFO head's read has completed
// (or the head never needed one), the head is reaped — admitted to the
// cache and counted in plan order, recorded in the window stats, handed
// to its domain's apply queue. With wantCredit, pump returns true once
// it has claimed a window credit for the next plan entry; without, it
// returns true once the FIFO has fully drained (end of plan). false
// means the sweep aborted or a load failed — the failed shard's credit
// is released and the failure recorded here.
func (w *sweepWindow) pump(fifo *[]stagedRead, wantCredit bool) bool {
	w.mu.Lock()
	for {
		if w.aborted {
			w.mu.Unlock()
			return false
		}
		if len(*fifo) > 0 {
			head := (*fifo)[0]
			if head.ticket == nil || head.ticket.Ready() {
				*fifo = (*fifo)[1:]
				w.mu.Unlock()
				if head.ticket == nil && !w.e.cache.peek(cacheKey{w.e.st, head.si}) {
					// The issue-time hit prediction was invalidated by an
					// interleaved eviction (an earlier reap pushed this
					// shard off the cold end). Read it through the reader
					// like any other miss, so the IODepth bound covers
					// the fallback too; the planner simulation already
					// predicted a miss at this plan position, so the
					// stats stay exact.
					head.ticket = w.submit(head.si)
				}
				sh, err := w.e.admit(head.si, head.ticket)
				if err != nil {
					w.release()
					w.fail(loadFailure{err})
					return false
				}
				w.recordStaged(head.si)
				w.queues[w.e.domainOf[head.si]] <- sh
				w.mu.Lock()
				continue
			}
		}
		if wantCredit && w.staged < w.limitLocked() &&
			w.staged+w.applying < w.e.slots+w.depth {
			w.staged++
			w.mu.Unlock()
			return true
		}
		if !wantCredit && len(*fifo) == 0 {
			w.mu.Unlock()
			return true
		}
		w.cond.Wait()
	}
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

// limitLocked is the dynamic window bound: the configured depth k,
// shrunk so staged shards plus in-flight applies stay inside the cache
// budget, floored at IODepth so the read pipeline never self-throttles
// below its budget (at IODepth = 1 this is the original floor of one:
// with a one-shard budget the pre-aio pipeline already kept one shard
// staged ahead of the apply).
func (w *sweepWindow) limitLocked() int {
	return max(w.depth, min(w.k, w.e.slots-w.applying))
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
// returns only after the staging goroutine, every apply goroutine and
// the aio reader's workers have exited, so no further cache or stats
// mutation happens. Reads still in flight at the abort finish on their
// workers and are discarded unreaped (their tickets die with the
// stager's FIFO); reads still queued resolve ErrClosed without
// executing. It is idempotent and safe after wait.
func (w *sweepWindow) stop() {
	w.mu.Lock()
	w.aborted = true
	w.cond.Broadcast()
	w.mu.Unlock()
	<-w.stagerDone
	w.applyWG.Wait()
	w.reader.Close()
}
