package shard

// Cross-query sweep co-scheduling. When N sessions of one Host run
// dense sweeps concurrently, each would walk (most of) the store — the
// same disk pass N times. The passBoard batches them onto one: the
// first dense sweep to arrive opens a *pass* and becomes
// its leader; any dense sweep that starts on the same store while the
// pass is open joins as a follower instead of fetching. The leader
// publishes every staged shard as it applies it; a follower applies
// the published shards its own plan needs (its own operator, its own
// frontier, its own vertex state — only the resident bytes are shared)
// and, once the pass closes, fetches just the uncovered remainder
// through its own pipeline, which by then is mostly shared-cache hits.
//
// Correctness rides on the same argument as every other reordering in
// this engine: shards own disjoint 64-aligned destination ranges and
// operators write destination state only, so a follower applying its
// plan as {leader's publication order} + {remainder in plan order} is
// just another permutation of that plan — bit-identical to a solo
// sweep. The leader never blocks on a follower (publications are
// non-blocking sends to bounded channels, dropped when a follower lags
// — the remainder fetch covers anything missed), and a follower never
// blocks past the pass's close (the leader closes it on every exit
// path, panics included), so neither side can deadlock the other.

import (
	"sync"
	"sync/atomic"
)

// passBoard coordinates co-scheduled sweeps over one store; one lives
// on each Host. The zero value is ready to use.
type passBoard struct {
	mu     sync.Mutex
	active *sweepPass
}

// sweepPass is one open disk pass: the leader's sweep plus the
// followers snooping its publications.
type sweepPass struct {
	board *passBoard
	mu    sync.Mutex
	done  bool
	subs  map[*passSub]struct{}
}

// passSub is one follower's subscription to a pass.
type passSub struct {
	pass *sweepPass
	ch   chan *resident
}

// lead opens a pass with the caller as leader, or returns nil when a
// pass is already open (the caller should join it instead).
func (b *passBoard) lead() *sweepPass {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.active != nil {
		return nil
	}
	p := &sweepPass{board: b, subs: make(map[*passSub]struct{})}
	b.active = p
	return p
}

// join subscribes to the open pass with a publication buffer of buf
// shards, or returns nil when no pass is open (or it closed while
// joining).
func (b *passBoard) join(buf int) *passSub {
	b.mu.Lock()
	p := b.active
	b.mu.Unlock()
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.done {
		return nil
	}
	s := &passSub{pass: p, ch: make(chan *resident, buf)}
	p.subs[s] = struct{}{}
	return s
}

// publish offers one staged shard to every follower. Non-blocking by
// design: a follower that cannot keep up misses the shard and fetches
// it in its remainder pass — the leader's latency is never hostage to
// a slow follower.
func (p *sweepPass) publish(sh *resident) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for s := range p.subs {
		select {
		case s.ch <- sh:
		default:
		}
	}
}

// close ends the pass: followers' channels close (their snoop loops
// drain and move on to their remainders) and the board frees for the
// next leader. Idempotent; the leader defers it on every exit path.
func (p *sweepPass) close() {
	p.mu.Lock()
	if !p.done {
		p.done = true
		for s := range p.subs {
			close(s.ch)
			delete(p.subs, s)
		}
	}
	p.mu.Unlock()
	p.board.mu.Lock()
	if p.board.active == p {
		p.board.active = nil
	}
	p.board.mu.Unlock()
}

// unsub detaches a follower early — the panic path. Closing the
// channel here is safe: membership in subs means the leader has not
// closed it, and the follower that owns it is no longer receiving.
func (s *passSub) unsub() {
	p := s.pass
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.subs[s]; ok {
		delete(p.subs, s)
		close(s.ch)
	}
}

// sweepPipelined runs one EdgeMap's staged, windowed sweep — the one
// dense/sparse execution path. A dense sweep additionally co-schedules
// with the host's other sessions: it leads a pass (publishing every
// shard as its first task is claimed — to nobody, on a lone session)
// or follows one already open.
func (e *Engine) sweepPipelined(plan []int, sparse bool, k *sweepKernel) {
	var publish func(*resident)
	if !sparse {
		if pass := e.board.lead(); pass != nil {
			// close is deferred before the window's stop, so it runs
			// after the pipeline has fully drained — every publication
			// precedes the close on every exit path.
			defer pass.close()
			if e.onCoLead != nil {
				e.onCoLead()
			}
			publish = pass.publish
		} else if sub := e.board.join(e.st.NumShards()); sub != nil {
			e.coFollow(sub, plan, k)
			return
		}
	}
	w := e.startSweep(plan, k, publish)
	// The teardown barrier runs even when wait re-raises a failure.
	defer w.stop()
	w.wait()
}

// coFollow executes a dense sweep as a follower of an open pass: apply
// the leader's publications that this plan needs, each over the whole
// pool, then fetch the uncovered remainder (in plan order) through the
// session's own pipeline. The result is a permutation of the plan —
// bit-identical.
func (e *Engine) coFollow(sub *passSub, plan []int, k *sweepKernel) {
	atomic.AddInt64(&e.stats.CoScheduledSweeps, 1)
	if e.onCoFollow != nil {
		e.onCoFollow()
	}
	// If the operator panics mid-snoop, detach so the leader stops
	// publishing into a dead subscription; the panic unwinds to the
	// caller.
	defer sub.unsub()
	need := make(map[int]bool, len(plan))
	for _, si := range plan {
		need[si] = true
	}
	for sh := range sub.ch {
		if !need[sh.idx] {
			continue
		}
		delete(need, sh.idx)
		atomic.AddInt64(&e.stats.CoSharedShards, 1)
		e.applyShard(sh, k)
	}
	if len(need) == 0 {
		return
	}
	rest := make([]int, 0, len(need))
	for _, si := range plan {
		if need[si] {
			rest = append(rest, si)
		}
	}
	w := e.startSweep(rest, k, nil)
	defer w.stop()
	w.wait()
}
