package aio

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// ready reports whether t has resolved, without blocking.
func ready[T any](t *Ticket[T]) bool {
	select {
	case <-t.done:
		return true
	default:
		return false
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReaderDepthBudget proves the reader-wide in-flight bound: with a
// depth-2 budget over one domain, exactly two of five gated reads run
// at once — the third starts only when one of the first two retires.
func TestReaderDepthBudget(t *testing.T) {
	const depth, n = 2, 5
	release := make(chan struct{})
	var running, peak int64
	r := New[int]([]int{n}, depth, nil)
	defer r.Close()

	var tickets []*Ticket[int]
	for i := 0; i < n; i++ {
		idx := i
		tickets = append(tickets, r.Submit(0, func() (int, error) {
			c := atomic.AddInt64(&running, 1)
			for {
				p := atomic.LoadInt64(&peak)
				if c <= p || atomic.CompareAndSwapInt64(&peak, p, c) {
					break
				}
			}
			<-release
			atomic.AddInt64(&running, -1)
			return idx, nil
		}))
	}

	waitFor(t, "the budget to fill", func() bool { return atomic.LoadInt64(&running) == depth })
	// Give excess reads every chance to (wrongly) start.
	time.Sleep(50 * time.Millisecond)
	if got := atomic.LoadInt64(&running); got != depth {
		t.Fatalf("%d reads in flight with depth %d", got, depth)
	}
	close(release)
	for i, tk := range tickets {
		v, err := tk.Wait()
		if err != nil || v != i {
			t.Fatalf("ticket %d resolved (%d, %v), want (%d, nil)", i, v, err, i)
		}
	}
	if p := atomic.LoadInt64(&peak); p != depth {
		t.Fatalf("observed peak %d, want exactly %d", p, depth)
	}
}

// TestReaderSlowReadsReorderCompletion injects a slow read and proves
// completions reorder freely across tickets: the second submission
// (another domain, fast) resolves while the first is still blocked,
// and each ticket still carries its own result.
func TestReaderSlowReadsReorderCompletion(t *testing.T) {
	slow := make(chan struct{})
	r := New[string]([]int{1, 1}, 2, nil)
	defer r.Close()

	t0 := r.Submit(0, func() (string, error) {
		<-slow
		return "slow", nil
	})
	t1 := r.Submit(1, func() (string, error) { return "fast", nil })

	if v, err := t1.Wait(); err != nil || v != "fast" {
		t.Fatalf("fast ticket resolved (%q, %v)", v, err)
	}
	if ready(t0) {
		t.Fatal("slow ticket reported ready while its read was still blocked")
	}
	close(slow)
	if v, err := t0.Wait(); err != nil || v != "slow" {
		t.Fatalf("slow ticket resolved (%q, %v)", v, err)
	}
}

// TestReaderFaultInjection drives the reader through a flaky backing
// store: short reads (io.ErrUnexpectedEOF), transient failures that
// succeed on resubmission, and interleaved healthy reads. Every fault
// stays confined to its own ticket and the reader remains fully
// serviceable afterwards.
func TestReaderFaultInjection(t *testing.T) {
	r := New[int]([]int{16, 16}, 3, nil)
	defer r.Close()

	// A short read surfaces as its ticket's error.
	short := r.Submit(0, func() (int, error) { return 0, io.ErrUnexpectedEOF })
	if _, err := short.Wait(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("short read resolved with %v, want io.ErrUnexpectedEOF", err)
	}

	// A transiently failing source: the first attempt errors, the
	// caller resubmits, the retry succeeds.
	var attempts int64
	flaky := func() (int, error) {
		if atomic.AddInt64(&attempts, 1) == 1 {
			return 0, fmt.Errorf("transient: device busy")
		}
		return 42, nil
	}
	if _, err := r.Submit(1, flaky).Wait(); err == nil {
		t.Fatal("first flaky attempt unexpectedly succeeded")
	}
	if v, err := r.Submit(1, flaky).Wait(); err != nil || v != 42 {
		t.Fatalf("retry resolved (%d, %v), want (42, nil)", v, err)
	}

	// Healthy traffic on both domains after the faults.
	var tickets []*Ticket[int]
	for i := 0; i < 8; i++ {
		idx := i
		tickets = append(tickets, r.Submit(i%2, func() (int, error) { return idx, nil }))
	}
	for i, tk := range tickets {
		if v, err := tk.Wait(); err != nil || v != i {
			t.Fatalf("post-fault ticket %d resolved (%d, %v)", i, v, err)
		}
	}
}

// TestReaderCloseResolvesQueued: closing with reads queued behind a
// blocked one resolves the queued tickets ErrClosed without executing
// them, while the in-flight read finishes normally.
func TestReaderCloseResolvesQueued(t *testing.T) {
	var executed int64
	// Ample queue capacity: the in-flight read below probes with extra
	// submissions while it waits for Close to begin.
	r := New[int]([]int{64}, 1, nil)

	first := r.Submit(0, func() (int, error) {
		atomic.AddInt64(&executed, 1)
		// Hold the worker until Close has provably begun: once the
		// reader is marked closed, a Submit resolves ErrClosed
		// immediately instead of enqueueing. Probes enqueued before
		// that point drain as ErrClosed after it, never execute — the
		// worker is busy right here until then.
		for {
			if p := r.Submit(0, func() (int, error) { return -1, nil }); ready(p) {
				if _, err := p.Wait(); errors.Is(err, ErrClosed) {
					return 1, nil
				}
			}
			time.Sleep(time.Millisecond)
		}
	})
	waitFor(t, "the first read to start", func() bool { return atomic.LoadInt64(&executed) == 1 })
	q1 := r.Submit(0, func() (int, error) { atomic.AddInt64(&executed, 1); return 2, nil })
	q2 := r.Submit(0, func() (int, error) { atomic.AddInt64(&executed, 1); return 3, nil })

	closed := make(chan struct{})
	go func() { r.Close(); close(closed) }()
	<-closed

	if v, err := first.Wait(); err != nil || v != 1 {
		t.Fatalf("in-flight read resolved (%d, %v), want (1, nil)", v, err)
	}
	for i, tk := range []*Ticket[int]{q1, q2} {
		if _, err := tk.Wait(); !errors.Is(err, ErrClosed) {
			t.Fatalf("queued ticket %d resolved with %v, want ErrClosed", i, err)
		}
	}
	if got := atomic.LoadInt64(&executed); got != 1 {
		t.Fatalf("%d reads executed, want only the in-flight one", got)
	}

	// Submissions after Close, and to a capacity-less domain, resolve
	// immediately with an error instead of wedging.
	if _, err := r.Submit(0, func() (int, error) { return 0, nil }).Wait(); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-Close submission resolved with %v, want ErrClosed", err)
	}
	r2 := New[int]([]int{0, 2}, 1, nil)
	defer r2.Close()
	if _, err := r2.Submit(0, func() (int, error) { return 0, nil }).Wait(); err == nil {
		t.Fatal("submission to a domain with no queue capacity did not error")
	}
	r.Close() // idempotent
}

// TestReaderCloseQuitPriority: a worker parked waiting for an
// in-flight budget slot when Close lands must resolve its queued read
// ErrClosed rather than execute it — the quit signal and the freed
// slot become ready together, and without an explicit re-check the
// select between them picks at random.
func TestReaderCloseQuitPriority(t *testing.T) {
	for round := 0; round < 50; round++ {
		gate := make(chan struct{})
		started := make(chan struct{})
		var executed int64
		// Two domains, depth 1: domain 0's worker holds the only budget
		// slot, so domain 1's worker parks waiting for it.
		r := New[int]([]int{1, 1}, 1, nil)
		a := r.Submit(0, func() (int, error) { close(started); <-gate; return 1, nil })
		<-started
		b := r.Submit(1, func() (int, error) { atomic.AddInt64(&executed, 1); return 2, nil })

		closed := make(chan struct{})
		go func() { r.Close(); close(closed) }()
		// Once a fresh submission resolves ErrClosed, Close has closed
		// quit (same critical section), so when the gate opens b's
		// worker sees quit and the freed slot ready together.
		waitFor(t, "Close to begin", func() bool {
			p := r.Submit(0, func() (int, error) { return -1, nil })
			if !ready(p) {
				return false
			}
			_, err := p.Wait()
			return errors.Is(err, ErrClosed)
		})
		close(gate)
		<-closed

		if v, err := a.Wait(); err != nil || v != 1 {
			t.Fatalf("round %d: in-flight read resolved (%d, %v), want (1, nil)", round, v, err)
		}
		if _, err := b.Wait(); !errors.Is(err, ErrClosed) {
			t.Fatalf("round %d: parked read resolved with %v, want ErrClosed", round, err)
		}
		if atomic.LoadInt64(&executed) != 0 {
			t.Fatalf("round %d: parked read executed after Close", round)
		}
	}
}

// TestReaderSubmitOverflow: a submission beyond a domain's queue
// capacity resolves with an error instead of blocking — a blocking
// send under the reader's mutex would deadlock a concurrent Close —
// and the reads already accepted are unaffected.
func TestReaderSubmitOverflow(t *testing.T) {
	gate, started := make(chan struct{}), make(chan struct{})
	r := New[int]([]int{1}, 1, nil)

	first := r.Submit(0, func() (int, error) { close(started); <-gate; return 1, nil })
	<-started
	queued := r.Submit(0, func() (int, error) { return 2, nil })
	over := r.Submit(0, func() (int, error) { return 3, nil })
	if !ready(over) {
		t.Fatal("overflow submission did not resolve immediately")
	}
	if _, err := over.Wait(); err == nil || errors.Is(err, ErrClosed) {
		t.Fatalf("overflow submission resolved with %v, want a queue-full error", err)
	}

	close(gate)
	if v, err := first.Wait(); err != nil || v != 1 {
		t.Fatalf("in-flight read resolved (%d, %v), want (1, nil)", v, err)
	}
	if v, err := queued.Wait(); err != nil || v != 2 {
		t.Fatalf("queued read resolved (%d, %v), want (2, nil)", v, err)
	}
	r.Close()
}

// TestReaderNotify: the completion callback fires for every resolved
// ticket — success, failure and ErrClosed drains alike.
func TestReaderNotify(t *testing.T) {
	var notified int64
	r := New[int]([]int{4}, 2, func() { atomic.AddInt64(&notified, 1) })
	tk1 := r.Submit(0, func() (int, error) { return 1, nil })
	tk2 := r.Submit(0, func() (int, error) { return 0, errors.New("boom") })
	tk1.Wait()
	tk2.Wait()
	waitFor(t, "completion notifications", func() bool { return atomic.LoadInt64(&notified) >= 2 })
	r.Close()
}

// TestReaderNoGoroutineLeaks: a reader's workers all exit at Close,
// including with reads still queued and with per-domain worker pools.
func TestReaderNoGoroutineLeaks(t *testing.T) {
	runtime.GC()
	baseline := runtime.NumGoroutine()

	for round := 0; round < 3; round++ {
		gate := make(chan struct{})
		r := New[int]([]int{8, 8, 0, 8}, 4, nil)
		var wg sync.WaitGroup
		for i := 0; i < 12; i++ {
			d := []int{0, 1, 3}[i%3]
			tk := r.Submit(d, func() (int, error) { <-gate; return 0, nil })
			wg.Add(1)
			go func() { defer wg.Done(); tk.Wait() }()
		}
		close(gate)
		wg.Wait()
		r.Close()
	}

	deadline := time.Now().Add(5 * time.Second)
	for func() int { runtime.GC(); return runtime.NumGoroutine() }() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	runtime.GC()
	if now := runtime.NumGoroutine(); now > baseline {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutines grew from %d to %d after Close:\n%s", baseline, now, buf[:runtime.Stack(buf, true)])
	}
}
