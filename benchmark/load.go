package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/shard"
)

// phase is what one pass of the load generator over one target
// measured. Latencies are milliseconds.
type phase struct {
	mu sync.Mutex

	wallS     float64              // first submit to last reply of the timed part
	lat       map[string][]float64 // per class, submit to done
	overhead  []float64            // latency minus the reply's server-side wall
	updates   []float64
	compacts  []float64
	completed int // timed queries that finished

	// In-process targets only: the session counters of each timed-class
	// query, and of every timed query summed.
	perQuery []shard.Stats
	total    shard.Stats

	cacheAtEnd cacheCounters // snapshot after the timed part
	peakRSSMiB float64       // likewise

	attempted, failed int
}

// attempt counts one operation sent to the target.
func (p *phase) attempt() {
	p.mu.Lock()
	p.attempted++
	p.mu.Unlock()
}

func (p *phase) fail(format string, args ...any) {
	p.mu.Lock()
	p.failed++
	p.mu.Unlock()
	fmt.Fprintf(os.Stderr, "benchmark: FAILED: "+format+"\n", args...)
}

// driver issues a workload's operations against one target.
type driver struct {
	in   *inputs
	t    target
	m    *mirror
	p    *phase
	root string // scratch directory, for the final check's store
}

// doQuery runs one query. While the store still holds the generated
// graph its digest must be the reference; want is "" once updates have
// started and only the final check can tell.
func (d *driver) doQuery(class, want string, timed bool) {
	d.p.attempt()
	t0 := time.Now()
	r, err := d.t.query(class, d.in.src)
	lat := ms(time.Since(t0))
	if err != nil {
		d.p.fail("%s: %v", class, err)
		return
	}
	if want != "" && r.digest != want {
		d.p.fail("%s: digest %s, reference %s", class, r.digest, want)
		return
	}
	if !timed {
		return
	}
	d.p.mu.Lock()
	defer d.p.mu.Unlock()
	d.p.completed++
	d.p.lat[class] = append(d.p.lat[class], lat)
	d.p.overhead = append(d.p.overhead, lat-r.wallMS)
	if r.stats != nil {
		if class == d.in.w.timed {
			d.p.perQuery = append(d.p.perQuery, *r.stats)
		}
		addStats(&d.p.total, r.stats)
	}
}

func addStats(sum, s *shard.Stats) {
	sum.DenseSweeps += s.DenseSweeps
	sum.SparseSweeps += s.SparseSweeps
	sum.ShardLoads += s.ShardLoads
	sum.CacheHits += s.CacheHits
	sum.ShardsSkipped += s.ShardsSkipped
	sum.BytesRead += s.BytesRead
	sum.SharedReads += s.SharedReads
	sum.CoScheduledSweeps += s.CoScheduledSweeps
}

// doUpdate sends the next seeded batch and checks the reply against the
// mirror: every insert counted, exactly the live copies deleted, and the
// generation advanced. It reports whether the batch was applied.
func (d *driver) doUpdate(gen *int64) bool {
	ins, del, deleted := d.m.next()
	d.p.attempt()
	t0 := time.Now()
	r, err := d.t.update(ins, del)
	lat := ms(time.Since(t0))
	switch {
	case err != nil:
		d.p.fail("update: %v", err)
	case r.inserted != int64(len(ins)) || r.deleted != deleted:
		d.p.fail("update: inserted %d deleted %d, want %d and %d", r.inserted, r.deleted, len(ins), deleted)
	case r.generation <= *gen:
		d.p.fail("update: generation %d after %d", r.generation, *gen)
	default:
		*gen = r.generation
		d.p.mu.Lock()
		d.p.updates = append(d.p.updates, lat)
		d.p.mu.Unlock()
		return true
	}
	return false
}

func (d *driver) doCompact() {
	d.p.attempt()
	t0 := time.Now()
	err := d.t.compact()
	lat := ms(time.Since(t0))
	if err != nil {
		d.p.fail("compact: %v", err)
		return
	}
	d.p.mu.Lock()
	d.p.compacts = append(d.p.compacts, lat)
	d.p.mu.Unlock()
}

// drive runs one pass: an untimed warm-up of one query per class, the
// timed closed loop for the given seconds, a snapshot of the daemon's
// cache and memory, and — on the primary pass — the update tail, so
// that every workload has update and compaction samples. A client
// starts no operation after the deadline, so the pass overruns by at
// most one cycle's tail. On serve-mixed the tail ends with the final
// check. root is a scratch directory.
func drive(in *inputs, t target, seconds float64, tail bool, root string) *phase {
	w := in.w
	p := &phase{lat: map[string][]float64{}}
	d := &driver{in: in, t: t, m: newMirror(in.g, in.seed), p: p, root: root}

	for _, class := range w.mix {
		d.doQuery(class, in.refs[class], false)
	}

	var gen int64
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for c := 0; c < w.clients(); c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for cycle := 1; ; cycle++ {
				for q := range w.mix {
					if !time.Now().Before(deadline) {
						return
					}
					class := w.mix[(c+q)%len(w.mix)]
					want := in.refs[class]
					if w.multi {
						want = ""
					}
					d.doQuery(class, want, true)
				}
				if w.multi && c == 0 && cycle%updateEvery == 0 {
					if d.doUpdate(&gen) && d.m.batch%compactEvery == 0 {
						d.doCompact()
					}
				}
			}
		}(c)
	}
	wg.Wait()
	p.wallS = time.Since(start).Seconds()

	var err error
	if p.cacheAtEnd, err = t.cache(); err != nil {
		p.fail("cache stats: %v", err)
	}
	if p.peakRSSMiB, err = t.peakRSSMiB(); err != nil {
		p.fail("peak RSS: %v", err)
	}

	if tail {
		want := tailUpdates
		if w.multi {
			want = 1
		}
		for len(p.updates) < want && d.doUpdate(&gen) {
		}
		if len(p.compacts) == 0 {
			d.doCompact()
		}
		if w.multi {
			d.finalCheck()
		}
	}
	return p
}

// finalCheck queries every class once on the store's last generation
// and compares with a store freshly created from the mirror's edge
// list, served by a private in-process server.
func (d *driver) finalCheck() {
	dir := filepath.Join(d.root, "final")
	if _, err := shard.Create(dir, d.m.graph(), shard.WriteOptions{Partitions: d.in.spec.parts}); err != nil {
		d.p.fail("final store: %v", err)
		return
	}
	ref, err := openInproc(dir, d.in.edges*8*4, nil)
	if err != nil {
		d.p.fail("final store: %v", err)
		return
	}
	defer ref.close()
	for _, class := range d.in.w.mix {
		r, err := ref.query(class, d.in.src)
		if err != nil {
			d.p.fail("final reference %s: %v", class, err)
			continue
		}
		d.doQuery(class, r.digest, false)
	}
}

// median is the middle value of xs, or the mean of the middle two
// (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

// p90 is the nearest-rank 90th percentile of xs (0 when empty).
func p90(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[(9*len(s)+9)/10-1]
}
