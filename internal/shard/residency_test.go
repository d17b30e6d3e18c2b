package shard

// The residency battery: the invariants of the one byte-budgeted pinned
// LRU (residency.go), stated once and run against both of its
// instantiations through their own entry points — SharedCache (decoded
// shards) and binCache (scatter bins). What is specific to a wrapper —
// single-flight loads, spill files — is tested beside that wrapper.

import (
	"math/rand"
	"sync"
	"testing"
)

// residencyHarness drives one instantiation in the battery's
// vocabulary: integer keys, values of a chosen byte size (a multiple of
// 8, at least 16 — the granularity of a decoded shard).
type residencyHarness struct {
	get   func(k int) (release func(), ok bool)
	add   func(k int, bytes int64) (canon any, release func(), admitted bool)
	peek  func(k int) bool
	drop  func()
	stats func() residencyStats
	// check asserts the core's structural invariants: the index and the
	// LRU list agree, accounted bytes match the resident set and never
	// exceed the budget, no refcount is negative.
	check func(t *testing.T)
}

func checkResidency[K comparable, V any](t *testing.T, r *residency[K, V]) {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	var sum int64
	n := 0
	for el := r.ll.Front(); el != nil; el = el.Next() {
		ent := el.Value.(*resEntry[K, V])
		sum += ent.bytes
		n++
		if ent.pins < 0 {
			t.Fatalf("entry %v has negative refcount %d", ent.key, ent.pins)
		}
		if got, ok := r.idx[ent.key]; !ok || got != el {
			t.Fatalf("LRU list and index disagree on %v", ent.key)
		}
	}
	if n != len(r.idx) {
		t.Fatalf("LRU holds %d entries but index holds %d", n, len(r.idx))
	}
	if sum != r.bytes {
		t.Fatalf("accounted bytes %d != resident sum %d", r.bytes, sum)
	}
	if r.budget > 0 && (r.bytes > r.budget || r.peakBytes > r.budget) {
		t.Fatalf("resident %d / peak %d bytes exceed budget %d", r.bytes, r.peakBytes, r.budget)
	}
}

var residencyInstantiations = map[string]func(t *testing.T, budget int64) residencyHarness{
	"SharedCache": func(t *testing.T, budget int64) residencyHarness {
		c, st := NewSharedCache(budget), &Store{}
		return residencyHarness{
			get: func(k int) (func(), bool) {
				_, release, ok := c.get(cacheKey{st, k})
				return release, ok
			},
			add: func(k int, bytes int64) (any, func(), bool) {
				return c.add(cacheKey{st, k}, fakeResident(k, int(bytes-16)/8))
			},
			peek:  func(k int) bool { return c.peek(cacheKey{st, k}) },
			drop:  func() { c.dropStore(st) },
			check: func(t *testing.T) { t.Helper(); checkResidency(t, c.res) },
			stats: func() residencyStats {
				s := c.Stats()
				return residencyStats{s.Budget, s.Bytes, s.PeakBytes, s.Resident, s.Pinned, s.Hits, s.Evictions, s.Rejected}
			},
		}
	},
	"binCache": func(t *testing.T, budget int64) residencyHarness {
		c := newBinCache(budget, t.TempDir(), 0)
		return residencyHarness{
			get: func(k int) (func(), bool) {
				_, release, ok := c.acquire(k)
				return release, ok
			},
			add: func(k int, bytes int64) (any, func(), bool) {
				b := mkTestBin(k, int(bytes))
				canon, release, _, _ := c.put(b)
				// Adopted (another value is canonical) or admitted as the
				// resident entry; a refused bin comes back uncached.
				return canon, release, canon != b || peekBin(c, k) == b
			},
			peek:  func(k int) bool { return peekBin(c, k) != nil },
			drop:  c.drop,
			check: func(t *testing.T) { t.Helper(); checkResidency(t, c.res) },
			stats: func() residencyStats {
				s := c.Stats()
				return residencyStats{s.Budget, s.Bytes, s.PeakBytes, s.Resident, s.Pinned, s.Hits, s.Evictions, s.Rejected}
			},
		}
	},
}

// sizeOf gives key i its (fixed) value size for the randomized tests:
// 80..6320 bytes, so eviction has to reason in bytes, not counts, and
// some values exceed the whole 4 KiB budget — the refused-insert path.
func sizeOf(i int) int64 { return 16 + 8*int64(8+(i%40)*20) }

var residencyBattery = map[string]func(t *testing.T, mk func(budget int64) residencyHarness){
	// A randomized op sequence — pinning gets, pinned adds, releases —
	// against a budget that holds only a few values, checking after
	// every single operation that bytes never exceed the budget and
	// that no pinned value has been evicted.
	"refcount-property": func(t *testing.T, mk func(int64) residencyHarness) {
		h := mk(1 << 12)
		rng := rand.New(rand.NewSource(41))
		type pin struct {
			key      int
			release  func()
			admitted bool
		}
		var pins []pin
		for step := 0; step < 5000; step++ {
			k := rng.Intn(24)
			switch op := rng.Intn(10); {
			case op < 4:
				if release, ok := h.get(k); ok {
					pins = append(pins, pin{k, release, true})
				}
			case op < 7:
				_, release, admitted := h.add(k, sizeOf(k))
				pins = append(pins, pin{k, release, admitted})
			default:
				if len(pins) > 0 {
					j := rng.Intn(len(pins))
					pins[j].release()
					pins = append(pins[:j], pins[j+1:]...)
				}
			}
			h.check(t)
			for _, p := range pins {
				if p.admitted && !h.peek(p.key) {
					t.Fatalf("step %d: key %d evicted while pinned", step, p.key)
				}
			}
		}
		for _, p := range pins {
			p.release()
		}
		h.check(t)
		s := h.stats()
		if s.Pinned != 0 {
			t.Fatalf("all pins released but %d entries still pinned", s.Pinned)
		}
		if s.Rejected == 0 || s.Evictions == 0 || s.Hits == 0 {
			t.Fatalf("op mix too tame: %+v", s)
		}
	},

	// The same property under real concurrency: workers pin, hold and
	// release while a sampler asserts the byte budget at arbitrary
	// observation points. Under -race this also proves the locking.
	"concurrent-sampler": func(t *testing.T, mk func(int64) residencyHarness) {
		const budget = 1 << 12
		h := mk(budget)
		stop := make(chan struct{})
		var sampler sync.WaitGroup
		sampler.Add(1)
		go func() {
			defer sampler.Done()
			for {
				select {
				case <-stop:
					return
				default:
					if s := h.stats(); s.Bytes > budget || s.PeakBytes > budget {
						t.Errorf("observed %d resident / %d peak bytes over budget %d", s.Bytes, s.PeakBytes, budget)
						return
					}
				}
			}
		}()
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for step := 0; step < 2000; step++ {
					k := rng.Intn(16)
					release, admitted := h.get(k)
					if !admitted {
						_, release, admitted = h.add(k, sizeOf(k))
					}
					if admitted && !h.peek(k) {
						t.Errorf("key %d not resident while this worker pins it", k)
					}
					release()
				}
			}(int64(100 + w))
		}
		wg.Wait()
		close(stop)
		sampler.Wait()
		h.check(t)
		if s := h.stats(); s.Pinned != 0 {
			t.Fatalf("workers done but %d entries still pinned", s.Pinned)
		}
	},

	// An insert that cannot fit while everything resident is pinned is
	// refused — never blocked on, never admitted over budget — and the
	// first cold entry is what the next insert evicts, never a pinned one.
	"refuse-when-all-pinned": func(t *testing.T, mk func(int64) residencyHarness) {
		h := mk(10 << 10)
		_, relA, okA := h.add(0, 4<<10)
		_, relB, okB := h.add(1, 4<<10)
		if !okA || !okB {
			t.Fatal("two 4 KiB values refused by an empty 10 KiB budget")
		}
		canon, relC, admitted := h.add(2, 4<<10)
		if admitted || canon == nil {
			t.Fatalf("third value admitted=%v canon=%v with both residents pinned", admitted, canon)
		}
		relC() // a refused insert's release is a no-op
		if s := h.stats(); s.Rejected != 1 || s.Resident != 2 || s.Evictions != 0 || h.peek(2) {
			t.Fatalf("after refusal: %+v", s)
		}
		relB()
		if _, _, ok := h.add(3, 4<<10); !ok {
			t.Fatal("insert refused although an unpinned entry could make room")
		}
		if !h.peek(0) || h.peek(1) {
			t.Fatalf("eviction took the pinned entry (resident: A=%v B=%v)", h.peek(0), h.peek(1))
		}
		if s := h.stats(); s.Evictions != 1 {
			t.Fatalf("evictions = %d, want 1", s.Evictions)
		}
		relA()
		h.check(t)
	},

	// Releases are one-shot: releasing one pin twice must not drop a
	// second holder's pin.
	"double-release": func(t *testing.T, mk func(int64) residencyHarness) {
		h := mk(8 << 10)
		_, rel1, _ := h.add(0, 4<<10)
		rel2, ok := h.get(0)
		if !ok {
			t.Fatal("resident entry not found")
		}
		rel1()
		rel1()
		if _, _, admitted := h.add(1, 8<<10); admitted || !h.peek(0) {
			t.Fatal("a double release dropped the second holder's pin: the entry was evicted")
		}
		rel2()
		if _, _, admitted := h.add(1, 8<<10); !admitted || h.peek(0) {
			t.Fatal("fully released entry was not evictable")
		}
		if s := h.stats(); s.Pinned != 1 {
			t.Fatalf("pinned = %d, want only the new entry", s.Pinned)
		}
		h.check(t)
	},

	// drop removes unpinned entries at once and retires pinned ones at
	// their final unpin, so a dropped namespace drains to zero bytes.
	"drop-retires-at-final-unpin": func(t *testing.T, mk func(int64) residencyHarness) {
		h := mk(8 << 10)
		_, relA, _ := h.add(0, 2<<10)
		relA2, _ := h.get(0)
		_, relB, _ := h.add(1, 2<<10)
		relB()
		h.drop()
		if s := h.stats(); s.Resident != 1 || s.Bytes != 2<<10 || !h.peek(0) || h.peek(1) {
			t.Fatalf("after drop with one entry pinned: %+v", s)
		}
		relA()
		if !h.peek(0) {
			t.Fatal("entry retired while a second holder still pins it")
		}
		relA2()
		if s := h.stats(); s.Resident != 0 || s.Bytes != 0 || s.Pinned != 0 {
			t.Fatalf("dropped entries did not drain: %+v", s)
		}
		h.check(t)
	},

	// Racing inserts of one key adopt a single canonical value: one entry,
	// one value's bytes, every holder handed the same value.
	"racing-adds-adopt": func(t *testing.T, mk func(int64) residencyHarness) {
		h := mk(64 << 10)
		const racers = 8
		canons := make([]any, racers)
		releases := make([]func(), racers)
		var wg sync.WaitGroup
		for i := range canons {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				var admitted bool
				canons[i], releases[i], admitted = h.add(7, 2<<10)
				if !admitted {
					t.Errorf("racer %d refused by a budget that fits the value", i)
				}
			}(i)
		}
		wg.Wait()
		for i, c := range canons {
			if c != canons[0] {
				t.Fatalf("racer %d was handed %p, racer 0 %p: two canonical values", i, c, canons[0])
			}
		}
		if s := h.stats(); s.Resident != 1 || s.Bytes != 2<<10 || s.Pinned != 1 {
			t.Fatalf("racing inserts left %+v, want one pinned 2 KiB entry", s)
		}
		for _, rel := range releases {
			rel()
		}
		if s := h.stats(); s.Pinned != 0 {
			t.Fatalf("%d entries pinned after every racer released", s.Pinned)
		}
		h.check(t)
	},
}

func TestResidencyBattery(t *testing.T) {
	for iname, mk := range residencyInstantiations {
		for pname, property := range residencyBattery {
			t.Run(iname+"/"+pname, func(t *testing.T) {
				property(t, func(budget int64) residencyHarness { return mk(t, budget) })
			})
		}
	}
}

// TestResidencyUnbounded: budget 0 never evicts and never refuses — the
// retain-everything mode an unbudgeted bin store runs in.
func TestResidencyUnbounded(t *testing.T) {
	r := newResidency[int, int](0)
	for k := 0; k < 100; k++ {
		r.mu.Lock()
		_, release, admitted, evicted := r.addLocked(k, k, 1<<20)
		r.mu.Unlock()
		if !admitted || len(evicted) != 0 {
			t.Fatalf("unbounded residency refused or evicted at key %d", k)
		}
		release()
	}
	r.mu.Lock()
	s := r.statsLocked()
	r.mu.Unlock()
	if s.Resident != 100 || s.Bytes != 100<<20 || s.Evictions != 0 || s.Rejected != 0 {
		t.Fatalf("unbounded residency: %+v", s)
	}
	checkResidency(t, r)
}
