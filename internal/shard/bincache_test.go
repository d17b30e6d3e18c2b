package shard

// The bin-budget battery (the cache's own residency invariants live in
// residency_test.go): the spill/replay path's bit-identity and byte
// accounting, corrupt-spill recovery, the budget holding under real
// sweeps and across concurrent sessions, and the closed-cache drain
// semantics rehosting relies on. Run under -race in CI alongside the
// scatter/gather battery.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/api"
	"repro/internal/frontier"
	"repro/internal/gen"
	"repro/internal/graph"
)

// mkTestBin builds a synthetic bin for unit-level cache tests. The
// segment bytes are arbitrary — the cache never decodes them.
func mkTestBin(idx, size int) *binShard {
	return &binShard{
		idx:     idx,
		lo:      0,
		segs:    [][]byte{bytes.Repeat([]byte{0x5A}, size)},
		entries: 1,
		bytes:   int64(size),
	}
}

// binSpillFiles globs the store directory's live spill files.
func binSpillFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "bin-*.spill"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestBinSpillOnEvictAndRefuse drives the cache directly with synthetic
// bins through what the spill codec adds to the residency core: a bin
// refused by the budget and a bin evicted from it are both spilled —
// once — the spilled bin replays byte-exactly, and dropSpill forgets
// the record and the file.
func TestBinSpillOnEvictAndRefuse(t *testing.T) {
	dir := t.TempDir()
	c := newBinCache(10<<10, dir, 0)

	_, relA, evicted, spilled := c.put(mkTestBin(0, 4<<10))
	if evicted != 0 || spilled != 0 {
		t.Fatalf("first insert evicted %d bins, spilled %d bytes", evicted, spilled)
	}
	_, relB, _, _ := c.put(mkTestBin(1, 4<<10))

	// Both residents pinned: a third 4 KiB bin is refused and spills.
	trans, relC, evicted, spilled := c.put(mkTestBin(2, 4<<10))
	if trans == nil || trans.idx != 2 || evicted != 0 || spilled <= 0 {
		t.Fatalf("refused insert returned %+v, evicted %d, spilled %d", trans, evicted, spilled)
	}
	relC()
	if peekBin(c, 2) != nil || !c.hasSpill(2) {
		t.Fatal("refused bin became resident or has no spill file")
	}

	// Unpin B: the next insert evicts it and spills it.
	relB()
	_, relD, evicted, spilled := c.put(mkTestBin(3, 4<<10))
	if evicted != 1 || spilled <= 0 || !c.hasSpill(1) {
		t.Fatalf("insert over a cold bin evicted %d, spilled %d, spill recorded %v", evicted, spilled, c.hasSpill(1))
	}

	// The spilled bin replays exactly.
	rb, n, err := c.loadSpill(1, 0)
	if err != nil {
		t.Fatalf("replaying the evicted bin: %v", err)
	}
	if n <= 0 || rb.idx != 1 || rb.bytes != 4<<10 || !bytes.Equal(rb.segs[0], mkTestBin(1, 4<<10).segs[0]) {
		t.Fatalf("replayed bin differs from the original: %d bytes read, %+v", n, rb)
	}
	if _, _, ok := c.acquire(1); ok {
		t.Fatal("evicted bin still acquirable")
	}
	// Re-admitting the replayed bin and evicting it again must not
	// rewrite its spill file: once per bin per generation.
	relD()
	_, relB2, _, _ := c.put(rb) // evicts (and spills) the cold D
	relB2()
	_, relE, evicted, spilled := c.put(mkTestBin(4, 4<<10)) // evicts bin 1 again
	if evicted != 1 || spilled != 0 {
		t.Fatalf("re-evicting an already-spilled bin evicted %d, spilled %d bytes; want 1 and 0", evicted, spilled)
	}
	relE()
	c.dropSpill(1)
	if c.hasSpill(1) {
		t.Fatal("dropSpill left the record")
	}
	if _, err := os.Stat(c.spillPath(1)); !os.IsNotExist(err) {
		t.Fatalf("dropSpill left the file: %v", err)
	}
	if s := c.Stats(); s.Replays != 1 || s.Rejected != 1 {
		t.Fatalf("final counters %+v, want 1 replay, 1 rejection", s)
	}
	relA()
}

// TestBinBudgetClosedCacheDrain pins the rehost path's lifecycle: drop
// removes every unpinned bin and every spill file immediately, keeps
// pinned bins alive until their in-flight gathers release them — at
// which point they retire outright instead of aging in an LRU nothing
// will ever hit again — and turns later inserts into unaccounted
// transients, so a drained old host ends at exactly zero bin bytes.
func TestBinBudgetClosedCacheDrain(t *testing.T) {
	dir := t.TempDir()
	c := newBinCache(4096, dir, 0)
	_, relA, _, _ := c.put(mkTestBin(0, 2048))
	_, relB, _, _ := c.put(mkTestBin(1, 2048))
	relB()
	// C evicts the cold B (spilling it) and is admitted pinned.
	_, relC, evicted, spilled := c.put(mkTestBin(2, 2048))
	if evicted != 1 || spilled <= 0 {
		t.Fatalf("setup eviction: evicted %d, spilled %d", evicted, spilled)
	}
	if len(binSpillFiles(t, dir)) == 0 {
		t.Fatal("setup produced no spill file")
	}

	c.drop()
	if got := binSpillFiles(t, dir); len(got) != 0 {
		t.Fatalf("drop left spill files: %v", got)
	}
	s := c.Stats()
	if s.Bytes != 4096 || s.Resident != 2 || s.Pinned != 2 || s.Spilled != 0 {
		t.Fatalf("after drop with two pinned bins: %+v", s)
	}
	if _, _, ok := c.acquire(0); ok {
		t.Fatal("closed cache satisfied an acquire")
	}
	if c.hasSpill(1) {
		t.Fatal("closed cache still advertises a spill")
	}
	// Post-drop inserts are transients: gatherable, never accounted.
	b, rel, evicted, spilled := c.put(mkTestBin(3, 2048))
	if b == nil || evicted != 0 || spilled != 0 {
		t.Fatalf("closed-cache insert: %+v, evicted %d, spilled %d", b, evicted, spilled)
	}
	rel()
	if s := c.Stats(); s.Bytes != 4096 {
		t.Fatalf("closed-cache insert changed accounting: %+v", s)
	}
	// The drain: each release retires its bin.
	relA()
	if s := c.Stats(); s.Bytes != 2048 || s.Resident != 1 {
		t.Fatalf("after first drain release: %+v", s)
	}
	relC()
	if s := c.Stats(); s.Bytes != 0 || s.Resident != 0 || s.Pinned != 0 {
		t.Fatalf("drained cache not empty: %+v", s)
	}
	if got := binSpillFiles(t, dir); len(got) != 0 {
		t.Fatalf("drained cache left spill files: %v", got)
	}
}

// TestBinBudgetNeverExceededDuringSweeps is the engine-level budget
// invariant: a concurrent sampler hammers the cache stats while a
// half-footprint dense PageRank runs, and neither any sample nor the
// lock-accurate PeakBytes high-water mark may ever exceed the budget —
// while the ranks stay bit-identical to the unbounded engine's and the
// overflow demonstrably spilled and replayed.
func TestBinBudgetNeverExceededDuringSweeps(t *testing.T) {
	g := gen.TinySocial()
	const budget = 16 << 10 // about half this store's ~33 KiB bin footprint
	unbounded := buildSlotEngine(t, g, 8, 2, Options{Threads: 4, SweepMode: SweepScatterGather})
	defer requireEvictions(t, unbounded)
	e := buildSlotEngine(t, g, 8, 2, Options{Threads: 4, SweepMode: SweepScatterGather, BinBudgetBytes: budget})

	stop := make(chan struct{})
	var worst, samples int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if b := e.bins.Stats().Bytes; b > atomic.LoadInt64(&worst) {
				atomic.StoreInt64(&worst, b)
			}
			atomic.AddInt64(&samples, 1)
		}
	}()
	want := prOnSystem(unbounded, 10)
	got := prOnSystem(e, 10)
	close(stop)
	wg.Wait()

	if atomic.LoadInt64(&samples) == 0 {
		t.Fatal("sampler never observed the cache")
	}
	if w := atomic.LoadInt64(&worst); w > budget {
		t.Fatalf("sampled %d resident bin bytes, budget is %d", w, budget)
	}
	cs := e.bins.Stats()
	if cs.PeakBytes > budget {
		t.Fatalf("peak resident bin bytes %d exceed the %d budget", cs.PeakBytes, budget)
	}
	if cs.PeakBytes == 0 {
		t.Fatal("budgeted engine retained no bins at all")
	}
	st := e.Stats()
	if st.BinBytesSpilled <= 0 || st.BinSpillReplays <= 0 || st.BinSpillBytesRead <= 0 {
		t.Fatalf("half-footprint budget never exercised the spill path: %+v", st)
	}
	for v := range want {
		if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
			t.Fatalf("rank[%d] = %v budgeted vs %v unbounded: the budget changed results", v, got[v], want[v])
		}
	}
}

// TestBinBudgetSharedAcrossSessions is the multi-tenant half of the
// budget claim: two sessions of one host sweeping concurrently share a
// single bin store, so the host-wide resident bytes stay inside the one
// budget — not twice it — while both sessions produce the private
// unbounded engine's exact ranks.
func TestBinBudgetSharedAcrossSessions(t *testing.T) {
	g := gen.TinySocial()
	const budget = 16 << 10
	want := prOnSystem(buildSlotEngine(t, g, 8, 4, Options{Threads: 4, SweepMode: SweepScatterGather}), 10)

	h, err := BuildHost(t.TempDir(), g, 8, nil, Options{
		Threads: 4, SweepMode: SweepScatterGather, BinBudgetBytes: budget,
	})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var worst int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if b := h.BinStats().Bytes; b > atomic.LoadInt64(&worst) {
				atomic.StoreInt64(&worst, b)
			}
		}
	}()
	ranks := make([][]float64, 2)
	var run sync.WaitGroup
	for i := range ranks {
		run.Add(1)
		go func(i int) {
			defer run.Done()
			ranks[i] = prOnSystem(h.NewSession(), 10)
		}(i)
	}
	run.Wait()
	close(stop)
	wg.Wait()

	if w := atomic.LoadInt64(&worst); w > budget {
		t.Fatalf("two concurrent sessions drove resident bin bytes to %d, the shared budget is %d", w, budget)
	}
	bs := h.BinStats()
	if bs.PeakBytes > budget {
		t.Fatalf("host peak bin bytes %d exceed the shared %d budget", bs.PeakBytes, budget)
	}
	if bs.PeakBytes == 0 || bs.Hits == 0 {
		t.Fatalf("sessions never shared a resident bin: %+v", bs)
	}
	for i, got := range ranks {
		for v := range want {
			if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
				t.Fatalf("session %d rank[%d] = %v, want the private engine's %v", i, v, got[v], want[v])
			}
		}
	}
}

// TestBinSpillReplayAvoidsRescatter pins the spill path's bytes-moved
// win: with the budget at its legal minimum (below this store's
// smallest bin) every dense sweep after the first replays spill files
// instead of re-reading shards, so total shard loads stay at one cold
// pass — while an edge-centric engine over the same cache, too small
// to admit any shard, re-reads the store every iteration — and the
// ranks never move a bit.
func TestBinSpillReplayAvoidsRescatter(t *testing.T) {
	g := gen.TinySocial()
	const iters = 5
	// Raw (v1) stores price the comparison the way the paper's claim is
	// stated: 8 bytes per edge re-read edge-centric, against the bins'
	// delta+uvarint encoding replayed from spill files. One store per
	// engine: spill files live in the store directory.
	mk := func(opts Options) *Engine {
		st, err := Create(t.TempDir(), g, WriteOptions{Partitions: 8, Format: FormatV1})
		if err != nil {
			t.Fatal(err)
		}
		h, err := NewHost(st, g, NewSharedCache(1), opts)
		if err != nil {
			t.Fatal(err)
		}
		return h.NewSession()
	}
	ec := mk(Options{Threads: 4})
	sg := mk(Options{Threads: 4, SweepMode: SweepScatterGather})
	starved := mk(Options{Threads: 4, SweepMode: SweepScatterGather, BinBudgetBytes: MinBinBudgetBytes})
	ecRanks := prOnSystem(ec, iters)
	prOnSystem(sg, iters)
	stRanks := prOnSystem(starved, iters)

	ecs, sgs, sts := ec.Stats(), sg.Stats(), starved.Stats()
	if ecs.CacheHits != 0 {
		t.Fatalf("fixture broken: a cache that admits nothing served %d hits", ecs.CacheHits)
	}
	if sts.BinBytesSpilled <= 0 || sts.BinSpillReplays <= 0 || sts.BinSpillBytesRead <= 0 {
		t.Fatalf("minimum budget never spilled or replayed: %+v", sts)
	}
	// Replays substitute for re-scatters: the starved engine's disk loads
	// must equal the unbounded scatter/gather engine's single cold pass,
	// not the edge-centric engine's per-iteration re-reads.
	if sts.ShardLoads != sgs.ShardLoads {
		t.Fatalf("starved engine loaded %d shards, the unbounded scatter/gather engine %d — spill replays failed to cover the later sweeps",
			sts.ShardLoads, sgs.ShardLoads)
	}
	if sts.ShardLoads*int64(iters) != ecs.ShardLoads {
		t.Fatalf("starved engine loaded %d shards across %d iterations, edge-centric %d; expected exactly one cold pass",
			sts.ShardLoads, iters, ecs.ShardLoads)
	}
	// The replays really came from disk, and cost less than the raw
	// shard re-reads they replaced would have.
	perIterEC := ecs.BytesRead / int64(iters)
	if sts.BinSpillBytesRead >= perIterEC*int64(iters-1) {
		t.Fatalf("spill replays read %d bytes, edge-centric re-reads would have cost %d — the compressed replay should be cheaper",
			sts.BinSpillBytesRead, perIterEC*int64(iters-1))
	}
	for v := range ecRanks {
		if math.Float64bits(stRanks[v]) != math.Float64bits(ecRanks[v]) {
			t.Fatalf("rank[%d] = %v starved vs %v edge-centric: spill replay changed results", v, stRanks[v], ecRanks[v])
		}
	}
}

// TestBinSpillRoundTrip pins the codec: every bin a real dense sweep
// produced survives encodeSpill/decodeSpill byte-exactly, and the
// decoder rejects the three identity mismatches (generation, shard
// index, range base) that would let a file replay against the wrong
// shard.
func TestBinSpillRoundTrip(t *testing.T) {
	g := gen.TinySocial()
	e := buildTestEngine(t, g, 8, Options{Threads: 4, SweepMode: SweepScatterGather})
	e.EdgeMap(frontier.All(g), passOp(), api.DirAuto)
	gen := e.st.Generation()
	checked := 0
	for si := 0; si < e.st.NumShards(); si++ {
		b := peekBin(e.bins, si)
		if b == nil {
			continue
		}
		checked++
		data := encodeSpill(gen, b)
		rb, err := decodeSpill(data, gen, b.idx, b.lo)
		if err != nil {
			t.Fatalf("shard %d: round trip failed: %v", si, err)
		}
		if rb.idx != b.idx || rb.lo != b.lo || rb.entries != b.entries || rb.bytes != b.bytes || !reflect.DeepEqual(rb.segs, b.segs) {
			t.Fatalf("shard %d: decoded bin differs:\n got %+v\nwant %+v", si, rb, b)
		}
		if _, err := decodeSpill(data, gen+1, b.idx, b.lo); err == nil {
			t.Fatalf("shard %d: decoder accepted a stale generation", si)
		}
		if _, err := decodeSpill(data, gen, b.idx+1, b.lo); err == nil {
			t.Fatalf("shard %d: decoder accepted the wrong shard index", si)
		}
		if _, err := decodeSpill(data, gen, b.idx, b.lo+64); err == nil {
			t.Fatalf("shard %d: decoder accepted the wrong range base", si)
		}
	}
	if checked == 0 {
		t.Fatal("dense sweep produced no bins to round-trip")
	}
}

// TestBinSpillCorruptRecovery is the recovery table: every way a spill
// file can rot on disk — truncation, a flipped payload byte, a stomped
// magic, a stale generation with a valid checksum, an emptied file —
// must be absorbed silently: the replay fails, the file is dropped, the
// shard re-scatters from its (intact) base file, and the sweep's
// results are exact. No error surfaces and the file is re-spilled for
// the next sweep.
func TestBinSpillCorruptRecovery(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(data []byte) []byte
	}{
		{"truncated", func(data []byte) []byte { return data[:spillHeaderSize/2] }},
		{"payload-flip", func(data []byte) []byte {
			data[len(data)-1] ^= 0xFF
			return data
		}},
		{"bad-magic", func(data []byte) []byte {
			data[0] = 'X'
			return data
		}},
		{"stale-generation", func(data []byte) []byte {
			// A structurally valid file from the wrong generation: bump
			// the gen field and recompute the checksum, modelling a file
			// left behind by an earlier store life.
			binary.LittleEndian.PutUint64(data[12:], binary.LittleEndian.Uint64(data[12:])+1)
			binary.LittleEndian.PutUint32(data[8:12], crc32.ChecksumIEEE(data[12:]))
			return data
		}},
		{"emptied", func(data []byte) []byte { return nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := gen.TinySocial()
			dir := t.TempDir()
			e, err := Build(dir, g, 8, Options{Threads: 4, SweepMode: SweepScatterGather, BinBudgetBytes: MinBinBudgetBytes})
			if err != nil {
				t.Fatal(err)
			}
			e.EdgeMap(frontier.All(g), passOp(), api.DirAuto)
			files := binSpillFiles(t, dir)
			if len(files) == 0 {
				t.Fatal("first sweep spilled nothing; the fixture needs spill files to corrupt")
			}
			for _, path := range files {
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, tc.corrupt(data), 0o644); err != nil {
					t.Fatal(err)
				}
			}

			counts := make([]int64, g.NumVertices())
			e.EdgeMap(frontier.All(g), api.EdgeOp{
				Update:       func(u, v graph.VID) bool { counts[v]++; return true },
				UpdateAtomic: func(u, v graph.VID) bool { atomic.AddInt64(&counts[v], 1); return true },
			}, api.DirAuto)
			indeg := make([]int64, g.NumVertices())
			for _, ed := range g.Edges() {
				indeg[ed.Dst]++
			}
			for v := range counts {
				if counts[v] != indeg[v] {
					t.Fatalf("post-corruption sweep counted %d in-edges for vertex %d, want %d", counts[v], v, indeg[v])
				}
			}
			if got := e.bins.Stats().Replays; got != 0 {
				t.Fatalf("%d corrupted files replayed successfully", got)
			}
			if e.Stats().BinSpillReplays != 0 {
				t.Fatal("engine charged replays for corrupted files")
			}
			// The re-scattered bins spilled again: fresh, valid files for
			// the next sweep.
			if got := binSpillFiles(t, dir); len(got) != len(files) {
				t.Fatalf("recovery left %d spill files, want %d rewritten", len(got), len(files))
			}
		})
	}
}

// TestBinSpillStaleFilesRemovedOnCreate: rebuilding a store in a
// directory must delete leftover spill files (and crashed writers'
// temp files) — a rebuilt store restarts at generation 0 with new
// content, and a stale file that validated against it would replay the
// old graph's edges.
func TestBinSpillStaleFilesRemovedOnCreate(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, fmt.Sprintf("bin-%04d-g%06d.spill", 3, 0))
	tmp := filepath.Join(dir, "bin-spill-12345.tmp")
	for _, p := range []string{stale, tmp} {
		if err := os.WriteFile(p, []byte("stale"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Create(dir, gen.TinySocial(), WriteOptions{Partitions: 8}); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{stale, tmp} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("Create left stale spill artefact %s (%v)", p, err)
		}
	}
}
