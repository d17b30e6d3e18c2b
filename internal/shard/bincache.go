package shard

// The scatter/gather bin residency layer. A binCache is one store
// generation's retained update bins: the residency core (see
// residency.go: byte budget, pins, refuse-don't-block; budget 0 retains
// everything) keyed by shard index, plus the spill codec.
//
// Past the in-memory budget, cold bins spill to generation-suffixed
// files next to the store (bin-%04d-g%06d.spill): a bin is a pure
// re-encoding of its shard at one generation, so the file is written at
// most once per bin per generation and the next dense sweep replays it
// with one sequential read instead of re-fetching and re-scattering the
// base shard. Spill files are cache artifacts, not durable state — they
// carry a CRC and structural self-description, and any mismatch
// (truncation, corruption, a stale generation, a crashed writer) just
// deletes the file and re-scatters the shard, the path the aborted-
// sweep retention semantics already prove bit-identical.
//
// One binCache hangs off each hostCore, so every session of a Host
// shares one budget instead of multiplying the footprint per query.
// All methods are safe for concurrent use.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"repro/internal/graph"
)

// MinBinBudgetBytes is the smallest positive Options.BinBudgetBytes
// normalize accepts: one page. A budget below it could not hold even a
// minimal bin's segments, so every insert would be refused and every
// sweep would spill — a configuration that is always a mistake rather
// than a tuning choice. (A budget that merely turns out smaller than
// the store's bins at runtime is fine: bins are refused, spilled, and
// replayed sequentially from disk.)
const MinBinBudgetBytes int64 = 4096

// BinCacheStats is a point-in-time snapshot of a host's bin cache.
type BinCacheStats struct {
	Budget       int64 // configured byte budget; 0 = unbounded
	Bytes        int64 // encoded bin bytes resident now (<= Budget when bounded)
	PeakBytes    int64 // high-water mark of Bytes
	Resident     int64 // bins resident now
	Pinned       int64 // resident bins pinned by in-flight gathers right now
	Spilled      int64 // bins with a live spill file on disk
	Hits         int64 // gathers served from residency
	Replays      int64 // gathers restored from a spill file
	Evictions    int64 // unpinned bins evicted to make room
	Rejected     int64 // inserts refused because the cold unpinned set could not cover the bytes
	SpilledBytes int64 // encoded bytes written to spill files
}

// binCache is the refcounted, byte-budgeted bin LRU every session of a
// host shares.
type binCache struct {
	res *residency[int, *binShard]
	dir string // store directory spill files live in
	gen int64  // store generation the bins (and spill files) describe

	// Guarded by res.mu.
	spilled             map[int]bool // shard idx -> a valid spill file exists on disk
	closed              bool         // drop ran: the host was evicted/rehosted
	replays, spillBytes int64
}

// newBinCache builds the bin store for one opened store generation.
func newBinCache(budget int64, dir string, gen int64) *binCache {
	return &binCache{
		res:     newResidency[int, *binShard](budget),
		dir:     dir,
		gen:     gen,
		spilled: make(map[int]bool),
	}
}

// Stats returns a consistent snapshot of the cache counters.
func (c *binCache) Stats() BinCacheStats {
	c.res.mu.Lock()
	defer c.res.mu.Unlock()
	rs := c.res.statsLocked()
	return BinCacheStats{
		Budget:       rs.Budget,
		Bytes:        rs.Bytes,
		PeakBytes:    rs.PeakBytes,
		Resident:     rs.Resident,
		Pinned:       rs.Pinned,
		Spilled:      int64(len(c.spilled)),
		Hits:         rs.Hits,
		Replays:      c.replays,
		Evictions:    rs.Evictions,
		Rejected:     rs.Rejected,
		SpilledBytes: c.spillBytes,
	}
}

// acquire returns shard si's bin pinned and promoted to most recently
// used, plus its release; the caller must invoke release when its
// gather is done. A miss means the sweep must replay the spill file
// (hasSpill) or re-scatter the shard.
func (c *binCache) acquire(si int) (*binShard, func(), bool) {
	c.res.mu.Lock()
	defer c.res.mu.Unlock()
	if c.closed {
		return nil, nil, false
	}
	return c.res.getLocked(si)
}

// put admits a freshly scattered (or spill-replayed) bin, pinned (see
// residency.addLocked: a raced insert adopts the identical resident
// bin — same host, same store generation, same deterministic encoding
// — and a bin that cannot fit is refused and gathered uncached). Every
// bin that leaves (or never enters) memory is spilled to disk — written
// at most once per generation — so the next sweep replays it
// sequentially instead of re-reading the base shard. Returns the
// canonical bin to gather, its release, and the evicted-bin /
// spilled-byte counts this call incurred, for the calling session's
// stats.
func (c *binCache) put(b *binShard) (bin *binShard, release func(), evicted, spilledBytes int64) {
	c.res.mu.Lock()
	if c.closed {
		c.res.mu.Unlock()
		return b, func() {}, 0, 0
	}
	bin, release, admitted, victims := c.res.addLocked(b.idx, b, b.bytes)
	evicted = int64(len(victims))
	if !admitted {
		victims = append(victims, b)
	}
	toSpill := victims[:0]
	for _, v := range victims {
		if !c.spilled[v.idx] {
			toSpill = append(toSpill, v)
		}
	}
	c.res.mu.Unlock()
	// Spill outside the lock: the writes are plain file I/O and the
	// budget invariant does not depend on them (the victims' bytes were
	// already subtracted). A failed write just loses the spill — the
	// shard re-scatters next sweep.
	for _, sb := range toSpill {
		spilledBytes += c.spill(sb)
	}
	return bin, release, evicted, spilledBytes
}

// hasSpill reports whether shard si has a live spill file to replay.
func (c *binCache) hasSpill(si int) bool {
	c.res.mu.Lock()
	defer c.res.mu.Unlock()
	return !c.closed && c.spilled[si]
}

// loadSpill reads and validates shard si's spill file, returning the
// decoded bin (not yet admitted — the caller puts it) and the file's
// size, the sequential disk bytes the replay moved. Any failure —
// missing file, truncation, CRC or structural mismatch — is an error;
// the caller drops the record and re-scatters.
func (c *binCache) loadSpill(si int, lo graph.VID) (*binShard, int64, error) {
	c.res.mu.Lock()
	ok := !c.closed && c.spilled[si]
	gen := c.gen
	path := c.spillPath(si)
	c.res.mu.Unlock()
	if !ok {
		return nil, 0, fmt.Errorf("shard: no spill file recorded for shard %d", si)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	b, err := decodeSpill(data, gen, si, lo)
	if err != nil {
		return nil, 0, err
	}
	c.res.mu.Lock()
	c.replays++
	c.res.mu.Unlock()
	return b, int64(len(data)), nil
}

// dropSpill forgets shard si's spill record and deletes the file — the
// corrupt/unreadable recovery path.
func (c *binCache) dropSpill(si int) {
	c.res.mu.Lock()
	delete(c.spilled, si)
	path := c.spillPath(si)
	c.res.mu.Unlock()
	os.Remove(path)
}

// drop releases the whole bin store — the host-evict/rehost path. All
// unpinned bins leave memory immediately and every spill file is
// deleted; bins still pinned by in-flight gathers retire at their
// release, so a drained old-generation host holds zero bin bytes and
// zero spill files. Later puts are unaccounted transients.
func (c *binCache) drop() {
	c.res.mu.Lock()
	c.closed = true
	paths := make([]string, 0, len(c.spilled))
	for si := range c.spilled {
		paths = append(paths, c.spillPath(si))
	}
	c.spilled = make(map[int]bool)
	c.res.dropLocked(func(int) bool { return true })
	c.res.mu.Unlock()
	for _, p := range paths {
		os.Remove(p)
	}
}

// spillPath returns shard si's spill file path. The generation suffix
// keeps a rehosted store's new bins from ever validating against an
// old generation's files (and vice versa) even if a crash leaks one.
func (c *binCache) spillPath(si int) string {
	return filepath.Join(c.dir, fmt.Sprintf("bin-%04d-g%06d.spill", si, c.gen))
}

// spill writes b's spill file via a unique temp + rename — atomic
// against concurrent writers (two hosts over one store
// produce interchangeable files; the last rename wins) — and records
// it. No fsync: a spill is a disposable cache artifact whose CRC
// catches a torn write, and the recovery is a re-scatter, not data
// loss. Returns the bytes written (0 on failure — spilling is best
// effort).
func (c *binCache) spill(b *binShard) int64 {
	data := encodeSpill(c.gen, b)
	f, err := os.CreateTemp(c.dir, "bin-spill-*.tmp")
	if err != nil {
		return 0
	}
	tmp := f.Name()
	_, err = f.Write(data)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, c.spillPath(b.idx))
	}
	if err != nil {
		os.Remove(tmp)
		return 0
	}
	c.res.mu.Lock()
	if c.closed {
		// Raced drop: the store was rehosted while this spill was in
		// flight; the file must not outlive the generation's cleanup.
		path := c.spillPath(b.idx)
		c.res.mu.Unlock()
		os.Remove(path)
		return 0
	}
	c.spilled[b.idx] = true
	c.spillBytes += int64(len(data))
	c.res.mu.Unlock()
	return int64(len(data))
}

// The spill file layout (all fixed-width fields little-endian):
//
//	magic   [8]byte  "ggbinsp1"
//	crc     uint32   IEEE CRC-32 of everything after this field
//	gen     int64    store generation the bin was scattered at
//	idx     uint32   shard index
//	lo      uint32   destination-range base the offsets are relative to
//	entries int64    (dstOffset, src) pairs across all segments
//	nsegs   uint32   segment count
//	lens    [nsegs]uint32
//	segs    concatenated segment streams, in order
const spillMagic = "ggbinsp1"

// spillHeaderSize is the fixed prefix before the per-segment lengths.
const spillHeaderSize = 8 + 4 + 8 + 4 + 4 + 8 + 4

// encodeSpill serialises b for its spill file.
func encodeSpill(gen int64, b *binShard) []byte {
	size := spillHeaderSize + 4*len(b.segs)
	for _, s := range b.segs {
		size += len(s)
	}
	buf := make([]byte, spillHeaderSize, size)
	copy(buf, spillMagic)
	binary.LittleEndian.PutUint64(buf[12:], uint64(gen))
	binary.LittleEndian.PutUint32(buf[20:], uint32(b.idx))
	binary.LittleEndian.PutUint32(buf[24:], uint32(b.lo))
	binary.LittleEndian.PutUint64(buf[28:], uint64(b.entries))
	binary.LittleEndian.PutUint32(buf[36:], uint32(len(b.segs)))
	var tmp [4]byte
	for _, s := range b.segs {
		binary.LittleEndian.PutUint32(tmp[:], uint32(len(s)))
		buf = append(buf, tmp[:]...)
	}
	for _, s := range b.segs {
		buf = append(buf, s...)
	}
	binary.LittleEndian.PutUint32(buf[8:12], crc32.ChecksumIEEE(buf[12:]))
	return buf
}

// decodeSpill parses and validates one spill file against the
// generation, shard index and destination base the caller expects.
// Every mismatch is an error — the caller's recovery is always the
// same safe move (delete the file, re-scatter the shard), so the
// decoder can afford to be strict.
func decodeSpill(data []byte, gen int64, idx int, lo graph.VID) (*binShard, error) {
	if len(data) < spillHeaderSize {
		return nil, fmt.Errorf("shard: bin spill truncated (%d bytes)", len(data))
	}
	if string(data[:8]) != spillMagic {
		return nil, fmt.Errorf("shard: bin spill bad magic %q", data[:8])
	}
	if got, want := crc32.ChecksumIEEE(data[12:]), binary.LittleEndian.Uint32(data[8:12]); got != want {
		return nil, fmt.Errorf("shard: bin spill checksum mismatch (%08x != %08x)", got, want)
	}
	if g := int64(binary.LittleEndian.Uint64(data[12:])); g != gen {
		return nil, fmt.Errorf("shard: bin spill at generation %d, store is at %d", g, gen)
	}
	if i := binary.LittleEndian.Uint32(data[20:]); int(i) != idx {
		return nil, fmt.Errorf("shard: bin spill names shard %d, want %d", i, idx)
	}
	if l := graph.VID(binary.LittleEndian.Uint32(data[24:])); l != lo {
		return nil, fmt.Errorf("shard: bin spill base %d, shard range starts at %d", l, lo)
	}
	entries := int64(binary.LittleEndian.Uint64(data[28:]))
	if entries < 0 {
		return nil, fmt.Errorf("shard: bin spill declares %d entries", entries)
	}
	nsegs := int(binary.LittleEndian.Uint32(data[36:]))
	rest := data[spillHeaderSize:]
	if nsegs < 0 || nsegs > len(rest)/4 {
		return nil, fmt.Errorf("shard: bin spill declares %d segments in %d bytes", nsegs, len(data))
	}
	lens := rest[:4*nsegs]
	payload := rest[4*nsegs:]
	b := &binShard{idx: idx, lo: lo, segs: make([][]byte, nsegs), entries: entries}
	off := 0
	for t := 0; t < nsegs; t++ {
		n := int(binary.LittleEndian.Uint32(lens[4*t:]))
		if n < 0 || n > len(payload)-off {
			return nil, fmt.Errorf("shard: bin spill segment %d overruns payload", t)
		}
		b.segs[t] = payload[off : off+n : off+n]
		b.bytes += int64(n)
		off += n
	}
	if off != len(payload) {
		return nil, fmt.Errorf("shard: bin spill has %d trailing bytes", len(payload)-off)
	}
	return b, nil
}

// removeStaleSpills deletes leftover bin spill files in dir — Create's
// rebuild path. A rebuilt store restarts at generation 0 with new
// content, so a crashed earlier process's spills at the same
// generation must not be replayable against it.
func removeStaleSpills(dir string) {
	stale, _ := filepath.Glob(filepath.Join(dir, "bin-*.spill"))
	tmps, _ := filepath.Glob(filepath.Join(dir, "bin-spill-*.tmp"))
	for _, p := range append(stale, tmps...) {
		os.Remove(p)
	}
}
