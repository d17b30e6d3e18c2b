package shard

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/graph"
)

// Format names the on-disk encoding of a store's base shard files.
// Create writes FormatV3 only; the two older layouts stay readable, and
// Compact rewrites a v1 or v2 store with pending deltas as v3.
//
// FormatV1 is the original raw layout: an int64 edge count followed by
// the source and destination arrays as little-endian uint32s — fixed
// 8 bytes per edge, in the partitioner's CSR (source-major) order.
//
// FormatV2 is the first compressed layout: within each shard the edges
// are sorted by (destination, source), both streams are delta-encoded
// and written as uvarints — one destination delta (almost always zero)
// and one source gap per edge, 2–4 bytes per edge, decoded one varint at
// a time. Delta shard files keep its stream.
//
// FormatV3, the one Create writes, keeps the (destination, source) order
// but groups it into runs: each destination is stored once, with its run
// length, and the run's source gaps go to a byte-aligned group-varint
// stream (one control byte per four values). That is both fewer bytes —
// no per-edge destination delta, so 1.7–2.1 bytes per edge once
// destinations average more than an in-edge or two (on shards of
// single-edge runs it comes out level with v2) — and a decoder that
// works in batches over one in-memory image of the file instead of
// pulling bytes through a reader (formatv3.go): the two levers of an
// engine whose dense sweeps re-read and re-decode the whole edge set
// every iteration.
//
// Whatever the format, a loaded shard is (destination, source)-sorted:
// v2 and v3 are written that way, and a v1 shard is stably sorted by
// destination as it loads (its CSR walk already visits each
// destination's sources in ascending order). The engine's apply depends
// only on per-destination order, which is ascending sources in every
// format, so results are bit-identical across formats.
type Format int

const (
	// FormatV1 is the raw uint32-pairs layout of ggrind-shards-v1 stores.
	FormatV1 Format = 1
	// FormatV2 is the (dst,src)-sorted delta+uvarint layout of
	// ggrind-shards-v2 stores; delta shard files keep its stream.
	FormatV2 Format = 2
	// FormatV3 is the run-grouped group-varint layout of
	// ggrind-shards-v3 stores — the only format Create and Compact write.
	FormatV3 Format = 3
)

// String returns the short name ("v1", "v2", "v3").
func (f Format) String() string {
	if f.valid() {
		return fmt.Sprintf("v%d", int(f))
	}
	return fmt.Sprintf("Format(%d)", int(f))
}

func (f Format) valid() bool { return f >= FormatV1 && f <= FormatV3 }

// manifestMagic returns the manifest magic string for stores of this
// format — the store's format declaration.
func (f Format) manifestMagic() string { return "ggrind-shards-" + f.String() }

// VIDRangeError reports a decoded vertex ID outside its permitted
// half-open range [Lo, Hi) — a source at or beyond the vertex count, or
// a destination outside its shard's destination range. Both decoders
// return it (wrapped in the usual path context) instead of silently
// producing edges the engine's partition-exclusive apply would turn
// into out-of-bounds writes or cross-shard corruption.
type VIDRangeError struct {
	Path  string // shard file
	Edge  int64  // index of the offending edge within the file
	Field string // "source" or "destination"
	VID   uint64 // decoded value (pre-truncation, hence 64-bit)
	Lo    graph.VID
	Hi    graph.VID
}

func (e *VIDRangeError) Error() string {
	return fmt.Sprintf("shard: %s: %s %d outside [%d,%d) at edge %d",
		e.Path, e.Field, e.VID, e.Lo, e.Hi, e.Edge)
}

// vidBytes is the on-disk size of one vertex ID in FormatV1
// (graph.VID = uint32).
const vidBytes = 4

// v1EncodedBytes is the FormatV1 (raw) size of a shard with the given
// edge count — the logical byte volume Stats.BytesLogical accounts
// loads at, so BytesLogical/BytesRead is the live compression ratio.
func v1EncodedBytes(edges int64) int64 { return 8 + 2*vidBytes*edges }

// shardMagicV2 opens every FormatV2 shard file; v1 files have no magic
// (they begin with the raw edge count), so the two layouts cannot be
// confused without the mismatch surfacing as a structural error.
var shardMagicV2 = [4]byte{'G', 'G', 'S', '2'}

// writeShardFile encodes one (dst,src)-sorted shard as a v3 file,
// atomically (writeFileAtomic). Create sorts with sortByDst; Compact
// writes what loadShard merged.
func writeShardFile(path string, c *graph.COO) error {
	return writeFileAtomic(path, func(f *os.File) error {
		_, err := f.Write(encodeShardV3(c.Src, c.Dst))
		return err
	})
}

// sortByDst returns c's edges stably sorted by destination — one
// counting sort over the shard's destination range [lo,hi), O(E + hi-lo).
// A CSR-order edge list (the partitioner's, a v1 file's) visits each
// destination's sources in ascending order, so for such input the result
// is the full (dst,src) order the v3 encoder and the delta merges
// consume. Every destination must already be known to lie in [lo,hi).
func sortByDst(c *graph.COO, lo, hi graph.VID) *graph.COO {
	next := make([]int, hi-lo+1)
	for _, d := range c.Dst {
		next[d-lo+1]++
	}
	out := &graph.COO{N: c.N, Src: make([]graph.VID, len(c.Src)), Dst: make([]graph.VID, len(c.Dst))}
	for v := range next[1:] {
		next[v+1] += next[v]
		run := out.Dst[next[v]:next[v+1]]
		for i := range run {
			run[i] = lo + graph.VID(v)
		}
	}
	for i, d := range c.Dst {
		out.Src[next[d-lo]] = c.Src[i]
		next[d-lo]++
	}
	return out
}

// putUvarint writes one uvarint to w.
func putUvarint(w *bufio.Writer, x uint64) error {
	var tmp [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(tmp[:], x)
	_, err := w.Write(tmp[:k])
	return err
}

// encodeV2Stream writes an already (dst,src)-sorted edge list as the
// v2 delta+uvarint stream pair: destination deltas against the
// previous destination (the first edge's is absolute — the implicit
// previous destination is 0), sources absolute at the start of each
// destination run and delta-encoded within a run (non-negative by the
// sort). Base shard files carry one such stream; delta shard files
// carry two (inserts, then tombstones), each with its own delta state.
func encodeV2Stream(w *bufio.Writer, src, dst []graph.VID) error {
	var prevDst, prevSrc graph.VID
	for i := range src {
		d, s := dst[i], src[i]
		if err := putUvarint(w, uint64(d-prevDst)); err != nil {
			return err
		}
		if i == 0 || d != prevDst {
			if err := putUvarint(w, uint64(s)); err != nil {
				return err
			}
		} else {
			if err := putUvarint(w, uint64(s-prevSrc)); err != nil {
				return err
			}
		}
		prevDst, prevSrc = d, s
	}
	return nil
}

// readShardFile decodes one shard file in the given format, returning
// the (dst,src)-sorted COO and the on-disk bytes consumed (the file
// size). Every decoded source must be a vertex and every destination
// must fall inside the shard's [lo,hi) range — violations surface as
// *VIDRangeError, never as silently corrupt edges — and no allocation is
// sized by untrusted input before it is validated against the file's
// actual size.
func readShardFile(path string, format Format, n int, lo, hi graph.VID, wantEdges int64) (*graph.COO, int64, error) {
	switch format {
	case FormatV1:
		c, size, err := readShardV1(path, n, lo, hi, wantEdges)
		if err != nil {
			return nil, 0, err
		}
		c = sortByDst(c, lo, hi)
		// A v1 file from another writer may list a destination's sources
		// in any order; the delta zips need them ascending.
		if o := (&dstSrcOrder{c.Src, c.Dst}); !sort.IsSorted(o) {
			sort.Sort(o)
		}
		return c, size, nil
	case FormatV2:
		return readShardV2(path, n, lo, hi, wantEdges)
	case FormatV3:
		return readShardV3(path, n, lo, hi, wantEdges)
	}
	return nil, 0, fmt.Errorf("shard: cannot read format %v", format)
}

func readShardV1(path string, n int, lo, hi graph.VID, wantEdges int64) (c *graph.COO, size int64, err error) {
	size, err = readFileWith(path, func(f *os.File, size int64) error {
		var count int64
		if err := binary.Read(f, binary.LittleEndian, &count); err != nil {
			return fmt.Errorf("shard: %s: %v", path, err)
		}
		if count != wantEdges || count < 0 {
			return fmt.Errorf("shard: %s: edge count %d, manifest says %d", path, count, wantEdges)
		}
		// Validate the edge count against the file's actual size before
		// allocating anything sized by it: a corrupt (or hostile) manifest
		// could otherwise declare an absurd count and turn LoadShard into an
		// allocation of arbitrary size. The arithmetic cannot overflow —
		// counts above MaxInt64/(2*vidBytes) are rejected first.
		const maxCount = (1<<63 - 1 - 8) / (2 * vidBytes)
		if count > maxCount || size != v1EncodedBytes(count) {
			return fmt.Errorf("shard: %s: file is %d bytes, want %d for %d edges",
				path, size, v1EncodedBytes(count), count)
		}
		c, err = decodeShardV1(f, path, n, lo, hi, count)
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	return c, size, nil
}

// v1DecodeChunkBytes is the streaming granularity of the raw (v1)
// decoder: words are converted and validated chunk by chunk as they
// arrive, so a shard's decode never waits on, or buffers, a
// file-sized read per stream. 64 KiB keeps the scratch buffer
// cache-resident while amortising the read syscalls.
const v1DecodeChunkBytes = 64 << 10

// decodeShardV1 decodes count edges' source then destination arrays
// from r incrementally — never requesting more than v1DecodeChunkBytes
// per read — validating each chunk as it lands. count must already be
// validated against the file size (readShardV1 does); r is positioned
// after the edge-count header. Split from the file plumbing so tests
// can pin the incremental consumption against a counting reader.
func decodeShardV1(r io.Reader, path string, n int, lo, hi graph.VID, count int64) (*graph.COO, error) {
	c := &graph.COO{N: n, Src: make([]graph.VID, count), Dst: make([]graph.VID, count)}
	err := decodeV1Array(r, c.Src, func(i int64, v graph.VID) error {
		if int(v) >= n {
			return &VIDRangeError{Path: path, Edge: i, Field: "source", VID: uint64(v), Lo: 0, Hi: graph.VID(n)}
		}
		return nil
	})
	if err != nil {
		if _, ok := err.(*VIDRangeError); ok {
			return nil, err
		}
		return nil, fmt.Errorf("shard: %s: sources: %v", path, err)
	}
	err = decodeV1Array(r, c.Dst, func(i int64, v graph.VID) error {
		if v < lo || v >= hi {
			return &VIDRangeError{Path: path, Edge: i, Field: "destination", VID: uint64(v), Lo: lo, Hi: hi}
		}
		return nil
	})
	if err != nil {
		if _, ok := err.(*VIDRangeError); ok {
			return nil, err
		}
		return nil, fmt.Errorf("shard: %s: destinations: %v", path, err)
	}
	return c, nil
}

// decodeV1Array fills out with little-endian uint32 words read from r
// in at-most-v1DecodeChunkBytes chunks, calling check on every decoded
// word before accepting it.
func decodeV1Array(r io.Reader, out []graph.VID, check func(int64, graph.VID) error) error {
	buf := make([]byte, v1DecodeChunkBytes)
	for done := 0; done < len(out); {
		words := len(out) - done
		if max := len(buf) / vidBytes; words > max {
			words = max
		}
		if _, err := io.ReadFull(r, buf[:words*vidBytes]); err != nil {
			return err
		}
		for k := 0; k < words; k++ {
			v := graph.VID(binary.LittleEndian.Uint32(buf[k*vidBytes:]))
			if err := check(int64(done), v); err != nil {
				return err
			}
			out[done] = v
			done++
		}
	}
	return nil
}

// uvarintLen returns the encoded size of x in bytes.
func uvarintLen(x uint64) int64 {
	var tmp [binary.MaxVarintLen64]byte
	return int64(binary.PutUvarint(tmp[:], x))
}

func readShardV2(path string, n int, lo, hi graph.VID, wantEdges int64) (c *graph.COO, size int64, err error) {
	size, err = readFileWith(path, func(f *os.File, size int64) error {
		br := bufio.NewReader(f)
		var magic [4]byte
		if _, err := io.ReadFull(br, magic[:]); err != nil {
			return fmt.Errorf("shard: %s: v2 magic: %v", path, err)
		}
		if magic != shardMagicV2 {
			return fmt.Errorf("shard: %s: not a v2 shard file (magic %q)", path, magic[:])
		}
		count64, err := binary.ReadUvarint(br)
		if err != nil {
			return fmt.Errorf("shard: %s: edge count varint: %v", path, err)
		}
		// Bound the count before any arithmetic on it: beyond maxCount the
		// minimum-size computation below would overflow int64 and a hostile
		// count could slip past it into the allocation — the v2 counterpart
		// of readShardV1's maxCount guard.
		const maxCount = (1<<63 - 1 - 4 - binary.MaxVarintLen64) / 2
		if count64 > maxCount || int64(count64) != wantEdges {
			return fmt.Errorf("shard: %s: edge count %d, manifest says %d", path, count64, wantEdges)
		}
		count := int64(count64)
		// Every edge costs at least two varint bytes, so the smallest file
		// that can hold the declared count is known before any allocation —
		// the v2 counterpart of the v1 exact-size check (varint streams are
		// variable-width, so a lower bound is the strongest prior check; the
		// trailing-bytes check below makes the size agreement exact).
		if minSize := 4 + uvarintLen(count64) + 2*count; size < minSize {
			return fmt.Errorf("shard: %s: file is %d bytes, need at least %d for %d edges",
				path, size, minSize, count)
		}
		srcArr, dstArr, err := decodeV2Stream(br, path, n, lo, hi, count)
		if err != nil {
			return err
		}
		c = &graph.COO{N: n, Src: srcArr, Dst: dstArr}
		return expectEOF(br, path, count)
	})
	if err != nil {
		return nil, 0, err
	}
	return c, size, nil
}

// expectEOF fails unless br is exhausted: a v2 stream's size agreement
// is only exact once nothing follows its last edge.
func expectEOF(br *bufio.Reader, path string, edges int64) error {
	if _, err := br.ReadByte(); err != io.EOF {
		if err != nil {
			return fmt.Errorf("shard: %s: after %d edges: %v", path, edges, err)
		}
		return fmt.Errorf("shard: %s: trailing bytes after %d edges", path, edges)
	}
	return nil
}

// decodeV2Stream reads count edges in the v2 delta+uvarint layout from
// br (encodeV2Stream's inverse), validating every decoded source
// against [0,n) and every destination against [lo,hi) — violations
// surface as *VIDRangeError — and rejecting any delta that would wrap.
// The delta state starts fresh per stream, so a delta shard file's two
// streams decode independently with the same routine.
func decodeV2Stream(br *bufio.Reader, path string, n int, lo, hi graph.VID, count int64) ([]graph.VID, []graph.VID, error) {
	src := make([]graph.VID, count)
	dst := make([]graph.VID, count)
	var prevDst, prevSrc uint64
	for i := int64(0); i < count; i++ {
		dDelta, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, nil, fmt.Errorf("shard: %s: destination delta at edge %d: %v", path, i, err)
		}
		d := prevDst + dDelta
		if d < prevDst || d < uint64(lo) || d >= uint64(hi) {
			return nil, nil, &VIDRangeError{Path: path, Edge: i, Field: "destination", VID: d, Lo: lo, Hi: hi}
		}
		sv, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, nil, fmt.Errorf("shard: %s: source varint at edge %d: %v", path, i, err)
		}
		s := sv
		if i > 0 && d == prevDst {
			s = prevSrc + sv
		}
		if s < sv || s >= uint64(n) {
			return nil, nil, &VIDRangeError{Path: path, Edge: i, Field: "source", VID: s, Lo: 0, Hi: graph.VID(n)}
		}
		dst[i], src[i] = graph.VID(d), graph.VID(s)
		prevDst, prevSrc = d, s
	}
	return src, dst, nil
}
