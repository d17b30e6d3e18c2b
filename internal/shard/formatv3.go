package shard

// The FormatV3 shard-file codec: run-grouped edges, group-varint source
// gaps, decoded in batch from one slab read. The layout is
//
//	magic "GGS3"
//	uvarint edge count
//	uvarint run count (distinct destinations)
//	run headers, one per destination in ascending order:
//	    uvarint (run length - 1) << 1 | skip flag
//	    uvarint skip, only if flagged: how far the destination lies past
//	        the one after the previous run's (past 0 for the first run) —
//	        consecutive destinations, the common case, cost one byte a run
//	control bytes, ceil(count/4): four 2-bit fields per byte, low bits
//	    first, each the byte length minus one of one source value
//	data bytes: the source values, little-endian, 1-4 bytes each — the
//	    first source of a run absolute, the rest gaps to the previous
//	    source of the same run (edges are (dst,src)-sorted, so gaps are
//	    non-negative)
//
// Storing a destination once per run instead of once per edge is PCPM's
// bandwidth argument applied to the file (Lakhotia et al.); keeping the
// control bytes apart from the data (the stream-vbyte arrangement)
// leaves the decoder one short dependency chain — the data cursor — and
// no per-byte continuation test. Nothing in the file depends on the
// thread count: it is a function of the edge multiset and the shard's
// bounds alone.

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"os"
	"sync"

	"repro/internal/graph"
)

// shardMagicV3 opens every FormatV3 shard file.
var shardMagicV3 = [4]byte{'G', 'G', 'S', '3'}

// encodeShardV3 returns the v3 file image of a shard's runs.
func encodeShardV3(r *Runs) []byte {
	var tmp [binary.MaxVarintLen64]byte
	var hdr []byte
	ctrl := make([]byte, (len(r.src)+3)/4)
	data := make([]byte, 0, 2*len(r.src))
	var nextDst graph.VID // the destination an unflagged header means
	i := 0                // the edge index, across runs
	for k, d := range r.dst {
		run := r.src[r.start(k):r.end[k]]
		h, skip := uint64(len(run)-1)<<1, uint64(d-nextDst)
		if skip != 0 {
			h |= 1
		}
		hdr = append(hdr, tmp[:binary.PutUvarint(tmp[:], h)]...)
		if skip != 0 {
			hdr = append(hdr, tmp[:binary.PutUvarint(tmp[:], skip)]...)
		}
		nextDst = d + 1
		for j, s := range run {
			gap := s
			if j > 0 {
				gap = s - run[j-1]
			}
			l := (bits.Len32(gap|1) + 7) / 8
			ctrl[i/4] |= byte(l-1) << (2 * (i % 4))
			binary.LittleEndian.PutUint32(tmp[:], gap)
			data = append(data, tmp[:l]...)
			i++
		}
	}
	out := make([]byte, 0, 4+2*binary.MaxVarintLen64+len(hdr)+len(ctrl)+len(data))
	out = append(out, shardMagicV3[:]...)
	out = append(out, tmp[:binary.PutUvarint(tmp[:], uint64(len(r.src)))]...)
	out = append(out, tmp[:binary.PutUvarint(tmp[:], uint64(len(r.dst)))]...)
	out = append(out, hdr...)
	out = append(out, ctrl...)
	return append(out, data...)
}

// slabPool recycles the file-sized read buffers of the v3 load path, so
// a steady stream of loads allocates only what it keeps: the sources
// and the run table.
var slabPool = sync.Pool{New: func() any { return new([]byte) }}

// startPool recycles the decoder's run-start bitmaps (one bit per edge:
// set where a run begins), the only per-edge scratch decoding needs.
var startPool = sync.Pool{New: func() any { return new([]byte) }}

// readShardV3 reads the whole file with one exact-size read into a
// pooled slab and batch-decodes it.
func readShardV3(path string, n int, lo, hi graph.VID, wantEdges int64) (r *Runs, size int64, err error) {
	size, err = readFileWith(path, func(f *os.File, size int64) error {
		slab := slabPool.Get().(*[]byte)
		defer slabPool.Put(slab)
		if int64(cap(*slab)) < size {
			*slab = make([]byte, size)
		}
		buf := (*slab)[:size]
		if _, err := io.ReadFull(f, buf); err != nil {
			return fmt.Errorf("shard: %s: %v", path, err)
		}
		r, err = decodeShardV3(buf, path, n, lo, hi, wantEdges)
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	return r, size, nil
}

// groupDataLen[c] is the data bytes the four values of control byte c
// occupy.
var groupDataLen = func() (t [256]uint8) {
	for c := range t {
		t[c] = uint8(4 + c&3 + c>>2&3 + c>>4&3 + c>>6&3)
	}
	return t
}()

// valueMask[l] keeps the low l+1 bytes of a 4-byte load.
var valueMask = [4]uint32{0xFF, 0xFFFF, 0xFFFFFF, 0xFFFFFFFF}

// decodeShardV3 decodes a v3 file image straight into the runs the
// caller keeps: the run table from the run headers, the sources from
// the group-varint stream. Everything sized by the file is checked
// against len(buf) first: the declared counts before the allocation,
// the run lengths against the count, the control bytes' total against
// the data section — so the value loop runs over lengths already known
// to fit. Every destination is held to [lo,hi) and every source to
// [0,n), reported as *VIDRangeError like the v1/v2 decoders.
func decodeShardV3(buf []byte, path string, n int, lo, hi graph.VID, wantEdges int64) (*Runs, error) {
	if len(buf) < 4 || [4]byte(buf[:4]) != shardMagicV3 {
		return nil, fmt.Errorf("shard: %s: not a v3 shard file (magic %q)", path, buf[:min(4, len(buf))])
	}
	p := 4
	count64, k := binary.Uvarint(buf[p:])
	if k <= 0 {
		return nil, fmt.Errorf("shard: %s: edge count varint truncated or overlong", path)
	}
	p += k
	runs, k := binary.Uvarint(buf[p:])
	if k <= 0 {
		return nil, fmt.Errorf("shard: %s: run count varint truncated or overlong", path)
	}
	p += k
	// An edge costs at least a data byte and a quarter control byte, a
	// run at least one header byte: a count the file cannot hold is
	// rejected before anything is allocated (and before the arithmetic
	// could overflow — both operands are below len(buf)).
	rest := uint64(len(buf) - p)
	if count64 > rest || int64(count64) != wantEdges {
		return nil, fmt.Errorf("shard: %s: edge count %d, manifest says %d (%d-byte file)", path, count64, wantEdges, len(buf))
	}
	if runs > count64 || runs+count64+(count64+3)/4 > rest {
		return nil, fmt.Errorf("shard: %s: file is %d bytes, too small for %d edges in %d runs", path, len(buf), count64, runs)
	}
	if count64 > maxShardEdges {
		return nil, fmt.Errorf("shard: %s: %d edges, a shard holds at most %d", path, count64, uint64(maxShardEdges))
	}
	count := int(count64)
	r := &Runs{
		src: make([]graph.VID, count),
		dst: make([]graph.VID, runs),
		end: make([]uint32, runs),
	}
	starts := startPool.Get().(*[]byte)
	defer startPool.Put(starts)
	if cap(*starts) < (count+7)/8 {
		*starts = make([]byte, (count+7)/8)
	}
	start := (*starts)[:(count+7)/8]
	clear(start)

	// Run headers: each destination once, its run's start marked.
	var next uint64 // the destination an unflagged header means
	at := 0
	for ri := range r.dst {
		var h, skip uint64
		if p < len(buf) && buf[p] < 0x80 && buf[p]&1 == 0 {
			// The common header: one byte, the next destination.
			h = uint64(buf[p])
			p++
		} else {
			var k1, k2 int
			h, k1 = binary.Uvarint(buf[p:])
			if k1 > 0 && h&1 != 0 {
				skip, k2 = binary.Uvarint(buf[p+k1:])
			}
			if k1 <= 0 || k2 < 0 || (k2 == 0 && h&1 != 0) {
				return nil, fmt.Errorf("shard: %s: header of run %d truncated or overlong", path, ri)
			}
			p += k1 + k2
		}
		d, length := next+skip, h>>1+1
		if d < skip || d < uint64(lo) || d >= uint64(hi) {
			return nil, &VIDRangeError{Path: path, Edge: int64(at), Field: "destination", VID: d, Lo: lo, Hi: hi}
		}
		if length > uint64(count-at) {
			return nil, fmt.Errorf("shard: %s: run %d of %d edges at edge %d overruns the %d declared", path, ri, length, at, count)
		}
		next = d + 1
		start[at>>3] |= 1 << (at & 7)
		at += int(length)
		r.dst[ri], r.end[ri] = graph.VID(d), uint32(at)
	}
	if at != count {
		return nil, fmt.Errorf("shard: %s: runs cover %d edges of %d", path, at, count)
	}

	groups := (count + 3) / 4
	if len(buf)-p < groups {
		return nil, fmt.Errorf("shard: %s: control bytes truncated", path)
	}
	ctrl, data := buf[p:p+groups], buf[p+groups:]
	want := 0
	for _, c := range ctrl[:count/4] {
		want += int(groupDataLen[c])
	}
	if tail := count % 4; tail != 0 {
		c := ctrl[groups-1]
		if c>>(2*tail) != 0 {
			return nil, fmt.Errorf("shard: %s: unused control bits set", path)
		}
		want += int(groupDataLen[c]) - (4 - tail)
	}
	if want != len(data) {
		if want > len(data) {
			return nil, fmt.Errorf("shard: %s: source data truncated: %d bytes, control bytes say %d", path, len(data), want)
		}
		return nil, fmt.Errorf("shard: %s: trailing bytes after %d edges", path, count)
	}

	if i, v := decodeSourcesV3(ctrl, data, r.src, start, uint64(n)); i < count {
		return nil, &VIDRangeError{Path: path, Edge: int64(i), Field: "source", VID: v, Lo: 0, Hi: graph.VID(n)}
	}
	return r, nil
}

// decodeSourcesV3 fills src from the control and data sections, whose
// sizes are already validated against len(src): a run's first value is
// absolute, the rest accumulate, and start — bit i set where edge i
// opens a run, edge 0 always — says which is which. It returns
// len(src), or the index and value of the first source at or beyond
// limit.
func decodeSourcesV3(ctrl, data []byte, src []graph.VID, start []byte, limit uint64) (int, uint64) {
	count := len(src)
	q, i := 0, 0
	var acc uint64
	// Whole groups with 16 data bytes in reach: four-byte loads cannot
	// overrun, and every index below is bounded by a constant.
	for ; i+4 <= count && q+16 <= len(data); i += 4 {
		blk := (*[16]byte)(data[q:])
		s4 := (*[4]graph.VID)(src[i:])
		c := uint(ctrl[i/4])
		l0, l1, l2, l3 := c&3, c>>2&3, c>>4&3, c>>6&3
		o1 := l0 + 1
		o2 := o1 + l1 + 1
		o3 := o2 + l2 + 1
		v0 := uint64(binary.LittleEndian.Uint32(blk[0:]) & valueMask[l0])
		v1 := uint64(binary.LittleEndian.Uint32(blk[o1:]) & valueMask[l1])
		v2 := uint64(binary.LittleEndian.Uint32(blk[o2:]) & valueMask[l2])
		v3 := uint64(binary.LittleEndian.Uint32(blk[o3:]) & valueMask[l3])
		// The group's four run-start bits: a value accumulates unless it
		// opens a run. (Branches, not masks: a mask would put an AND on
		// the chain that carries the running source from edge to edge.)
		f := start[i>>3] >> (i & 4)
		if f&1 == 0 {
			v0 += acc
		}
		if f&2 == 0 {
			v1 += v0
		}
		if f&4 == 0 {
			v2 += v1
		}
		if f&8 == 0 {
			v3 += v2
		}
		if v0 >= limit || v1 >= limit || v2 >= limit || v3 >= limit {
			break // the loop below names the edge
		}
		s4[0], s4[1], s4[2], s4[3] = graph.VID(v0), graph.VID(v1), graph.VID(v2), graph.VID(v3)
		acc = v3
		q += int(o3 + l3 + 1)
	}
	// The last few values (and any group holding a range violation), on
	// a zero-padded copy once fewer than 16 data bytes remain.
	var pad [32]byte
	for i < count {
		if q+16 > len(data) {
			copy(pad[:], data[q:])
			data, q = pad[:], 0
		}
		blk := data[q : q+16]
		c := uint(ctrl[i/4])
		o := uint(0)
		for end := min(i+4, count); i < end; i++ {
			l := c & 3
			c >>= 2
			v := uint64(binary.LittleEndian.Uint32(blk[o:]) & valueMask[l])
			o += l + 1
			if start[i>>3]>>(i&7)&1 == 0 {
				v += acc
			}
			if v >= limit {
				return i, v
			}
			src[i], acc = graph.VID(v), v
		}
		q += int(o)
	}
	return count, 0
}
