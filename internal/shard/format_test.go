package shard

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/api"
	"repro/internal/frontier"
	"repro/internal/gen"
	"repro/internal/graph"
)

// Differential round-trip property for the two on-disk formats: a graph
// written v1 and written v2 must decode to the same shards. "Same" is
// the equivalence the engine's semantics run on — v2 re-sorts each
// shard by (dst, src), so file order differs, but every destination's
// source sequence must be identical edge for edge (the engine applies
// each destination's in-edges in file order, and destination-only
// writes make that order the whole story; both formats keep it
// ascending). The test also pins the v2 decoder to exactly the sorted
// order the encoder promises, and the byte claim the format exists for:
// the v2 store is strictly smaller on disk.

// randomTestGraph builds a reproducible random multigraph (parallel
// edges and self-loops included — both legal in COO shards).
func randomTestGraph(r *rand.Rand) *graph.Graph {
	n := 64 + r.Intn(4)*64 // 1..4 aligned destination units per shard boundary step
	edges := make([]graph.Edge, r.Intn(4000))
	for i := range edges {
		edges[i] = graph.Edge{
			Src: graph.VID(r.Intn(n)),
			Dst: graph.VID(r.Intn(n)),
		}
	}
	return graph.FromEdges(n, edges)
}

// perDstSequences groups a shard's sources by destination, preserving
// file order within each destination.
func perDstSequences(c *graph.COO) map[graph.VID][]graph.VID {
	seq := make(map[graph.VID][]graph.VID)
	for i := range c.Src {
		seq[c.Dst[i]] = append(seq[c.Dst[i]], c.Src[i])
	}
	return seq
}

func TestFormatRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		g := randomTestGraph(r)
		p := 1 + r.Intn(6)
		v1, err := Create(t.TempDir(), g, WriteOptions{Partitions: p, Format: FormatV1})
		if err != nil {
			t.Fatalf("trial %d: write v1: %v", trial, err)
		}
		v2, err := Create(t.TempDir(), g, WriteOptions{Partitions: p, Format: FormatV2})
		if err != nil {
			t.Fatalf("trial %d: write v2: %v", trial, err)
		}
		if v1.NumShards() != v2.NumShards() {
			t.Fatalf("trial %d: shard counts differ: v1 %d, v2 %d", trial, v1.NumShards(), v2.NumShards())
		}
		for i := 0; i < v1.NumShards(); i++ {
			c1, err := v1.LoadShard(i)
			if err != nil {
				t.Fatalf("trial %d: load v1 shard %d: %v", trial, i, err)
			}
			c2, err := v2.LoadShard(i)
			if err != nil {
				t.Fatalf("trial %d: load v2 shard %d: %v", trial, i, err)
			}
			if len(c1.Src) != len(c2.Src) {
				t.Fatalf("trial %d shard %d: edge counts differ: v1 %d, v2 %d", trial, i, len(c1.Src), len(c2.Src))
			}
			// The v2 decoder must reproduce exactly the (dst, src) sort the
			// encoder wrote.
			for e := 1; e < len(c2.Src); e++ {
				if c2.Dst[e] < c2.Dst[e-1] ||
					(c2.Dst[e] == c2.Dst[e-1] && c2.Src[e] < c2.Src[e-1]) {
					t.Fatalf("trial %d shard %d: v2 not (dst,src)-sorted at edge %d", trial, i, e)
				}
			}
			// Identical shards under the engine's equivalence: every
			// destination sees the same source sequence.
			s1, s2 := perDstSequences(c1), perDstSequences(c2)
			if len(s1) != len(s2) {
				t.Fatalf("trial %d shard %d: destination sets differ (%d vs %d)", trial, i, len(s1), len(s2))
			}
			for d, seq1 := range s1 {
				seq2 := s2[d]
				if len(seq1) != len(seq2) {
					t.Fatalf("trial %d shard %d: destination %d has %d v1 edges, %d v2 edges", trial, i, d, len(seq1), len(seq2))
				}
				for e := range seq1 {
					if seq1[e] != seq2[e] {
						t.Fatalf("trial %d shard %d: destination %d source sequence differs at %d: v1 %d, v2 %d",
							trial, i, d, e, seq1[e], seq2[e])
					}
				}
			}
		}
		d1, err := v1.DiskBytes()
		if err != nil {
			t.Fatal(err)
		}
		d2, err := v2.DiskBytes()
		if err != nil {
			t.Fatal(err)
		}
		if g.NumEdges() > 0 && d2 >= d1 {
			t.Fatalf("trial %d: v2 store not smaller: v1 %d bytes, v2 %d bytes (%d edges)", trial, d1, d2, g.NumEdges())
		}
	}
}

// TestV2HugeCountRejected pins the decoder's overflow guard: a v2
// header declaring an edge count near MaxInt64 — large enough that the
// naive minimum-size arithmetic would wrap negative — must surface as
// an error before anything is allocated, never as a makeslice panic.
func TestV2HugeCountRejected(t *testing.T) {
	var buf []byte
	buf = append(buf, shardMagicV2[:]...)
	var tmp [binary.MaxVarintLen64]byte
	const huge = 1<<63 - 1
	buf = append(buf, tmp[:binary.PutUvarint(tmp[:], huge)]...)
	path := filepath.Join(t.TempDir(), "shard-0000.bin")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readShardFile(path, FormatV2, 256, 64, 128, huge); err == nil {
		t.Fatal("v2 decoder accepted a near-MaxInt64 edge count")
	}
}

// TestFormatBytesOnMicroGraph pins the headline number on the standard
// micro graph: the compressed store is strictly smaller than the raw
// one, and the engine's byte counters see it — a full cold sweep over a
// v2 store records BytesRead < BytesLogical (the raw v1 pricing of the
// same loads), while a v1 store records exact equality.
func TestFormatBytesOnMicroGraph(t *testing.T) {
	g := gen.TinySocial()
	v1, err := Create(t.TempDir(), g, WriteOptions{Partitions: 8, Format: FormatV1})
	if err != nil {
		t.Fatal(err)
	}
	v2, err := Create(t.TempDir(), g, WriteOptions{Partitions: 8, Format: FormatV2})
	if err != nil {
		t.Fatal(err)
	}
	d1, err := v1.DiskBytes()
	if err != nil {
		t.Fatal(err)
	}
	d2, err := v2.DiskBytes()
	if err != nil {
		t.Fatal(err)
	}
	if d2 >= d1 {
		t.Fatalf("v2 store is %d bytes, v1 is %d — compression did not shrink the micro graph", d2, d1)
	}
	if want := v1EncodedBytes(0)*int64(v1.NumShards()) + 8*g.NumEdges(); d1 != want {
		t.Fatalf("v1 store is %d bytes, want %d (8 per edge + headers)", d1, want)
	}
	for _, tc := range []struct {
		st         *Store
		compressed bool
	}{{v1, false}, {v2, true}} {
		eng, err := NewEngine(tc.st, g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := tc.st.Sweep(func(_, _ graph.VID) {}); err != nil {
			t.Fatal(err)
		}
		// Drive the byte counters through the engine path: one cold dense
		// sweep decodes every planned shard from disk.
		eng.EdgeMap(frontier.All(g), api.EdgeOp{
			Update:       func(u, v graph.VID) bool { return true },
			UpdateAtomic: func(u, v graph.VID) bool { return true },
		}, api.DirAuto)
		st := eng.Stats()
		if st.BytesRead <= 0 || st.BytesLogical <= 0 {
			t.Fatalf("%v: byte counters not maintained: %+v", tc.st.Format(), st)
		}
		if tc.compressed && st.BytesRead >= st.BytesLogical {
			t.Fatalf("v2 sweep read %d bytes, logical (raw) volume %d — no compression observed", st.BytesRead, st.BytesLogical)
		}
		if !tc.compressed && st.BytesRead != st.BytesLogical {
			t.Fatalf("v1 sweep read %d bytes but logical volume is %d — v1 pricing must be exact", st.BytesRead, st.BytesLogical)
		}
	}
}

// chunkRecorder wraps a reader and records how it is consumed: how many
// Read calls arrive and the largest single request.
type chunkRecorder struct {
	r      io.Reader
	reads  int
	maxReq int
}

func (c *chunkRecorder) Read(p []byte) (int, error) {
	c.reads++
	if len(p) > c.maxReq {
		c.maxReq = len(p)
	}
	return c.r.Read(p)
}

// TestV1DecodeStreamsInChunks pins the decode-during-read fix: the raw
// (v1) decoder must consume its input incrementally — bounded chunk
// requests, many of them — rather than one file-sized read per stream,
// so on the aio path a shard's decode overlaps its own in-flight read.
// It also pins that per-chunk validation still reports the exact edge
// index of a range violation, like the old decode-then-validate pass.
func TestV1DecodeStreamsInChunks(t *testing.T) {
	const n = 1 << 16
	// Several full chunks per stream plus a ragged tail.
	count := int64(3*(v1DecodeChunkBytes/vidBytes) + 100)
	r := rand.New(rand.NewSource(7))
	src := make([]graph.VID, count)
	dst := make([]graph.VID, count)
	for i := range src {
		src[i] = graph.VID(r.Intn(n))
		dst[i] = graph.VID(r.Intn(n))
	}
	encode := func() *bytes.Buffer {
		var buf bytes.Buffer
		if err := binary.Write(&buf, binary.LittleEndian, src); err != nil {
			t.Fatal(err)
		}
		if err := binary.Write(&buf, binary.LittleEndian, dst); err != nil {
			t.Fatal(err)
		}
		return &buf
	}

	cr := &chunkRecorder{r: encode()}
	c, err := decodeShardV1(cr, "test-shard", n, 0, graph.VID(n), count)
	if err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if c.Src[i] != src[i] || c.Dst[i] != dst[i] {
			t.Fatalf("edge %d decoded as (%d,%d), want (%d,%d)", i, c.Src[i], c.Dst[i], src[i], dst[i])
		}
	}
	if cr.maxReq > v1DecodeChunkBytes {
		t.Fatalf("decoder requested %d bytes in a single read, cap is %d — the whole-array read is back",
			cr.maxReq, v1DecodeChunkBytes)
	}
	if want := 2 * int(count) * vidBytes / v1DecodeChunkBytes; cr.reads < want {
		t.Fatalf("decoder issued %d reads over %d chunks of data — not consuming incrementally", cr.reads, want)
	}

	// A violation deep in a later chunk still names its exact edge.
	const bad = 40000
	dst[bad] = graph.VID(n + 5) // outside [lo, hi)
	_, err = decodeShardV1(encode(), "test-shard", n, 0, graph.VID(n), count)
	var re *VIDRangeError
	if !errors.As(err, &re) {
		t.Fatalf("out-of-range destination decoded without a *VIDRangeError (err = %v)", err)
	}
	if re.Edge != bad || re.Field != "destination" {
		t.Fatalf("range error names edge %d field %q, want %d %q", re.Edge, re.Field, bad, "destination")
	}
}
