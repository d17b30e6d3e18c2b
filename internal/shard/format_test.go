package shard

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/api"
	"repro/internal/frontier"
	"repro/internal/gen"
	"repro/internal/graph"
)

// Differential round-trip property for the three on-disk formats: a
// graph written v1, v2 (by the legacy writer createFormat) and v3 (by
// Create) must decode to the same shards. v2 and v3
// are written (dst,src)-sorted and a v1 shard is stably sorted by
// destination as it loads, so "the same" is element for element — which
// is also the equivalence the engine's semantics run on (it applies each
// destination's in-edges in loaded order, ascending sources in every
// format). The v1 side of the comparison is sorted here, from the raw
// file, so the test does not lean on the loader's own sort. The test
// also pins the byte claim each format exists for: v2 < v1 on disk, and
// v3 < v2 once destinations average a couple of in-edges.

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

// createAll writes g in every format with the same geometry.
func createAll(t *testing.T, g *graph.Graph, p int) map[Format]*Store {
	t.Helper()
	out := make(map[Format]*Store)
	for _, f := range []Format{FormatV1, FormatV2, FormatV3} {
		st, err := createFormat(t.TempDir(), g, p, f)
		if err != nil {
			t.Fatalf("write %v: %v", f, err)
		}
		out[f] = st
	}
	return out
}

// checkSameShards asserts every store of sts loads every shard to the
// same (dst,src)-sorted arrays, element for element.
func checkSameShards(t *testing.T, sts map[Format]*Store, when string) {
	t.Helper()
	ref := sts[FormatV3]
	for i := 0; i < ref.NumShards(); i++ {
		want, err := ref.LoadShard(i)
		if err != nil {
			t.Fatalf("%s: load v3 shard %d: %v", when, i, err)
		}
		for e := 1; e < len(want.Src); e++ {
			if pairLess(want.Dst[e], want.Src[e], want.Dst[e-1], want.Src[e-1]) {
				t.Fatalf("%s: v3 shard %d not (dst,src)-sorted at edge %d", when, i, e)
			}
		}
		for f, st := range sts {
			got, err := st.LoadShard(i)
			if err != nil {
				t.Fatalf("%s: load %v shard %d: %v", when, f, i, err)
			}
			if !slices.Equal(got.Src, want.Src) || !slices.Equal(got.Dst, want.Dst) {
				t.Fatalf("%s: shard %d decodes differently from %v (%d edges) and v3 (%d edges)",
					when, i, f, len(got.Src), len(want.Src))
			}
		}
	}
}

func TestFormatRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		g := randomTestGraph(r)
		sts := createAll(t, g, 1+r.Intn(6))
		checkSameShards(t, sts, fmt.Sprintf("trial %d", trial))
		// The v1 file itself stays in the partitioner's CSR order; stably
		// sorted by destination it is what every format loads to.
		v1, v3 := sts[FormatV1], sts[FormatV3]
		for i := 0; i < v1.NumShards(); i++ {
			lo, hi := v1.Range(i)
			raw, _, err := readShardV1(v1.basePath(i), g.NumVertices(), lo, hi, v1.baseEdgeCount(i))
			if err != nil {
				t.Fatal(err)
			}
			idx := make([]int, len(raw.Src))
			for e := range idx {
				idx[e] = e
			}
			sort.SliceStable(idx, func(a, b int) bool { return raw.Dst[idx[a]] < raw.Dst[idx[b]] })
			want, err := v3.LoadShard(i)
			if err != nil {
				t.Fatal(err)
			}
			for e, k := range idx {
				if raw.Src[k] != want.Src[e] || raw.Dst[k] != want.Dst[e] {
					t.Fatalf("trial %d shard %d: destination-sorted v1 file differs from v3 at edge %d", trial, i, e)
				}
			}
		}
		var disk [4]int64
		for f, st := range sts {
			var err error
			if disk[f], err = st.DiskBytes(); err != nil {
				t.Fatal(err)
			}
		}
		// v3 pays per run what v2 pays per edge, so it needs runs longer
		// than one edge to win: two in-edges per vertex is plenty.
		if g.NumEdges() > 0 && disk[FormatV2] >= disk[FormatV1] ||
			g.NumEdges() >= 2*int64(g.NumVertices()) && disk[FormatV3] >= disk[FormatV2] {
			t.Fatalf("trial %d: store sizes v1 %d, v2 %d, v3 %d bytes not strictly decreasing (%d edges, %d vertices)",
				trial, disk[FormatV1], disk[FormatV2], disk[FormatV3], g.NumEdges(), g.NumVertices())
		}
	}

	// Hand-built shards at the codec's edges, through the file writers
	// and readers of every format. n = 2^32 admits the largest VID.
	const n = 1 << 32
	const top = graph.VID(1<<32 - 1)
	ramp := func(k int) (src, dst []graph.VID) { // runs of length 1..k on consecutive destinations
		for d := 1; d <= k; d++ {
			for e := 0; e < d; e++ {
				src, dst = append(src, graph.VID(e*e*1000)), append(dst, graph.VID(64+d))
			}
		}
		return src, dst
	}
	rampSrc, rampDst := ramp(9)
	for _, tc := range []struct {
		name     string
		lo, hi   graph.VID
		src, dst []graph.VID
	}{
		{"empty shard", 64, 128, nil, nil},
		{"one edge", 64, 128, []graph.VID{5}, []graph.VID{64}},
		{"one destination owns every edge", 0, 64, []graph.VID{0, 1, 2, 300, 70000, 70000, 1 << 24, 1 << 31}, []graph.VID{63, 63, 63, 63, 63, 63, 63, 63}},
		{"parallel edges", 64, 128, []graph.VID{7, 7, 7, 9, 9}, []graph.VID{64, 64, 64, 127, 127}},
		{"max VID", top - 63, top, []graph.VID{0, top, top, top - 1, top}, []graph.VID{top - 63, top - 63, top - 63, top - 1, top - 1}},
		{"run lengths 1..9", 64, 128, rampSrc, rampDst},
	} {
		for _, f := range []Format{FormatV1, FormatV2, FormatV3} {
			path := filepath.Join(t.TempDir(), "shard-0000.bin")
			in := &graph.COO{N: n, Src: tc.src, Dst: tc.dst}
			if err := writeShardFormat(path, in, f); err != nil {
				t.Fatalf("%s: write %v: %v", tc.name, f, err)
			}
			got, size, err := readShardFile(path, f, n, tc.lo, tc.hi, int64(len(tc.src)))
			if err != nil {
				t.Fatalf("%s: read %v: %v", tc.name, f, err)
			}
			if fi, _ := os.Stat(path); size != fi.Size() {
				t.Fatalf("%s: %v reader reports %d bytes, file is %d", tc.name, f, size, fi.Size())
			}
			if !slices.Equal(got.Src, tc.src) || !slices.Equal(got.Dst, tc.dst) {
				t.Fatalf("%s: %v round trip changed the shard: got %v -> %v", tc.name, f, got.Src, got.Dst)
			}
		}
	}
}

// TestDecoderDifferential holds the three decoders together beyond
// clean stores: the same random batches applied to a v1, a v2 and a v3
// store of one graph must load identically with the deltas pending
// (the zip-merge over each format's base) and again after Compact has
// rewritten every one of them as a v3 store.
func TestDecoderDifferential(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		r := rand.New(rand.NewSource(seed))
		g := randomTestGraph(r)
		n := g.NumVertices()
		sts := createAll(t, g, 1+r.Intn(5))
		existing := g.Edges()
		for round := 0; round < 3; round++ {
			var ins, del []graph.Edge
			for i := 0; i < 40; i++ {
				ins = append(ins, graph.Edge{Src: graph.VID(r.Intn(n)), Dst: graph.VID(r.Intn(n))})
			}
			for i := 0; i < 15 && len(existing) > 0; i++ {
				del = append(del, existing[r.Intn(len(existing))])
			}
			del = append(del, ins[0]) // insert-then-delete within one batch
			var results []*BatchResult
			for _, f := range []Format{FormatV1, FormatV2, FormatV3} {
				res, err := sts[f].ApplyBatch(ins, del)
				if err != nil {
					t.Fatalf("seed %d round %d: ApplyBatch on %v: %v", seed, round, f, err)
				}
				results = append(results, res)
			}
			if !reflect.DeepEqual(results[0], results[1]) || !reflect.DeepEqual(results[1], results[2]) {
				t.Fatalf("seed %d round %d: BatchResult differs across formats: %+v / %+v / %+v",
					seed, round, results[0], results[1], results[2])
			}
			checkSameShards(t, sts, fmt.Sprintf("seed %d, %d batches pending", seed, round+1))
		}
		for f, st := range sts {
			if _, err := st.Compact(); err != nil {
				t.Fatalf("seed %d: Compact on %v: %v", seed, f, err)
			}
			if st.Format() != FormatV3 {
				t.Fatalf("seed %d: the %v store compacted to %v, want v3", seed, f, st.Format())
			}
		}
		checkSameShards(t, sts, fmt.Sprintf("seed %d, compacted", seed))
	}
}

// TestV3CorruptionTable is the v3 decoder's defensive posture as a
// table: every field of the file forged in turn, and the file cut at
// every byte. Range violations must surface as *VIDRangeError naming
// the field and edge, everything else as a plain error, nothing as a
// panic or an accepted file — and wherever the same corruption can be
// written into a v2 stream, the v2 decoder must report the same.
func TestV3CorruptionTable(t *testing.T) {
	const n, lo, hi = 256, 64, 128
	classify := func(err error) (string, int64) {
		var re *VIDRangeError
		switch {
		case err == nil:
			return "ok", 0
		case errors.As(err, &re):
			return re.Field, re.Edge
		}
		return "", 0
	}
	readV2 := func(data []byte, count int64) error {
		path := filepath.Join(t.TempDir(), "shard-0000.bin")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := readShardFile(path, FormatV2, n, lo, hi, count)
		return err
	}
	for _, tc := range shardFileV3Cases() {
		c, err := decodeShardV3(tc.v3, tc.name, n, lo, hi, tc.count)
		if field, edge := classify(err); field != tc.field || edge != tc.edge {
			t.Errorf("%s: v3 decoder reports (%q, edge %d), want (%q, edge %d): %v", tc.name, field, edge, tc.field, tc.edge, err)
		}
		if err == nil {
			checkDecodedInvariants(t, c, tc.count, n, lo, hi)
		}
		if tc.v2 != nil {
			if field, edge := classify(readV2(tc.v2, tc.count)); field != tc.field || edge != tc.edge {
				t.Errorf("%s: v2 decoder reports (%q, edge %d), v3 reports (%q, edge %d)", tc.name, field, edge, tc.field, tc.edge)
			}
		}
		if tc.field != "ok" {
			continue
		}
		for cut := 0; cut < len(tc.v3); cut++ {
			if field, _ := classify(func() error { _, err := decodeShardV3(tc.v3[:cut], tc.name, n, lo, hi, tc.count); return err }()); field != "" {
				t.Errorf("%s cut to %d of %d bytes: v3 decoder reports %q, want a structural error", tc.name, cut, len(tc.v3), field)
			}
		}
		for cut := 0; cut < len(tc.v2); cut++ {
			if field, _ := classify(readV2(tc.v2[:cut], tc.count)); field != "" {
				t.Errorf("%s cut to %d of %d bytes: v2 decoder reports %q, want a structural error", tc.name, cut, len(tc.v2), field)
			}
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
// micro graph: each format is strictly smaller on disk than the one
// before it, and the engine's byte counters see it — a full cold sweep
// over a compressed store records BytesRead < BytesLogical (the raw v1
// pricing of the same loads), while a v1 store records exact equality.
func TestFormatBytesOnMicroGraph(t *testing.T) {
	g := gen.TinySocial()
	sts := createAll(t, g, 8)
	var disk [4]int64
	for f, st := range sts {
		var err error
		if disk[f], err = st.DiskBytes(); err != nil {
			t.Fatal(err)
		}
	}
	if !(disk[FormatV3] < disk[FormatV2] && disk[FormatV2] < disk[FormatV1]) {
		t.Fatalf("store sizes v1 %d, v2 %d, v3 %d bytes are not strictly decreasing on the micro graph",
			disk[FormatV1], disk[FormatV2], disk[FormatV3])
	}
	if want := v1EncodedBytes(0)*int64(sts[FormatV1].NumShards()) + 8*g.NumEdges(); disk[FormatV1] != want {
		t.Fatalf("v1 store is %d bytes, want %d (8 per edge + headers)", disk[FormatV1], want)
	}
	for f, st := range sts {
		eng, err := NewEngine(st, g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Drive the byte counters through the engine path: one cold dense
		// sweep decodes every planned shard from disk.
		eng.EdgeMap(frontier.All(g), api.EdgeOp{
			Update:       func(u, v graph.VID) bool { return true },
			UpdateAtomic: func(u, v graph.VID) bool { return true },
		}, api.DirAuto)
		stats := eng.Stats()
		if stats.BytesRead <= 0 || stats.BytesLogical <= 0 {
			t.Fatalf("%v: byte counters not maintained: %+v", f, stats)
		}
		if f != FormatV1 && stats.BytesRead >= stats.BytesLogical {
			t.Fatalf("%v sweep read %d bytes, logical (raw) volume %d — no compression observed", f, stats.BytesRead, stats.BytesLogical)
		}
		if f == FormatV1 && stats.BytesRead != stats.BytesLogical {
			t.Fatalf("v1 sweep read %d bytes but logical volume is %d — v1 pricing must be exact", stats.BytesRead, stats.BytesLogical)
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
