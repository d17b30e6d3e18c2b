package shard

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// Native fuzz targets for the decoding surfaces a shard directory
// exposes: the JSON manifest, the binary shard files in all three
// on-disk formats (raw v1, delta+uvarint v2, run-grouped v3) and the
// GGD2 delta-shard files. The contract under fuzz is the one
// TestStoreFailurePaths pins with fixed fixtures — arbitrary bytes
// must produce an error or a valid store, never a panic and never an
// allocation sized by untrusted input. The corrupt-input table tests
// seeded the committed corpora under testdata/fuzz (see
// TestRegenFuzzCorpus).

// FuzzManifest feeds arbitrary bytes to Open as manifest.json. When Open
// accepts, the resulting store's accessors and shard loading must also
// be panic-free (shard files are absent, so loads error).
func FuzzManifest(f *testing.F) {
	for _, seed := range manifestSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "manifest.json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(dir)
		if err != nil {
			return
		}
		if !st.Format().valid() {
			t.Fatalf("Open accepted a manifest with invalid format %v", st.Format())
		}
		for i := 0; i < st.NumShards(); i++ {
			lo, hi := st.Range(i)
			if lo > hi || int(hi) > st.NumVertices() {
				t.Fatalf("Open accepted shard %d with range [%d,%d) over %d vertices", i, lo, hi, st.NumVertices())
			}
			if _, err := st.LoadShard(i); err == nil {
				t.Fatalf("LoadShard(%d) succeeded with no shard file on disk", i)
			}
		}
	})
}

// FuzzShardFile feeds arbitrary bytes to the v1 (raw uint32-pairs)
// shard-file decoder. The declared edge count is read from the fuzzed
// header itself and passed as the manifest's expectation — modelling a
// hostile directory whose manifest and shard header agree — so the
// decoder's only defence is validating the declared count against the
// file's actual size before allocating.
func FuzzShardFile(f *testing.F) {
	for _, seed := range shardFileSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "shard-0000.bin")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var want int64
		if len(data) >= 8 {
			want = int64(binary.LittleEndian.Uint64(data[:8]))
		}
		const n, lo, hi = 256, 64, 128
		c, _, err := readShardFile(path, FormatV1, n, lo, hi, want)
		if err != nil {
			return
		}
		checkDecodedInvariants(t, c, want, n, lo, hi)
	})
}

// FuzzShardFileV2 feeds arbitrary bytes to the v2 (delta+uvarint)
// streaming decoder. As in the v1 target, the manifest's edge-count
// expectation is read from the fuzzed header when it parses, so the
// decoder is exercised on inputs whose header and manifest agree —
// truncated varints, overflowing deltas and trailing garbage must all
// surface as errors, and anything accepted must decode to in-range,
// (dst,src)-sorted edges.
func FuzzShardFileV2(f *testing.F) {
	for _, seed := range shardFileV2Seeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "shard-0000.bin")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		want := int64(-1) // mismatches any parsed count unless the header declares one
		if len(data) > 4 && bytes.Equal(data[:4], shardMagicV2[:]) {
			if c, k := binary.Uvarint(data[4:]); k > 0 && c <= math.MaxInt64 {
				want = int64(c)
			}
		}
		const n, lo, hi = 256, 64, 128
		r, _, err := readShardFile(path, FormatV2, n, lo, hi, want)
		if err != nil {
			return
		}
		c := checkDecodedInvariants(t, r, want, n, lo, hi)
		for i := 1; i < len(c.Dst); i++ {
			if c.Dst[i] < c.Dst[i-1] ||
				(c.Dst[i] == c.Dst[i-1] && c.Src[i] < c.Src[i-1]) {
				t.Fatalf("accepted v2 stream not sorted by (dst,src) at edge %d: (%d,%d) after (%d,%d)",
					i, c.Src[i], c.Dst[i], c.Src[i-1], c.Dst[i-1])
			}
		}
	})
}

// FuzzShardFileV3 feeds arbitrary bytes to the v3 (run-grouped
// group-varint) batch decoder, with the manifest's edge-count
// expectation read from the fuzzed header as in the v2 target. Forged
// run headers, control bytes that disagree with the data section,
// overflowing gaps and trailing garbage must all surface as errors, and
// anything accepted must decode to in-range, (dst,src)-sorted edges
// that re-encode to a file decoding to the same edges.
func FuzzShardFileV3(f *testing.F) {
	for _, tc := range shardFileV3Cases() {
		f.Add(tc.v3)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want := int64(-1) // mismatches any parsed count unless the header declares one
		if len(data) > 4 && bytes.Equal(data[:4], shardMagicV3[:]) {
			if c, k := binary.Uvarint(data[4:]); k > 0 && c <= math.MaxInt64 {
				want = int64(c)
			}
		}
		const n, lo, hi = 256, 64, 128
		r, err := decodeShardV3(data, "fuzz", n, lo, hi, want)
		if err != nil {
			return
		}
		c := checkDecodedInvariants(t, r, want, n, lo, hi)
		for i := 1; i < len(c.Dst); i++ {
			if pairLess(c.Dst[i], c.Src[i], c.Dst[i-1], c.Src[i-1]) {
				t.Fatalf("accepted v3 file not sorted by (dst,src) at edge %d: (%d,%d) after (%d,%d)",
					i, c.Src[i], c.Dst[i], c.Src[i-1], c.Dst[i-1])
			}
		}
		again, err := decodeShardV3(encodeShardV3(r), "fuzz-reencoded", n, lo, hi, want)
		if err != nil || !sameRuns(again, r) {
			t.Fatalf("accepted v3 file does not survive a re-encode (err = %v)", err)
		}
	})
}

// FuzzDeltaShard feeds arbitrary bytes to the delta shard-file decoder.
// As in the base-format targets, the manifest's expectation (the
// deltaRef) is parsed from the fuzzed header when it parses, so the
// decoder runs on inputs whose header and manifest agree — its
// defences are the size bound, the per-ID range checks on both
// streams, and the trailing-byte check. Accepted inputs must decode to
// in-range, (dst,src)-sorted insert and tombstone streams.
func FuzzDeltaShard(f *testing.F) {
	for _, seed := range deltaShardSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "delta-0000-g000001.bin")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ref := deltaRef{Gen: 1, Ins: -1, Del: -1} // mismatches unless the header declares counts
		if len(data) > 4 && bytes.Equal(data[:4], deltaMagic[:]) {
			if ic, k := binary.Uvarint(data[4:]); k > 0 && ic <= math.MaxInt64 {
				if dc, k2 := binary.Uvarint(data[4+k:]); k2 > 0 && dc <= math.MaxInt64 {
					ref.Ins, ref.Del = int64(ic), int64(dc)
				}
			}
		}
		const n, lo, hi = 256, 64, 128
		ins, del, _, err := readDeltaFile(path, n, lo, hi, ref)
		if err != nil {
			return
		}
		for _, pl := range []struct {
			name string
			want int64
			pairList
		}{{"insert", ref.Ins, ins}, {"tombstone", ref.Del, del}} {
			if int64(len(pl.src)) != pl.want || int64(len(pl.dst)) != pl.want {
				t.Fatalf("decoded %d/%d %s edges, header says %d", len(pl.src), len(pl.dst), pl.name, pl.want)
			}
			for i := range pl.src {
				if int(pl.src[i]) >= n {
					t.Fatalf("accepted %s source %d >= %d vertices", pl.name, pl.src[i], n)
				}
				if pl.dst[i] < lo || pl.dst[i] >= hi {
					t.Fatalf("accepted %s destination %d outside [%d,%d)", pl.name, pl.dst[i], lo, hi)
				}
				if i > 0 && pairLess(pl.dst[i], pl.src[i], pl.dst[i-1], pl.src[i-1]) {
					t.Fatalf("accepted %s stream not sorted by (dst,src) at edge %d", pl.name, i)
				}
			}
		}
	})
}

// FuzzMeta feeds arbitrary bytes to the per-vertex Meta decoder over
// a fixed manifest (Chain(256) in four shards). Each input is decoded
// as given and again with a valid checksum appended, so the fuzzer
// reaches the structural checks behind the CRC. An accepted Meta must
// hold every invariant the planner and the degree queries lean on.
func FuzzMeta(f *testing.F) {
	for _, seed := range metaSeeds() {
		f.Add(seed)
	}
	mf := metaSeedManifest()
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, img := range [][]byte{data, reseal(data)} {
			m, err := decodeMeta(img, "fuzz", &mf)
			if err != nil {
				continue
			}
			if m.NumVertices() != mf.Vertices || m.outOff[mf.Vertices] != mf.Edges || m.inOff[mf.Vertices] != mf.Edges {
				t.Fatalf("accepted a Meta of %d vertices / %d out / %d in edges", m.NumVertices(), m.outOff[mf.Vertices], m.inOff[mf.Vertices])
			}
			for v := graph.VID(0); int(v) < mf.Vertices; v++ {
				if m.OutDegree(v) < 0 || m.InDegree(v) < 0 {
					t.Fatalf("accepted a negative degree at vertex %d", v)
				}
				if feeds := m.Feeds(v); feeds[0]>>mf.Shards != 0 || (feeds[0] == 0) != (m.OutDegree(v) == 0) {
					t.Fatalf("accepted vertex %d feeding %b with out-degree %d", v, feeds[0], m.OutDegree(v))
				}
			}
		}
	})
}

// metaSeedManifest is the manifest of Chain(256) in four shards, built
// in a scratch directory.
func metaSeedManifest() manifest {
	dir, err := os.MkdirTemp("", "shard-fuzz-meta-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	st, err := Create(dir, gen.Chain(256), WriteOptions{Partitions: 4})
	if err != nil {
		panic(err)
	}
	return st.m
}

// metaSeeds returns the Meta corpus: the fixture's valid file, plus
// truncations, a flipped byte and re-sealed structural corruptions.
func metaSeeds() [][]byte {
	mf := metaSeedManifest()
	m := &Meta{words: 1, outOff: make([]int64, 257), inOff: make([]int64, 257), feeds: make([]uint64, 256)}
	for v := 0; v < 256; v++ {
		m.outOff[v+1], m.inOff[v+1] = int64(min(v+1, 255)), int64(v)
		if v < 255 {
			m.feeds[v] = 1 << ((v + 1) / 64)
		}
	}
	valid := encodeMeta(m, mf.Shards)
	if _, err := decodeMeta(valid, "seed", &mf); err != nil {
		panic(err)
	}
	body := valid[:len(valid)-4]
	flipped := slices.Clone(valid)
	flipped[len(flipped)/2] ^= 1
	bits := slices.Clone(body)
	bits[len(bits)-2] = 0x7f // a mask word with bits past P
	return [][]byte{
		valid,
		valid[:len(valid)-1],
		valid[:8],
		flipped,
		reseal(body[:len(body)/2]),
		reseal(append(slices.Clone(body), 0)),
		reseal(bits),
		reseal(metaMagic[:]),
		{},
	}
}

// checkDecodedInvariants asserts what acceptance by any decoder means:
// the declared edge count was honoured, the run table is well formed
// (non-empty runs ending in ascending order at the last edge, strictly
// ascending destinations) and every edge satisfies the invariants the
// engine's partition-exclusive apply assumes. It returns the shard
// expanded to per-edge form.
func checkDecodedInvariants(t *testing.T, r *Runs, want int64, n int, lo, hi graph.VID) *graph.COO {
	t.Helper()
	if len(r.dst) != len(r.end) {
		t.Fatalf("run table has %d destinations and %d ends", len(r.dst), len(r.end))
	}
	prev := uint32(0)
	for i, end := range r.end {
		if end <= prev || (i > 0 && r.dst[i] <= r.dst[i-1]) {
			t.Fatalf("run %d (destination %d, end %d) after end %d is empty or out of order", i, r.dst[i], end, prev)
		}
		prev = end
	}
	if int(prev) != len(r.src) {
		t.Fatalf("runs cover %d of %d edges", prev, len(r.src))
	}
	src, dst := expand(r)
	c := &graph.COO{N: n, Src: src, Dst: dst}
	if int64(len(c.Src)) != want || int64(len(c.Dst)) != want {
		t.Fatalf("decoded %d/%d edges, header says %d", len(c.Src), len(c.Dst), want)
	}
	for i := range c.Src {
		if int(c.Src[i]) >= n {
			t.Fatalf("accepted source %d >= %d vertices", c.Src[i], n)
		}
		if c.Dst[i] < lo || c.Dst[i] >= hi {
			t.Fatalf("accepted destination %d outside [%d,%d)", c.Dst[i], lo, hi)
		}
	}
	return c
}

// expand returns r's edges in per-edge form, a destination per edge —
// the tests' own view; nothing outside the v1/v2 stream decoders builds
// one.
func expand(r *Runs) (src, dst []graph.VID) {
	for k, v := range r.dst {
		for _, u := range r.src[r.start(k):r.end[k]] {
			src, dst = append(src, u), append(dst, v)
		}
	}
	return src, dst
}

// pairLess orders (dst,src) pairs — the v2 on-disk order.
func pairLess(d1, s1, d2, s2 graph.VID) bool {
	if d1 != d2 {
		return d1 < d2
	}
	return s1 < s2
}

// manifestSeeds returns the corpus: valid manifests of every format plus the
// corrupt shapes TestStoreFailurePaths enumerates, serialised to bytes.
func manifestSeeds() [][]byte {
	valid := validManifest()
	mutate := func(edit func(*manifest)) []byte {
		m := valid
		// Deep-copy the slices an edit may alias.
		m.Bounds = append([]graph.VID(nil), valid.Bounds...)
		m.EdgeCounts = append([]int64(nil), valid.EdgeCounts...)
		m.SrcSummary = append([][]uint64(nil), valid.SrcSummary...)
		edit(&m)
		data, err := json.Marshal(m)
		if err != nil {
			panic(err)
		}
		return data
	}
	return [][]byte{
		mutate(func(*manifest) {}),
		// The same store declared in the other formats — the structural
		// fields are format-independent, so every magic must open.
		mutate(func(m *manifest) { m.Magic = FormatV1.manifestMagic() }),
		[]byte("{"),
		[]byte("null"),
		[]byte(`{"magic":"ggrind-shards-v1"}`),
		[]byte(`{"magic":"ggrind-shards-v2"}`),
		[]byte(`{"magic":"ggrind-shards-v3"}`),
		mutate(func(m *manifest) { m.Magic = "not-a-shard-store" }),
		mutate(func(m *manifest) { m.Magic = FormatV2.manifestMagic() }),
		mutate(func(m *manifest) { m.Magic = "ggrind-shards-v4" }),
		mutate(func(m *manifest) { m.EdgeCounts = m.EdgeCounts[:1] }),
		mutate(func(m *manifest) { m.Bounds = m.Bounds[:2] }),
		mutate(func(m *manifest) { m.SrcSummary = m.SrcSummary[:1] }),
		mutate(func(m *manifest) { m.Bounds[1] = graph.VID(m.Vertices) + 64 }),
		mutate(func(m *manifest) { m.Bounds[1], m.Bounds[2] = m.Bounds[2], m.Bounds[1] }),
		mutate(func(m *manifest) { m.EdgeCounts[0]++ }),
		mutate(func(m *manifest) { m.Bounds[1] += 3 }),
		mutate(func(m *manifest) { m.Vertices = -1 }),
		mutate(func(m *manifest) { m.Edges = 1 << 60; m.EdgeCounts[0] = 1 << 60 }),
	}
}

// validManifest writes a real 4-shard (v3) store and
// returns its manifest.
func validManifest() manifest {
	dir, err := os.MkdirTemp("", "shard-fuzz-seed-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	st, err := Create(dir, gen.Chain(256), WriteOptions{Partitions: 4})
	if err != nil {
		panic(err)
	}
	return st.m
}

// rawShardFile writes Chain(256) as a 4-shard store in the given format
// and returns shard 1's bytes — the shard owning destinations [64,128),
// the range both fuzz targets decode against.
func rawShardFile(format Format) []byte {
	dir, err := os.MkdirTemp("", "shard-fuzz-seed-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	if _, err := createFormat(dir, gen.Chain(256), 4, format); err != nil {
		panic(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "shard-0001.bin"))
	if err != nil {
		panic(err)
	}
	return data
}

// shardFileSeeds returns the v1 corpus: a real shard file plus the
// header and payload corruptions from the fixed-fixture tests.
func shardFileSeeds() [][]byte {
	valid := rawShardFile(FormatV1)
	truncated := append([]byte(nil), valid[:len(valid)/2]...)
	hugeCount := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint64(hugeCount[:8], 1<<60)
	badDst := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(badDst[len(badDst)-4:], 200)
	empty := make([]byte, 8)          // zero edges, consistent size
	v2Bytes := rawShardFile(FormatV2) // mixed-format: a v2 file fed to the v1 decoder
	return [][]byte{valid, truncated, hugeCount, badDst, empty, {1, 2, 3}, v2Bytes}
}

// shardFileV2Seeds returns the v2 corpus: a real compressed shard plus
// the varint-level corruptions the streaming decoder must reject —
// truncated varints, deltas that overflow the destination range or the
// vertex count, trailing bytes, counts that outrun the file, and a raw
// v1 file (the mixed-format manifest case).
func shardFileV2Seeds() [][]byte {
	valid := rawShardFile(FormatV2)
	truncMidVarint := append([]byte(nil), valid[:len(valid)-1]...)
	trailing := append(append([]byte(nil), valid...), 0)
	badMagic := append([]byte(nil), valid...)
	badMagic[0] = 'X'
	// Hand-built streams over the fuzz target's fixed geometry
	// (n=256, destinations [64,128)).
	build := func(count uint64, vals ...uint64) []byte {
		var buf bytes.Buffer
		buf.Write(shardMagicV2[:])
		var tmp [binary.MaxVarintLen64]byte
		buf.Write(tmp[:binary.PutUvarint(tmp[:], count)])
		for _, v := range vals {
			buf.Write(tmp[:binary.PutUvarint(tmp[:], v)])
		}
		return buf.Bytes()
	}
	return [][]byte{
		valid,
		truncMidVarint,
		trailing,
		badMagic,
		build(0),                           // empty shard, exact size
		build(1, 64, 3),                    // single in-range edge (3 -> 64)
		build(1, 63, 3),                    // destination below the range
		build(1, 128, 3),                   // destination at the range's end
		build(2, 64, 3, 1<<40, 0),          // destination delta overflows the range
		build(1, 64, 300),                  // source beyond the vertex count
		build(2, 64, 3, 0, 1<<40),          // source delta overflows the vertex count
		build(2, 64, 3, 0, math.MaxUint64), // source delta wraps uint64
		build(1<<40, 64, 3),                // declared count outruns the file
		build(1<<63-1, 64, 3),              // count so large the min-size bound would overflow
		shardMagicV2[:],                    // magic only, count truncated
		build(1, 64),                       // source varint missing
		rawShardFile(FormatV1),             // mixed-format: raw v1 bytes
	}
}

// v3Case is one v3 file image over the fuzz targets' fixed geometry
// (n=256, destinations [64,128)) with what decoding it must report:
// field is the *VIDRangeError field, "" for a structural error, "ok" for
// a valid file. v2 carries the same corruption in the v2 stream where
// one exists, so the table test can hold the two decoders to the same
// typed error.
type v3Case struct {
	name   string
	v3, v2 []byte
	count  int64
	field  string
	edge   int64
}

// shardFileV3Cases is the corrupt-every-field table: the seed corpus of
// FuzzShardFileV3 and the fixture of TestV3CorruptionTable.
func shardFileV3Cases() []v3Case {
	uvarints := func(magic [4]byte, vals ...uint64) []byte {
		out := append([]byte(nil), magic[:]...)
		var tmp [binary.MaxVarintLen64]byte
		for _, v := range vals {
			out = append(out, tmp[:binary.PutUvarint(tmp[:], v)]...)
		}
		return out
	}
	// v3 image: count, runs, header varints, then raw control + data.
	v3 := func(count, runs uint64, hdr []uint64, tail ...byte) []byte {
		return append(uvarints(shardMagicV3, append([]uint64{count, runs}, hdr...)...), tail...)
	}
	v2 := func(count uint64, vals ...uint64) []byte {
		return uvarints(shardMagicV2, append([]uint64{count}, vals...)...)
	}
	valid := rawShardFile(FormatV3)
	realCount, _ := binary.Uvarint(valid[4:])
	real := int64(realCount)
	badMagic := append([]byte(nil), valid...)
	badMagic[0] = 'X'
	// Two runs: 64 <- {3, 5} and 66 <- {9}: headers (len 2, skip 64),
	// (len 1, skip 1); control 0b000000; data 3, 2, 9.
	hdr := []uint64{1<<1 | 1, 64, 0<<1 | 1, 1}
	return []v3Case{
		{name: "real shard", v3: valid, v2: rawShardFile(FormatV2), count: real, field: "ok"},
		{name: "two runs", v3: v3(3, 2, hdr, 0, 3, 2, 9), v2: v2(3, 64, 3, 0, 2, 2, 9), count: 3, field: "ok"},
		{name: "empty shard", v3: v3(0, 0, nil), v2: v2(0), count: 0, field: "ok"},
		{name: "bad magic", v3: badMagic, count: real},
		{name: "raw v1 bytes", v3: rawShardFile(FormatV1), count: real},
		{name: "magic only", v3: shardMagicV3[:], v2: shardMagicV2[:], count: 0},
		{name: "run count missing", v3: v3(3, 2, nil)[:5], count: 3},
		{name: "count disagrees with manifest", v3: v3(3, 2, hdr, 0, 3, 2, 9), v2: v2(3, 64, 3, 0, 2, 2, 9), count: 4},
		{name: "count outruns the file", v3: v3(1<<40, 2, hdr, 0, 3, 2, 9), v2: v2(1<<40, 64, 3), count: 1 << 40},
		{name: "count near MaxInt64", v3: v3(1<<63-1, 2, hdr, 0, 3, 2, 9), v2: v2(1<<63-1, 64, 3), count: 1<<63 - 1},
		{name: "more runs than edges", v3: v3(3, 4, hdr, 0, 3, 2, 9), count: 3},
		{name: "destination below the range", v3: v3(1, 1, []uint64{1, 63}, 0, 3), v2: v2(1, 63, 3), count: 1, field: "destination"},
		{name: "destination at the range's end", v3: v3(1, 1, []uint64{1, 128}, 0, 3), v2: v2(1, 128, 3), count: 1, field: "destination"},
		{name: "destination skip overflows the range", v3: v3(2, 2, []uint64{1, 64, 1, 1 << 40}, 0, 3, 3), v2: v2(2, 64, 3, 1<<40, 0), count: 2, field: "destination", edge: 1},
		{name: "destination skip wraps uint64", v3: v3(2, 2, []uint64{1, 64, 1, math.MaxUint64}, 0, 3, 3), count: 2, field: "destination", edge: 1},
		{name: "header varint truncated", v3: v3(1, 1, nil, 0x81, 0x81, 0x81), count: 1},
		{name: "flagged header without its skip", v3: v3(1, 1, []uint64{1}, 0x80, 0x80), count: 1},
		{name: "run overruns the count", v3: v3(3, 2, []uint64{1<<1 | 1, 64, 5 << 1}, 0, 3, 2, 9), count: 3},
		{name: "runs cover too few edges", v3: v3(3, 1, []uint64{1<<1 | 1, 64}, 0, 3, 2, 9), count: 3},
		{name: "control bytes missing", v3: v3(3, 2, nil, 0x03, 0xc0, 0x80, 0x00, 0x01, 0x81, 0x00), count: 3}, // overlong skips pad the file past the size bound
		{name: "unused control bits set", v3: v3(3, 2, hdr, 0b01000000, 3, 2, 9, 0), count: 3},
		{name: "control bytes outrun the data", v3: v3(3, 2, hdr, 0b000001, 3, 2, 9), count: 3},
		{name: "trailing byte", v3: v3(3, 2, hdr, 0, 3, 2, 9, 0), v2: v2(3, 64, 3, 0, 2, 2, 9, 0), count: 3},
		{name: "source beyond the vertex count", v3: v3(1, 1, []uint64{1, 64}, 0b01, 0x2c, 0x01), v2: v2(1, 64, 300), count: 1, field: "source"},
		{name: "source gap overflows the vertex count", v3: v3(2, 1, []uint64{1<<1 | 1, 64}, 0b1100, 3, 0, 0, 0, 1), v2: v2(2, 64, 3, 0, 1<<24), count: 2, field: "source", edge: 1},
		{name: "maximal gap on a maximal source", v3: v3(2, 1, []uint64{1<<1 | 1, 64}, 0b1100, 255, 0xff, 0xff, 0xff, 0xff), v2: v2(2, 64, 255, 0, math.MaxUint32), count: 2, field: "source", edge: 1},
	}
}

// deltaShardSeeds returns the delta corpus: a real delta file written
// by ApplyBatch, plus hand-built corruptions over the fuzz target's
// fixed geometry (n=256, destinations [64,128)).
func deltaShardSeeds() [][]byte {
	valid := func() []byte {
		dir, err := os.MkdirTemp("", "shard-fuzz-seed-*")
		if err != nil {
			panic(err)
		}
		defer os.RemoveAll(dir)
		st, err := Create(dir, gen.Chain(256), WriteOptions{Partitions: 4})
		if err != nil {
			panic(err)
		}
		// Destinations in [64,128) → shard 1 gets the delta file.
		res, err := st.ApplyBatch(
			[]graph.Edge{{Src: 3, Dst: 64}, {Src: 5, Dst: 64}, {Src: 0, Dst: 100}},
			[]graph.Edge{{Src: 69, Dst: 70}},
		)
		if err != nil {
			panic(err)
		}
		if res.Inserted != 3 {
			panic(fmt.Sprintf("seed batch inserted %d edges, want 3", res.Inserted))
		}
		data, err := os.ReadFile(filepath.Join(dir, deltaFileName(1, 1)))
		if err != nil {
			panic(err)
		}
		return data
	}()
	build := func(ins, del uint64, vals ...uint64) []byte {
		var buf bytes.Buffer
		buf.Write(deltaMagic[:])
		var tmp [binary.MaxVarintLen64]byte
		buf.Write(tmp[:binary.PutUvarint(tmp[:], ins)])
		buf.Write(tmp[:binary.PutUvarint(tmp[:], del)])
		for _, v := range vals {
			buf.Write(tmp[:binary.PutUvarint(tmp[:], v)])
		}
		return buf.Bytes()
	}
	return [][]byte{
		valid,
		valid[:len(valid)-1],                     // truncated mid-varint
		append(append([]byte(nil), valid...), 0), // trailing byte
		deltaMagic[:],                            // counts truncated
		shardMagicV2[:],                          // a base v2 file fed to the delta decoder
		build(0, 0),                              // empty delta, exact size
		build(1, 0, 64, 3),                       // one in-range insert
		build(0, 1, 64, 3),                       // one in-range tombstone
		build(1, 1, 64, 3, 64, 3),                // both streams, fresh delta state each
		build(1, 0, 63, 3),                       // insert destination below the range
		build(0, 1, 128, 3),                      // tombstone destination at the range's end
		build(2, 0, 64, 3, 1<<40, 0),             // destination delta overflows the range
		build(1, 0, 64, 300),                     // source beyond the vertex count
		build(2, 0, 64, 3, 0, math.MaxUint64),    // source delta wraps uint64
		build(1<<40, 0, 64, 3),                   // declared count outruns the file
		build(1<<63-1, 1<<63-1),                  // counts so large the size bound would overflow
		build(1, 0, 64),                          // insert source varint missing
		build(1, 1, 64, 3),                       // tombstone stream missing entirely
	}
}

// TestRegenFuzzCorpus rewrites the committed seed corpora under
// testdata/fuzz from the seed generators above. It is a no-op unless
// REGEN_FUZZ_CORPUS=1, so the corpora stay deterministic artefacts of
// the table tests rather than hand-maintained binaries.
func TestRegenFuzzCorpus(t *testing.T) {
	if os.Getenv("REGEN_FUZZ_CORPUS") != "1" {
		t.Skip("set REGEN_FUZZ_CORPUS=1 to rewrite testdata/fuzz")
	}
	write := func(target string, seeds [][]byte) {
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, seed := range seeds {
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(seed)))
			name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
			if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	write("FuzzManifest", manifestSeeds())
	write("FuzzShardFile", shardFileSeeds())
	write("FuzzShardFileV2", shardFileV2Seeds())
	var v3Seeds [][]byte
	for _, tc := range shardFileV3Cases() {
		v3Seeds = append(v3Seeds, tc.v3)
	}
	write("FuzzShardFileV3", v3Seeds)
	write("FuzzDeltaShard", deltaShardSeeds())
	write("FuzzMeta", metaSeeds())
}
