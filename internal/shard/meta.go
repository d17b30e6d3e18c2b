package shard

// Per-vertex metadata persisted beside the manifest, so a store opens
// and rehosts in O(V) with no edge read: each vertex's out- and
// in-degree and its feeds-mask — bit s set iff the vertex has a live
// out-edge into shard s. The degrees back the api.System contract's
// degree queries (frontier statistics, PageRank's out-degree, k-core's
// seed); the masks let the sparse planner bucket an active source into
// the shards it feeds without reading its out-list.
//
// The file is one checksummed blob named by the manifest and by
// generation, written with the same temp+fsync+rename discipline as
// every other store file: Create writes it, ApplyBatch writes the new
// generation's copy before the manifest swap, Compact keeps it (the
// edge multiset does not change). Files of superseded generations stay
// on disk, so a Store value pinned to an older manifest keeps its own.
//
// Layout: the magic "GGM1", uvarint |V| and P, then |V| uvarint
// out-degrees, |V| uvarint in-degrees, |V|·⌈P/64⌉ uvarint mask words,
// and a little-endian CRC-32C of everything before it.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/bits"
	"os"
	"path/filepath"

	"repro/internal/graph"
)

// Meta is a store's per-vertex metadata at one generation. It is
// immutable once built: ApplyBatch derives the next generation's Meta
// as a copy, so engines over the previous generation keep theirs.
type Meta struct {
	words  int      // mask words per vertex: summaryWords(P)
	outOff []int64  // CSR-shaped out-degree prefix sums, length |V|+1
	inOff  []int64  // CSC-shaped in-degree prefix sums, length |V|+1
	feeds  []uint64 // feeds[v*words:(v+1)*words] is v's feeds-mask
}

// MetaError reports a per-vertex metadata file that is unreadable,
// corrupt, or disagrees with the manifest naming it — the typed error
// Open, Store.Meta and NewHost return instead of trusting it.
type MetaError struct {
	File   string
	Reason string
}

func (e *MetaError) Error() string { return fmt.Sprintf("shard: meta file %s: %s", e.File, e.Reason) }

var (
	metaMagic  = [4]byte{'G', 'G', 'M', '1'}
	metaCRCTab = crc32.MakeTable(crc32.Castagnoli)
)

func metaFileName(gen int64) string { return fmt.Sprintf("meta-g%06d.bin", gen) }

// NumVertices returns |V|.
func (m *Meta) NumVertices() int { return len(m.outOff) - 1 }

// OutDegree returns v's live out-degree.
func (m *Meta) OutDegree(v graph.VID) int64 { return m.outOff[v+1] - m.outOff[v] }

// InDegree returns v's live in-degree.
func (m *Meta) InDegree(v graph.VID) int64 { return m.inOff[v+1] - m.inOff[v] }

// Feeds returns v's feeds-mask: bit s of word s/64 is set iff v has a
// live out-edge into shard s. The slice aliases the Meta and must not
// be modified.
func (m *Meta) Feeds(v graph.VID) []uint64 { return m.feeds[int(v)*m.words : int(v+1)*m.words] }

// Graph returns a degree-only graph over the Meta's degrees
// (graph.DegreeOnly): n, m and degree queries, no adjacency. It aliases
// the Meta's arrays, so it costs no copy.
func (m *Meta) Graph() *graph.Graph { return graph.DegreeOnly(m.outOff, m.inOff) }

// newMetaFromParts computes the Meta of a store about to be written
// from g: the degrees are g's offsets (aliased — g is immutable), and
// the masks come from each shard's sources.
func newMetaFromParts(g *graph.Graph, parts []*graph.COO) *Meta {
	m := &Meta{
		words:  summaryWords(len(parts)),
		outOff: g.OutOffsets(),
		inOff:  g.InOffsets(),
	}
	m.feeds = make([]uint64, g.NumVertices()*m.words)
	for s, part := range parts {
		m.addFeeds(s, part.Src)
	}
	return m
}

// addFeeds sets bit s in the feeds-mask of every source in srcs.
func (m *Meta) addFeeds(s int, srcs []graph.VID) {
	w, bit := s/64, uint64(1)<<(s%64)
	for _, u := range srcs {
		m.feeds[int(u)*m.words+w] |= bit
	}
}

// sourceSummaries transposes the feeds-masks into the manifest's
// per-shard source-range summaries (SrcSummary): bit j of shard s's
// summary is set iff a vertex of bounds' range j feeds s. One O(V) pass.
func (m *Meta) sourceSummaries(bounds []graph.VID) [][]uint64 {
	p := len(bounds) - 1
	out := make([][]uint64, p)
	for s := range out {
		out[s] = make([]uint64, summaryWords(p))
	}
	acc := make([]uint64, m.words)
	for j := 0; j < p; j++ {
		clear(acc)
		feeds := m.feeds[int(bounds[j])*m.words : int(bounds[j+1])*m.words]
		for o := 0; o < len(feeds); o += m.words {
			for w := range acc {
				acc[w] |= feeds[o+w]
			}
		}
		for w, x := range acc {
			for ; x != 0; x &= x - 1 {
				s := 64*w + bits.TrailingZeros64(x)
				out[s][j/64] |= 1 << (j % 64)
			}
		}
	}
	return out
}

// runCounts returns, per shard of bounds, how many of its destinations
// have a live in-edge: the run count of its decoded form. One O(V) pass.
func (m *Meta) runCounts(bounds []graph.VID) []int64 {
	runs := make([]int64, len(bounds)-1)
	for s := range runs {
		off := m.inOff[bounds[s] : bounds[s+1]+1]
		var n int64
		for i := 1; i < len(off); i++ {
			n += min(off[i]-off[i-1], 1) // branch-free: a power-law graph's zero in-degrees are unpredictable
		}
		runs[s] = n
	}
	return runs
}

// Meta returns the store's per-vertex metadata. Stores written by this
// version persist it beside the manifest and it is read, validated
// against the manifest, once; older directories are measured with one
// streaming pass, like SourceSummary. Either way the result is cached
// for the Store's lifetime, and like SourceSummary the first call must
// not race other use of the Store value.
func (s *Store) Meta() (*Meta, error) {
	if s.meta != nil {
		return s.meta, nil
	}
	var m *Meta
	var err error
	if s.m.Meta != "" {
		m, err = readMetaFile(filepath.Join(s.dir, s.m.Meta), &s.m)
	} else {
		m, err = s.measureMeta()
	}
	if err != nil {
		return nil, err
	}
	s.meta = m
	return m, nil
}

// measureMeta computes the Meta of a store that predates the file with
// one pass over its shards' runs, one shard at a time: a run's length
// is its destination's in-degree.
func (s *Store) measureMeta() (*Meta, error) {
	n := s.m.Vertices
	m := &Meta{words: summaryWords(s.m.Shards), outOff: make([]int64, n+1), inOff: make([]int64, n+1)}
	m.feeds = make([]uint64, n*m.words)
	for i := 0; i < s.m.Shards; i++ {
		r, _, err := s.loadRuns(i)
		if err != nil {
			return nil, err
		}
		for _, u := range r.src {
			m.outOff[u+1]++
		}
		for k, v := range r.dst {
			m.inOff[v+1] += int64(r.end[k] - r.start(k))
		}
		m.addFeeds(i, r.src)
	}
	for v := 0; v < n; v++ {
		m.outOff[v+1] += m.outOff[v]
		m.inOff[v+1] += m.inOff[v]
	}
	return m, nil
}

// encodeMeta serialises m for P shards, checksum included.
func encodeMeta(m *Meta, p int) []byte {
	n := m.NumVertices()
	buf := make([]byte, 0, 4+2*binary.MaxVarintLen64+3*n+len(m.feeds)+4)
	buf = append(buf, metaMagic[:]...)
	buf = binary.AppendUvarint(buf, uint64(n))
	buf = binary.AppendUvarint(buf, uint64(p))
	for _, off := range [][]int64{m.outOff, m.inOff} {
		for v := 0; v < n; v++ {
			buf = binary.AppendUvarint(buf, uint64(off[v+1]-off[v]))
		}
	}
	for _, w := range m.feeds {
		buf = binary.AppendUvarint(buf, w)
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, metaCRCTab))
}

// writeMetaFile persists m as dir/name for a P-shard store.
func writeMetaFile(dir, name string, m *Meta, p int) error {
	data := encodeMeta(m, p)
	return writeFileAtomic(filepath.Join(dir, name), func(f *os.File) error {
		_, err := f.Write(data)
		return err
	})
}

// readMetaFile reads and validates the Meta file at path against the
// manifest mf (see decodeMeta).
func readMetaFile(path string, mf *manifest) (*Meta, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, &MetaError{path, err.Error()}
	}
	return decodeMeta(data, path, mf)
}

// decodeMeta validates and decodes one Meta file image: checksum,
// magic, |V| and P against the manifest, a size bound before any
// allocation sized by |V|, every degree and mask word in range, the
// degree sums against the manifest's edge total and each shard's live
// count (a shard holds exactly the in-edges of its range), a mask that
// is empty iff the out-degree is zero and has no more bits than it, and
// no trailing bytes. Anything else is a *MetaError, never a panic.
func decodeMeta(data []byte, path string, mf *manifest) (*Meta, error) {
	bad := func(format string, args ...any) (*Meta, error) {
		return nil, &MetaError{path, fmt.Sprintf(format, args...)}
	}
	if len(data) < len(metaMagic)+4 {
		return bad("%d bytes, too short for a header and a checksum", len(data))
	}
	body := data[:len(data)-4]
	if sum, want := crc32.Checksum(body, metaCRCTab), binary.LittleEndian.Uint32(data[len(body):]); sum != want {
		return bad("checksum %08x, file says %08x", sum, want)
	}
	if [4]byte(body[:4]) != metaMagic {
		return bad("not a meta file (magic %q)", body[:4])
	}
	pos := 4
	next := func() (uint64, bool) {
		x, k := binary.Uvarint(body[pos:])
		if k <= 0 {
			return 0, false
		}
		pos += k
		return x, true
	}
	n, ok1 := next()
	p, ok2 := next()
	if !ok1 || !ok2 {
		return bad("truncated header")
	}
	if n != uint64(mf.Vertices) || p != uint64(mf.Shards) {
		return bad("describes %d vertices over %d shards, manifest says %d over %d", n, p, mf.Vertices, mf.Shards)
	}
	words := summaryWords(mf.Shards)
	// Every vertex costs at least one byte per degree and per mask word.
	if need := int64(mf.Vertices) * int64(2+words); int64(len(body)-pos) < need {
		return bad("%d body bytes, need at least %d for %d vertices", len(body)-pos, need, mf.Vertices)
	}
	m := &Meta{
		words:  words,
		outOff: make([]int64, mf.Vertices+1),
		inOff:  make([]int64, mf.Vertices+1),
		feeds:  make([]uint64, mf.Vertices*words),
	}
	for di, off := range [][]int64{m.outOff, m.inOff} {
		for v := 0; v < mf.Vertices; v++ {
			d, ok := next()
			if !ok {
				return bad("truncated at the %s-degree of vertex %d", [2]string{"out", "in"}[di], v)
			}
			if d > uint64(mf.Edges-off[v]) {
				return bad("degrees sum past the manifest's %d edges at vertex %d", mf.Edges, v)
			}
			off[v+1] = off[v] + int64(d)
		}
		if off[mf.Vertices] != mf.Edges {
			return bad("degrees sum to %d, manifest says %d edges", off[mf.Vertices], mf.Edges)
		}
	}
	for si := 0; si < mf.Shards; si++ {
		lo, hi := mf.Bounds[si], mf.Bounds[si+1]
		if got := m.inOff[hi] - m.inOff[lo]; got != mf.EdgeCounts[si] {
			return bad("in-degrees of shard %d's range sum to %d, manifest says %d edges", si, got, mf.EdgeCounts[si])
		}
	}
	// Bits at or past P in the last word name no shard.
	spare := uint64(0)
	if r := mf.Shards % 64; r != 0 {
		spare = ^(uint64(1)<<r - 1)
	}
	for v := 0; v < mf.Vertices; v++ {
		set := 0
		for w := 0; w < words; w++ {
			x, ok := next()
			if !ok {
				return bad("truncated at the mask of vertex %d", v)
			}
			if w == words-1 && x&spare != 0 {
				return bad("vertex %d feeds shard %d of %d", v, 64*w+bits.TrailingZeros64(x&spare), mf.Shards)
			}
			m.feeds[v*words+w] = x
			set += bits.OnesCount64(x)
		}
		if d := m.outOff[v+1] - m.outOff[v]; (set == 0) != (d == 0) || int64(set) > d {
			return bad("vertex %d feeds %d shards with out-degree %d", v, set, d)
		}
	}
	if pos != len(body) {
		return bad("%d trailing bytes", len(body)-pos)
	}
	return m, nil
}
