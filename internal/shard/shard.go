// Package shard provides GraphChi-style out-of-core processing — the
// system the paper's partitioning-by-destination originates from (§II.B
// cites GraphChi's scheme; out-of-core engines "determine the
// partitioning factor such that individual partitions fit in core
// memory").
//
// The package has two layers. Store is the storage substrate: a graph's
// partitioned COO is written to one file per shard, and iteration
// streams shards from disk so resident edge data is bounded by a single
// shard regardless of |E|. Stores are written in one encoding (see
// Format), the run-grouped group-varint layout (v3), which cuts the
// bytes every dense sweep re-reads from disk to a quarter of the raw
// size and decodes them in batch from one read of the file; stores in
// the two older layouts — raw uint32 pairs (v1) and delta+uvarint (v2)
// — stay readable, and compacting one rewrites it as v3. Decoding is
// defensive end to end — manifests and shard files are validated
// structurally (magic, bounds, alignment, edge-count/file-size
// agreement, varint ranges) before anything is allocated or trusted, so
// corrupt or hostile directories surface as errors, never panics.
//
// Beside the manifest, a store persists its per-vertex Meta (meta.go):
// out- and in-degrees and, per vertex, the mask of shards it feeds. It
// is O(V), so a store opens and serves from it without reading an edge.
//
// Engine builds a full api.System on top of the Store, so every
// algorithm written against the engine-neutral API runs unmodified out
// of core. A sparse EdgeMap whose planned shards are all resident runs
// inline on the caller's goroutine, each shard visiting only its active
// sources' edges through a cache-priced source index (sparse.go); every
// other EdgeMap is a pipelined sweep in four stages:
//
//	plan     — pick the shard set, in ascending shard order: exact for
//	           sparse frontiers (bucket each active source into the
//	           shards its feeds-mask names, from the per-vertex Meta —
//	           no out-list is read), source-range summary pruning for
//	           dense ones;
//	stage    — a dedicated staging goroutine walks the plan in order,
//	           keeping up to 2×Threads shards staged ahead while earlier
//	           shards are being applied: cached shards are pinned in
//	           the byte-budgeted SharedCache the engine fetches
//	           through, uncached ones are read synchronously, one at a
//	           time per store. A load decodes the file straight into
//	           the resident's destination-sorted arrays (zipping in
//	           pending deltas) and finds each apply task's edge range
//	           with one search per task boundary — no regrouping pass;
//	apply    — the pool's workers claim the staged shards' tasks —
//	           64-aligned destination sub-ranges — in plan order, so
//	           updates are partition-exclusive and need no atomics;
//	publish  — the next frontier and its statistics are assembled once,
//	           after the last shard.
//
// The same partitioning invariant as in-memory processing holds: a
// shard holds all in-edges of its vertex range, so updates from a shard
// sweep are confined to that range.
package shard

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/graph"
	"repro/internal/partition"
)

// manifest is the on-disk index of a sharded graph.
type manifest struct {
	Magic    string      `json:"magic"`
	Vertices int         `json:"vertices"`
	Edges    int64       `json:"edges"`
	Shards   int         `json:"shards"`
	Bounds   []graph.VID `json:"bounds"`
	// EdgeCounts is the *live* per-shard edge count — base file plus
	// pending deltas merged — and always sums to Edges. For a store
	// with no deltas it equals the base files' counts.
	EdgeCounts []int64 `json:"edge_counts"`
	// SrcSummary[i] is a bitset over the P destination ranges: bit j is
	// set iff shard i contains an edge whose source lies in range j. The
	// engine's frontier-aware sweep intersects it with the frontier's
	// active ranges to skip shards. Optional: stores written before the
	// field existed derive it lazily from the per-vertex Meta. For
	// mutated stores it describes the live (merged) content exactly —
	// ApplyBatch transposes it from the edited Meta's feeds-masks.
	SrcSummary [][]uint64 `json:"src_summary,omitempty"`

	// The log-structured delta layer (delta.go, compact.go). All four
	// fields are optional: stores written before the layer existed
	// carry none of them and read as generation 0 with no deltas.
	//
	// Generation counts manifest swaps — ApplyBatch and Compact each
	// bump it once. BaseFiles names each shard's base file (nil → the
	// legacy shard-%04d.bin names; compaction re-points entries at
	// generation-suffixed files and never overwrites a live one).
	// BaseEdgeCounts is the edge count stored in each base *file*
	// (nil → EdgeCounts: no deltas were ever applied, so file and live
	// counts agree). Deltas lists each shard's pending delta files
	// oldest-first. Older manifests also carry a per-shard "dirty_gen"
	// array; Open ignores it, and the next ApplyBatch or Compact writes
	// a manifest without it.
	Generation     int64        `json:"generation,omitempty"`
	BaseFiles      []string     `json:"base_files,omitempty"`
	BaseEdgeCounts []int64      `json:"base_edge_counts,omitempty"`
	Deltas         [][]deltaRef `json:"deltas,omitempty"`

	// Meta names the per-vertex metadata file (meta.go) describing this
	// generation's live content. Optional: stores written before the
	// file existed measure it with one streaming pass (Store.Meta).
	Meta string `json:"meta,omitempty"`
}

// Store is an opened sharded graph directory.
type Store struct {
	dir    string
	format Format
	m      manifest
	meta   *Meta // loaded or measured on first use (Store.Meta)
}

// DefaultPartitions is the shard count Create selects when
// WriteOptions.Partitions is zero.
const DefaultPartitions = 16

// WriteOptions parameterizes Create, validating like engine Options
// do: nonsense values are rejected with a typed *OptionsError at
// construction time, zero values select documented defaults.
type WriteOptions struct {
	// Partitions is the destination-range shard count; 0 selects
	// DefaultPartitions.
	Partitions int
}

// normalize validates wo and resolves its defaults.
func (wo WriteOptions) normalize() (WriteOptions, error) {
	if wo.Partitions < 0 {
		return wo, &OptionsError{"Partitions", int64(wo.Partitions), "must be >= 0 (0 selects DefaultPartitions)"}
	}
	if wo.Partitions == 0 {
		wo.Partitions = DefaultPartitions
	}
	return wo, nil
}

// Create shards g into dir (created if needed), partitioned by
// destination and written in FormatV3, and returns the opened store at
// generation 0. It is the one writer entry point: the batch-mutation
// (ApplyBatch) and compaction (Compact) surfaces hang off the Store it
// returns.
func Create(dir string, g *graph.Graph, wo WriteOptions) (*Store, error) {
	wo, err := wo.normalize()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	pt := partition.ByDestination(g, wo.Partitions, partition.BalanceEdges)
	pcoo := partition.NewPCOO(g, pt)
	m := manifest{
		Magic:    FormatV3.manifestMagic(),
		Vertices: g.NumVertices(),
		Edges:    g.NumEdges(),
		Shards:   pt.P,
		Bounds:   pt.Bounds,
		Meta:     metaFileName(0),
	}
	meta := newMetaFromParts(g, pcoo.Parts)
	if err := writeMetaFile(dir, m.Meta, meta, pt.P); err != nil {
		return nil, err
	}
	m.SrcSummary = meta.sourceSummaries(pt.Bounds)
	for i, part := range pcoo.Parts {
		m.EdgeCounts = append(m.EdgeCounts, part.NumEdges())
		part = sortByDst(part, pt.Bounds[i], pt.Bounds[i+1])
		if err := writeShardFile(shardPath(dir, i), part); err != nil {
			return nil, err
		}
	}
	// The manifest is written last, atomically, and the directory is
	// synced after it (writeManifest): the manifest names only shard
	// files that are already durable, so a crash anywhere in the
	// conversion leaves a directory that opens as the previous complete
	// store (or fails Open's validation with a typed error), never one
	// that silently decodes torn data.
	if err := writeManifest(dir, m); err != nil {
		return nil, err
	}
	return &Store{dir: dir, format: FormatV3, m: m, meta: meta}, nil
}

// Open loads an existing sharded graph directory.
func Open(dir string) (*Store, error) {
	data, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("shard: bad manifest: %v", err)
	}
	// The manifest magic doubles as the store's format declaration.
	format := FormatV1
	for format.valid() && m.Magic != format.manifestMagic() {
		format++
	}
	if !format.valid() {
		return nil, fmt.Errorf("shard: bad magic %q", m.Magic)
	}
	if m.Shards != len(m.EdgeCounts) || len(m.Bounds) != m.Shards+1 {
		return nil, fmt.Errorf("shard: inconsistent manifest")
	}
	if m.Vertices < 0 || m.Edges < 0 {
		return nil, fmt.Errorf("shard: negative sizes in manifest (%d vertices, %d edges)", m.Vertices, m.Edges)
	}
	if m.Bounds[0] != 0 || int(m.Bounds[m.Shards]) != m.Vertices {
		return nil, fmt.Errorf("shard: bounds span [%d,%d], want [0,%d]", m.Bounds[0], m.Bounds[m.Shards], m.Vertices)
	}
	var edgeSum int64
	for i := 0; i < m.Shards; i++ {
		if m.Bounds[i] > m.Bounds[i+1] {
			return nil, fmt.Errorf("shard: bounds not monotone at %d", i)
		}
		// Interior bounds must be BoundaryAlign-aligned (or the exhausted
		// tail |V|): the engine's non-atomic parallel apply relies on
		// ranges never sharing a frontier-bitmap word, so a foreign store
		// violating it would corrupt frontiers silently.
		if i > 0 && int(m.Bounds[i])%partition.BoundaryAlign != 0 && int(m.Bounds[i]) != m.Vertices {
			return nil, fmt.Errorf("shard: bound %d (%d) not aligned to %d vertices", i, m.Bounds[i], partition.BoundaryAlign)
		}
		if m.EdgeCounts[i] < 0 {
			return nil, fmt.Errorf("shard: negative edge count for shard %d", i)
		}
		edgeSum += m.EdgeCounts[i]
	}
	if edgeSum != m.Edges {
		return nil, fmt.Errorf("shard: edge counts sum to %d, manifest says %d", edgeSum, m.Edges)
	}
	if m.SrcSummary != nil {
		if len(m.SrcSummary) != m.Shards {
			return nil, fmt.Errorf("shard: source summary covers %d shards, want %d", len(m.SrcSummary), m.Shards)
		}
		for i, s := range m.SrcSummary {
			if len(s) != summaryWords(m.Shards) {
				return nil, fmt.Errorf("shard: source summary %d has %d words, want %d", i, len(s), summaryWords(m.Shards))
			}
		}
	}
	if err := validateDeltaLayer(&m); err != nil {
		return nil, err
	}
	if m.Meta != "" && !validStoreFileName(m.Meta) {
		return nil, &MetaError{m.Meta, "not a plain file name inside the store directory"}
	}
	return &Store{dir: dir, format: format, m: m}, nil
}

// validateDeltaLayer structurally checks the optional log-structured
// fields before anything is read through them: lengths must match the
// shard count, file names must be plain names inside the store
// directory (a hostile manifest must not reach outside it), counts and
// generations must be in range. Byte-level agreement — delta counts vs
// file contents, merged counts vs EdgeCounts — is enforced again at
// read time per file.
func validateDeltaLayer(m *manifest) error {
	if m.Generation < 0 {
		return fmt.Errorf("shard: negative generation %d", m.Generation)
	}
	if m.BaseFiles != nil && len(m.BaseFiles) != m.Shards {
		return fmt.Errorf("shard: base files cover %d shards, want %d", len(m.BaseFiles), m.Shards)
	}
	for i, name := range m.BaseFiles {
		if !validStoreFileName(name) {
			return fmt.Errorf("shard: bad base file name %q for shard %d", name, i)
		}
	}
	if m.BaseEdgeCounts != nil && len(m.BaseEdgeCounts) != m.Shards {
		return fmt.Errorf("shard: base edge counts cover %d shards, want %d", len(m.BaseEdgeCounts), m.Shards)
	}
	for i, c := range m.BaseEdgeCounts {
		if c < 0 {
			return fmt.Errorf("shard: negative base edge count for shard %d", i)
		}
	}
	if m.Deltas != nil && len(m.Deltas) != m.Shards {
		return fmt.Errorf("shard: delta lists cover %d shards, want %d", len(m.Deltas), m.Shards)
	}
	for i, refs := range m.Deltas {
		prevGen := int64(0)
		for _, ref := range refs {
			if !validStoreFileName(ref.File) {
				return fmt.Errorf("shard: bad delta file name %q for shard %d", ref.File, i)
			}
			if ref.Gen <= prevGen || ref.Gen > m.Generation {
				return fmt.Errorf("shard: delta generation %d for shard %d outside (%d,%d]", ref.Gen, i, prevGen, m.Generation)
			}
			if ref.Ins < 0 || ref.Del < 0 || ref.Ins > maxDeltaEdges || ref.Del > maxDeltaEdges {
				return fmt.Errorf("shard: delta %s declares %d inserts / %d tombstones", ref.File, ref.Ins, ref.Del)
			}
			prevGen = ref.Gen
		}
	}
	return nil
}

// validStoreFileName accepts only plain file names — no separators, no
// dot-dot, nothing that could step outside the store directory.
func validStoreFileName(name string) bool {
	return name != "" && name != "." && name != ".." && name == filepath.Base(name)
}

// Format returns the store's shard-file encoding (declared by the
// manifest magic).
func (s *Store) Format() Format { return s.format }

// DiskBytes returns the total on-disk size of the store's live shard
// files — base files plus pending deltas; the manifest and files
// orphaned by compaction excluded, so the figure divides by |E| into a
// clean bytes-per-edge.
func (s *Store) DiskBytes() (int64, error) {
	var total int64
	for i := 0; i < s.m.Shards; i++ {
		fi, err := os.Stat(s.basePath(i))
		if err != nil {
			return 0, err
		}
		total += fi.Size()
		for _, ref := range s.deltas(i) {
			fi, err := os.Stat(filepath.Join(s.dir, ref.File))
			if err != nil {
				return 0, err
			}
			total += fi.Size()
		}
	}
	return total, nil
}

// NumVertices returns |V|.
func (s *Store) NumVertices() int { return s.m.Vertices }

// NumEdges returns |E|.
func (s *Store) NumEdges() int64 { return s.m.Edges }

// NumShards returns the shard count.
func (s *Store) NumShards() int { return s.m.Shards }

// Range returns shard i's destination vertex range.
func (s *Store) Range(i int) (lo, hi graph.VID) { return s.m.Bounds[i], s.m.Bounds[i+1] }

// Home returns the shard whose destination range contains v.
func (s *Store) Home(v graph.VID) int {
	pt := partition.Partitioning{P: s.m.Shards, Bounds: s.m.Bounds}
	return pt.Home(v)
}

func summaryWords(p int) int { return (p + 63) / 64 }

// SourceSummary returns, per shard, the bitset of destination ranges
// that contain at least one of the shard's edge sources. Stores written
// by this version persist it in the manifest; older directories derive
// it from the per-vertex Meta (Store.Meta: one streaming pass when the
// store predates that too), cached for the Store's lifetime.
func (s *Store) SourceSummary() ([][]uint64, error) {
	if s.m.SrcSummary != nil {
		return s.m.SrcSummary, nil
	}
	meta, err := s.Meta()
	if err != nil {
		return nil, err
	}
	s.m.SrcSummary = meta.sourceSummaries(s.m.Bounds)
	return s.m.SrcSummary, nil
}

// LoadShard reads shard i's edges from disk, validating that every
// source is a vertex and every destination falls inside the shard's
// range (the invariant the engine's partition-exclusive apply assumes);
// out-of-range IDs surface as *VIDRangeError.
func (s *Store) LoadShard(i int) (*graph.COO, error) {
	c, _, err := s.loadShard(i)
	return c, err
}

// loadShard is LoadShard plus the on-disk byte count of the decoded
// file(s) — the engine's BytesRead accounting. The result is
// (dst,src)-sorted in freshly allocated arrays the caller owns; a shard
// with pending deltas has them zipped in (mergeDeltas).
func (s *Store) loadShard(i int) (*graph.COO, int64, error) {
	if i < 0 || i >= s.m.Shards {
		return nil, 0, fmt.Errorf("shard: index %d out of range", i)
	}
	c, size, err := readShardFile(s.basePath(i), s.format, s.m.Vertices, s.m.Bounds[i], s.m.Bounds[i+1], s.baseEdgeCount(i))
	if err != nil || len(s.deltas(i)) == 0 {
		return c, size, err
	}
	return s.mergeDeltas(i, c, size)
}

// basePath returns shard i's base file path — the legacy fixed name
// unless compaction re-pointed the manifest at a generation-suffixed
// file.
func (s *Store) basePath(i int) string {
	if s.m.BaseFiles != nil {
		return filepath.Join(s.dir, s.m.BaseFiles[i])
	}
	return shardPath(s.dir, i)
}

// baseEdgeCount returns the edge count stored in shard i's base file
// (EdgeCounts holds the live merged count once deltas exist).
func (s *Store) baseEdgeCount(i int) int64 {
	if s.m.BaseEdgeCounts != nil {
		return s.m.BaseEdgeCounts[i]
	}
	return s.m.EdgeCounts[i]
}

// deltas returns shard i's pending delta refs, oldest first.
func (s *Store) deltas(i int) []deltaRef {
	if s.m.Deltas == nil {
		return nil
	}
	return s.m.Deltas[i]
}

// Sweep streams every shard once, in order, calling fn for each edge.
// Only one shard is resident at a time.
func (s *Store) Sweep(fn func(u, v graph.VID)) error {
	for i := 0; i < s.m.Shards; i++ {
		c, err := s.LoadShard(i)
		if err != nil {
			return err
		}
		for e := range c.Src {
			fn(c.Src[e], c.Dst[e])
		}
	}
	return nil
}

func shardPath(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%04d.bin", i))
}
