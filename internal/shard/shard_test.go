package shard

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

func TestWriteOpenRoundTrip(t *testing.T) {
	g := gen.TinySocial()
	dir := t.TempDir()
	st, err := Create(dir, g, WriteOptions{Partitions: 8})
	if err != nil {
		t.Fatal(err)
	}
	if st.NumVertices() != g.NumVertices() || st.NumEdges() != g.NumEdges() {
		t.Fatal("sizes wrong")
	}
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st2.NumShards() != st.NumShards() {
		t.Fatal("shard count changed on reopen")
	}
	// The manifest round-trips every field, including the source-range
	// summary the engine's frontier-aware sweep uses.
	for i := 0; i < st.NumShards(); i++ {
		lo, hi := st.Range(i)
		lo2, hi2 := st2.Range(i)
		if lo != lo2 || hi != hi2 {
			t.Fatalf("shard %d range changed on reopen: [%d,%d) vs [%d,%d)", i, lo, hi, lo2, hi2)
		}
	}
	s1, err := st.SourceSummary()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := st2.SourceSummary()
	if err != nil {
		t.Fatal(err)
	}
	if len(s1) != len(s2) {
		t.Fatalf("summary length changed on reopen: %d vs %d", len(s1), len(s2))
	}
	for i := range s1 {
		for w := range s1[i] {
			if s1[i][w] != s2[i][w] {
				t.Fatalf("summary for shard %d changed on reopen", i)
			}
		}
	}
}

func TestSourceSummaryComputedWhenAbsent(t *testing.T) {
	// Stores written before the summary field existed must yield the
	// identical summary from a streaming pass.
	g := gen.TinySocial()
	dir := t.TempDir()
	st, err := Create(dir, g, WriteOptions{Partitions: 8})
	if err != nil {
		t.Fatal(err)
	}
	want, err := st.SourceSummary()
	if err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	st2.m.SrcSummary = nil // simulate a pre-summary manifest
	got, err := st2.SourceSummary()
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		for w := range want[i] {
			if got[i][w] != want[i][w] {
				t.Fatalf("computed summary for shard %d differs from persisted one", i)
			}
		}
	}
}

func TestSweepVisitsEveryEdgeOnce(t *testing.T) {
	g := gen.TinySocial()
	st, err := Create(t.TempDir(), g, WriteOptions{Partitions: 16})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[graph.Edge]int{}
	if err := st.Sweep(func(u, v graph.VID) { seen[graph.Edge{Src: u, Dst: v}]++ }); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, c := range seen {
		total += int64(c)
	}
	if total != g.NumEdges() {
		t.Fatalf("swept %d edges, want %d", total, g.NumEdges())
	}
	for _, e := range g.Edges() {
		if seen[e] == 0 {
			t.Fatalf("edge %v missing from shards", e)
		}
	}
}

func TestShardDestinationsInRange(t *testing.T) {
	g := gen.TinyRoad()
	st, err := Create(t.TempDir(), g, WriteOptions{Partitions: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < st.NumShards(); i++ {
		lo, hi := st.Range(i)
		c, err := st.LoadShard(i)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range c.Dst {
			if d < lo || d >= hi {
				t.Fatalf("shard %d: destination %d outside [%d,%d)", i, d, lo, hi)
			}
		}
	}
}

// TestStoreFailurePaths: every way a shard directory can be wrong must
// surface as an error — never a panic, never silently wrong data. The
// format-agnostic cases run against stores written in every on-disk
// format; byte-level shard corruptions are format-specific.
func TestStoreFailurePaths(t *testing.T) {
	manifestOf := func(dir string) string { return filepath.Join(dir, "manifest.json") }
	cases := []struct {
		name string
		// formats to write the store in before corrupting; nil = all.
		formats []Format
		// corrupt mutates a freshly written 4-shard store directory.
		corrupt func(t *testing.T, dir string)
		// openFails: Open(dir) must error. Otherwise Open must succeed
		// and LoadShard(0) must error.
		openFails bool
	}{
		{
			name:      "missing directory",
			corrupt:   func(t *testing.T, dir string) { os.RemoveAll(dir) },
			openFails: true,
		},
		{
			name: "missing manifest",
			corrupt: func(t *testing.T, dir string) {
				if err := os.Remove(manifestOf(dir)); err != nil {
					t.Fatal(err)
				}
			},
			openFails: true,
		},
		{
			name: "manifest is not JSON",
			corrupt: func(t *testing.T, dir string) {
				if err := os.WriteFile(manifestOf(dir), []byte("{"), 0o644); err != nil {
					t.Fatal(err)
				}
			},
			openFails: true,
		},
		{
			name: "wrong magic",
			corrupt: func(t *testing.T, dir string) {
				rewriteManifest(t, dir, func(m *manifest) { m.Magic = "not-a-shard-store" })
			},
			openFails: true,
		},
		{
			name: "edge-count list shorter than shard count",
			corrupt: func(t *testing.T, dir string) {
				rewriteManifest(t, dir, func(m *manifest) { m.EdgeCounts = m.EdgeCounts[:1] })
			},
			openFails: true,
		},
		{
			name: "bounds length disagrees with shard count",
			corrupt: func(t *testing.T, dir string) {
				rewriteManifest(t, dir, func(m *manifest) { m.Bounds = m.Bounds[:2] })
			},
			openFails: true,
		},
		{
			name: "source summary wrong shape",
			corrupt: func(t *testing.T, dir string) {
				rewriteManifest(t, dir, func(m *manifest) { m.SrcSummary = m.SrcSummary[:1] })
			},
			openFails: true,
		},
		{
			name: "bounds exceed the vertex count",
			corrupt: func(t *testing.T, dir string) {
				rewriteManifest(t, dir, func(m *manifest) {
					m.Bounds = append([]graph.VID(nil), m.Bounds...)
					m.Bounds[1] = graph.VID(m.Vertices) + 64
				})
			},
			openFails: true,
		},
		{
			name: "bounds not monotone",
			corrupt: func(t *testing.T, dir string) {
				rewriteManifest(t, dir, func(m *manifest) {
					m.Bounds = append([]graph.VID(nil), m.Bounds...)
					m.Bounds[1], m.Bounds[2] = m.Bounds[2], m.Bounds[1]
				})
			},
			openFails: true,
		},
		{
			name: "edge counts disagree with total",
			corrupt: func(t *testing.T, dir string) {
				rewriteManifest(t, dir, func(m *manifest) {
					m.EdgeCounts = append([]int64(nil), m.EdgeCounts...)
					m.EdgeCounts[0]++
				})
			},
			openFails: true,
		},
		{
			// The engine's non-atomic parallel apply requires 64-aligned
			// interior bounds; a foreign store without them must be
			// rejected, not silently corrupt frontiers.
			name: "interior bound not 64-aligned",
			corrupt: func(t *testing.T, dir string) {
				rewriteManifest(t, dir, func(m *manifest) {
					m.Bounds = append([]graph.VID(nil), m.Bounds...)
					m.Bounds[1] += 3
				})
			},
			openFails: true,
		},
		{
			name:    "shard destination outside its range",
			formats: []Format{FormatV1},
			corrupt: func(t *testing.T, dir string) {
				// Shard 0 of Chain(256) owns destinations [0,64); point
				// its last destination at a valid vertex outside that
				// range (v1 layout: int64 count, count src, count dst).
				path := filepath.Join(dir, "shard-0000.bin")
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				binary.LittleEndian.PutUint32(data[len(data)-4:], 200)
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
			},
		},
		{
			name: "shard file missing",
			corrupt: func(t *testing.T, dir string) {
				if err := os.Remove(filepath.Join(dir, "shard-0000.bin")); err != nil {
					t.Fatal(err)
				}
			},
		},
		{
			name: "shard file truncated",
			corrupt: func(t *testing.T, dir string) {
				path := filepath.Join(dir, "shard-0000.bin")
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
					t.Fatal(err)
				}
			},
		},
		{
			name:    "shard header disagrees with manifest edge count",
			formats: []Format{FormatV1},
			corrupt: func(t *testing.T, dir string) {
				path := filepath.Join(dir, "shard-0000.bin")
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				binary.LittleEndian.PutUint64(data[:8], uint64(len(data))) // bogus count
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
			},
		},
		{
			name:    "compressed header disagrees with manifest edge count",
			formats: []Format{FormatV2, FormatV3},
			corrupt: func(t *testing.T, dir string) {
				// Shard 0 of Chain(256) holds 63 edges, so its count
				// varint is the single byte after the 4-byte magic (v2
				// and v3 alike).
				path := filepath.Join(dir, "shard-0000.bin")
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if data[4] >= 0x80 {
					t.Fatalf("test assumes a single-byte count varint, got 0x%x", data[4])
				}
				data[4]++
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
			},
		},
		{
			name:    "compressed shard file has trailing bytes",
			formats: []Format{FormatV2, FormatV3},
			corrupt: func(t *testing.T, dir string) {
				path := filepath.Join(dir, "shard-0000.bin")
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append(data, 0), 0o644); err != nil {
					t.Fatal(err)
				}
			},
		},
		{
			// A mixed-format directory: the manifest declares one
			// encoding, the shard file holds another (the next format
			// round-robin). Every pairing must fail structurally, not
			// decode garbage.
			name: "shard file in the other format",
			corrupt: func(t *testing.T, dir string) {
				st, err := Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				other := st.Format()%FormatV3 + 1
				otherDir := t.TempDir()
				if _, err := createFormat(otherDir, gen.Chain(256), 4, other); err != nil {
					t.Fatal(err)
				}
				data, err := os.ReadFile(filepath.Join(otherDir, "shard-0000.bin"))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, "shard-0000.bin"), data, 0o644); err != nil {
					t.Fatal(err)
				}
			},
		},
	}
	for _, tc := range cases {
		formats := tc.formats
		if formats == nil {
			formats = []Format{FormatV1, FormatV2, FormatV3}
		}
		for _, format := range formats {
			t.Run(fmt.Sprintf("%s/%v", tc.name, format), func(t *testing.T) {
				g := gen.Chain(256)
				dir := t.TempDir()
				if _, err := createFormat(dir, g, 4, format); err != nil {
					t.Fatal(err)
				}
				tc.corrupt(t, dir)
				st, err := Open(dir)
				if tc.openFails {
					if err == nil {
						t.Fatal("Open accepted a corrupt store")
					}
					return
				}
				if err != nil {
					t.Fatalf("Open: %v", err)
				}
				if _, err := st.LoadShard(0); err == nil {
					t.Fatal("LoadShard accepted a corrupt shard file")
				}
			})
		}
	}
}

func TestLoadShardRejectsOutOfRangeIndex(t *testing.T) {
	st, err := Create(t.TempDir(), gen.Chain(32), WriteOptions{Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.LoadShard(99); err == nil {
		t.Fatal("out-of-range shard index accepted")
	}
	if _, err := st.LoadShard(-1); err == nil {
		t.Fatal("negative shard index accepted")
	}
}

// rewriteManifest round-trips the manifest through its JSON form with an
// edit applied, so corruption cases stay structurally valid JSON.
func rewriteManifest(t *testing.T, dir string, edit func(*manifest)) {
	t.Helper()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := st.m
	edit(&m)
	writeTestManifest(t, dir, m)
}

func writeTestManifest(t *testing.T, dir string, m manifest) {
	t.Helper()
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
}
