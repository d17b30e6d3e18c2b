package shard

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/frontier"
	"repro/internal/gen"
	"repro/internal/graph"
)

// checkMetaAgainst asserts m describes g's live content as st shards
// it: every degree, and every feeds-mask bit set exactly for the shards
// the vertex's out-edges land in.
func checkMetaAgainst(t *testing.T, label string, m *Meta, g *graph.Graph, st *Store) {
	t.Helper()
	if m.NumVertices() != g.NumVertices() {
		t.Fatalf("%s: Meta has %d vertices, graph %d", label, m.NumVertices(), g.NumVertices())
	}
	want := make([]uint64, summaryWords(st.NumShards()))
	for v := graph.VID(0); int(v) < g.NumVertices(); v++ {
		if m.OutDegree(v) != g.OutDegree(v) || m.InDegree(v) != g.InDegree(v) {
			t.Fatalf("%s: vertex %d degrees out %d / in %d, want %d / %d",
				label, v, m.OutDegree(v), m.InDegree(v), g.OutDegree(v), g.InDegree(v))
		}
		clear(want)
		for _, w := range g.OutNeighbors(v) {
			s := st.Home(w)
			want[s/64] |= 1 << (s % 64)
		}
		if !slices.Equal(m.Feeds(v), want) {
			t.Fatalf("%s: vertex %d feeds %b, want %b", label, v, m.Feeds(v), want)
		}
	}
}

// TestMetaMatchesGraph: the Meta Create keeps in memory, the one Open
// reads back from its file, and the one measured by a streaming pass
// over a store with no file all equal the writer's graph — in every
// format, with one mask word and with two.
func TestMetaMatchesGraph(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, p := range []int{1, 8, 70} {
		g := randomTestGraph(r)
		if p == 70 {
			g = gen.ErdosRenyi(70*64, 20000, 3) // enough aligned units for 70 shards
		}
		for format, st := range createAll(t, g, p) {
			created, err := st.Meta()
			if err != nil {
				t.Fatal(err)
			}
			checkMetaAgainst(t, "created", created, g, st)
			reopened, err := Open(st.dir)
			if err != nil {
				t.Fatal(err)
			}
			read, err := reopened.Meta()
			if err != nil {
				t.Fatalf("%v p=%d: %v", format, p, err)
			}
			checkMetaAgainst(t, "read", read, g, reopened)
			reopened.m.Meta, reopened.meta = "", nil
			measured, err := reopened.Meta()
			if err != nil {
				t.Fatal(err)
			}
			checkMetaAgainst(t, "measured", measured, g, reopened)
		}
	}
}

// walkPlan is the reference sparse planner: walk each active source's
// out-list in g and bucket it into the shards its out-edges land in.
func walkPlan(g *graph.Graph, st *Store, active []graph.VID) ([]int, [][]graph.VID) {
	buckets := make([][]graph.VID, st.NumShards())
	for _, u := range active {
		for _, v := range g.OutNeighbors(u) {
			s := st.Home(v)
			if l := buckets[s]; len(l) == 0 || l[len(l)-1] != u {
				buckets[s] = append(l, u)
			}
		}
	}
	var plan []int
	for s, b := range buckets {
		if len(b) > 0 {
			plan = append(plan, s)
		}
	}
	return plan, buckets
}

// checkPlans holds a degree-only host's sparse planner over dir to the
// reference walk over g, on random frontiers of several sizes, and the
// store's persisted Meta to g and to a from-scratch measurement.
func checkPlans(t *testing.T, label, dir string, g *graph.Graph, r *rand.Rand) {
	t.Helper()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(st, nil, Options{Threads: 2})
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	checkMetaAgainst(t, label, e.meta, g, st)
	fresh := &Store{dir: st.dir, format: st.format, m: st.m.clone()}
	measured, err := fresh.measureMeta()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(measured, e.meta) {
		t.Fatalf("%s: persisted Meta differs from a measurement of the live content", label)
	}
	wantSummary := make([][]uint64, st.NumShards())
	for s := range wantSummary {
		wantSummary[s] = make([]uint64, summaryWords(st.NumShards()))
	}
	for _, ed := range g.Edges() {
		j := st.Home(ed.Src)
		wantSummary[st.Home(ed.Dst)][j/64] |= 1 << (j % 64)
	}
	if summary, _ := st.SourceSummary(); !reflect.DeepEqual(summary, wantSummary) {
		t.Fatalf("%s: persisted source summaries %v, live edges give %v", label, summary, wantSummary)
	}
	n := g.NumVertices()
	for trial := 0; trial < 20; trial++ {
		seen := map[graph.VID]bool{}
		var active []graph.VID
		for k := 1 + r.Intn(1+trial*n/20); k > 0; k-- {
			if v := graph.VID(r.Intn(n)); !seen[v] {
				seen[v] = true
				active = append(active, v)
			}
		}
		slices.Sort(active)
		plan := e.planSparse(frontier.FromList(n, active))
		wantPlan, wantBuckets := walkPlan(g, st, active)
		if !slices.Equal(plan, wantPlan) {
			t.Fatalf("%s: mask plan %v, walk plan %v", label, plan, wantPlan)
		}
		for s := range wantBuckets {
			if !slices.Equal(e.buckets[s], wantBuckets[s]) {
				t.Fatalf("%s: shard %d bucket %v, walk bucket %v", label, s, e.buckets[s], wantBuckets[s])
			}
		}
	}
}

// TestMetaPlansMatchAdjacencyWalk is the planner property: the plans
// and buckets the feeds-masks give equal those of a walk over the
// out-lists, on random graphs and on a 70-shard chain (two mask words,
// sparse source summaries), on stores mutated by batches — each batch
// deleting every edge from one source into one shard, so a mask bit
// must clear — and on their compactions, every store read back from
// its directory.
func TestMetaPlansMatchAdjacencyWalk(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	type fixture struct {
		g *graph.Graph
		p int
	}
	var fixtures []fixture
	for seed := 0; seed < 6; seed++ {
		fixtures = append(fixtures, fixture{randomTestGraph(r), 1 + r.Intn(6)})
	}
	fixtures = append(fixtures, fixture{gen.Chain(70 * 64), 70})
	for _, fx := range fixtures {
		g := fx.g
		if g.NumEdges() == 0 {
			continue
		}
		n := g.NumVertices()
		dir := t.TempDir()
		st, err := Create(dir, g, WriteOptions{Partitions: fx.p})
		if err != nil {
			t.Fatal(err)
		}
		checkPlans(t, "created", dir, g, r)
		want := multisetOf(g)
		for round := 0; round < 3; round++ {
			cur := graph.FromEdges(n, want.edges())
			var ins, del []graph.Edge
			// Every edge of one source into one shard: its bit must go.
			if live := cur.Edges(); len(live) > 0 {
				pick := live[r.Intn(len(live))]
				for _, v := range cur.OutNeighbors(pick.Src) {
					if st.Home(v) == st.Home(pick.Dst) {
						del = append(del, graph.Edge{Src: pick.Src, Dst: v})
					}
				}
				del = append(del, live[r.Intn(len(live))])
			}
			for i := 0; i < 20; i++ {
				ins = append(ins, graph.Edge{Src: graph.VID(r.Intn(n)), Dst: graph.VID(r.Intn(n))})
				del = append(del, graph.Edge{Src: graph.VID(r.Intn(n)), Dst: graph.VID(r.Intn(n))})
			}
			// An edge inserted and deleted by the same batch nets absent.
			ins = append(ins, graph.Edge{Src: 1, Dst: 2})
			del = append(del, graph.Edge{Src: 1, Dst: 2})
			if _, err := st.ApplyBatch(ins, del); err != nil {
				t.Fatal(err)
			}
			want.apply(ins, del)
			live := graph.FromEdges(n, want.edges())
			checkMetaAgainst(t, "after ApplyBatch", st.meta, live, st)
			checkPlans(t, "mutated", dir, live, r)
		}
		if _, err := st.Compact(); err != nil {
			t.Fatal(err)
		}
		checkPlans(t, "compacted", dir, graph.FromEdges(n, want.edges()), r)
	}
}

// metaFixture writes a small store and returns its directory and the
// raw bytes of its Meta file.
func metaFixture(t *testing.T) (string, []byte, *manifest) {
	t.Helper()
	dir := t.TempDir()
	st, err := Create(dir, gen.Chain(256), WriteOptions{Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, st.m.Meta))
	if err != nil {
		t.Fatal(err)
	}
	return dir, data, &st.m
}

// TestMetaRejectsCorruption: every way the Meta file or its manifest
// entry can be wrong is a *MetaError — at Open for the name, at NewHost
// for the content — and never a panic.
func TestMetaRejectsCorruption(t *testing.T) {
	_, valid, mf := metaFixture(t)
	good, err := decodeMeta(valid, "valid", mf)
	if err != nil {
		t.Fatal(err)
	}
	// edited re-encodes the fixture's Meta after edit, with a valid
	// checksum, so only the structural check can catch it.
	edited := func(edit func(m *Meta)) []byte {
		m := &Meta{words: good.words, outOff: slices.Clone(good.outOff), inOff: slices.Clone(good.inOff), feeds: slices.Clone(good.feeds)}
		edit(m)
		return encodeMeta(m, mf.Shards)
	}
	flipped := slices.Clone(valid)
	flipped[len(flipped)/2] ^= 0x10
	cases := []struct {
		name     string
		file     []byte // nil: leave the file as written
		metaName string // non-empty: point the manifest here instead
		atOpen   bool
	}{
		{name: "truncated file", file: valid[:len(valid)-3]},
		{name: "truncated body with a valid checksum", file: reseal(valid[:len(valid)/2])},
		{name: "empty file", file: []byte{}},
		{name: "bad checksum", file: flipped},
		{name: "bad checksum over a valid body", file: append(slices.Clone(valid[:len(valid)-1]), valid[len(valid)-1]^1)},
		{name: "trailing bytes", file: reseal(append(slices.Clone(valid[:len(valid)-4]), 0))},
		{name: "degree sums differ from the manifest's edges", file: edited(func(m *Meta) {
			for v := 200; v < len(m.outOff); v++ {
				m.outOff[v]++ // vertex 199 gains an out-edge
			}
		})},
		{name: "in-degrees disagree with a shard's edge count", file: edited(func(m *Meta) {
			for v := 1; v < 255; v++ {
				m.inOff[v]++ // vertex 0 (shard 0) gains an in-edge, vertex 254 (shard 3) loses its own
			}
		})},
		{name: "mask bit past the shard count", file: edited(func(m *Meta) { m.feeds[10] = 1 << 4 })},
		{name: "mask empty for a source", file: edited(func(m *Meta) { m.feeds[10] = 0 })},
		{name: "mask set for a sink", file: edited(func(m *Meta) { m.feeds[255] = 1 })},
		{name: "wrong vertex count", file: func() []byte {
			return encodeMeta(&Meta{words: 1, outOff: make([]int64, 2), inOff: make([]int64, 2), feeds: make([]uint64, 1)}, 4)
		}()},
		{name: "not a meta file", file: reseal([]byte("GGD2 not a meta body"))},
		{name: "missing file", metaName: "meta-g000009.bin"},
		{name: "name escapes the directory", metaName: "../meta-g000000.bin", atOpen: true},
		{name: "name in a subdirectory", metaName: "sub/meta-g000000.bin", atOpen: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir, _, _ := metaFixture(t)
			if tc.file != nil {
				if err := os.WriteFile(filepath.Join(dir, metaFileName(0)), tc.file, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if tc.metaName != "" {
				editManifest(t, dir, func(m map[string]any) { m["meta"] = tc.metaName })
			}
			var me *MetaError
			st, err := Open(dir)
			if tc.atOpen {
				if !errors.As(err, &me) {
					t.Fatalf("Open = %v, want a *MetaError", err)
				}
				t.Log(err)
				return
			}
			if err != nil {
				t.Fatalf("Open = %v, want the Meta checked at NewHost", err)
			}
			_, err = NewHost(st, nil, nil, Options{})
			if !errors.As(err, &me) {
				t.Fatalf("NewHost = %v, want a *MetaError", err)
			}
			t.Log(err)
		})
	}
}

// reseal appends a valid checksum to a Meta body, so only the
// structural decoder can reject it.
func reseal(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(slices.Clone(body), crc32.Checksum(body, metaCRCTab))
}

// editManifest rewrites dir's manifest through its JSON form.
func editManifest(t *testing.T, dir string, edit func(map[string]any)) {
	t.Helper()
	path := filepath.Join(dir, "manifest.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	edit(m)
	if data, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}
