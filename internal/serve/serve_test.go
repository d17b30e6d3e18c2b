package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/api"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/shard"
)

// writeStore shards TinySocial into a fresh directory and returns the
// directory plus the graph it was written from.
func writeStore(t *testing.T, p int) (string, *graph.Graph) {
	t.Helper()
	g := gen.TinySocial()
	dir := t.TempDir()
	if _, err := shard.Create(dir, g, shard.WriteOptions{Partitions: p}); err != nil {
		t.Fatal(err)
	}
	return dir, g
}

func postJSON(t *testing.T, client *http.Client, url string, body any, out any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s response: %v", url, err)
		}
	}
	return resp
}

func getJSON(t *testing.T, client *http.Client, url string, out any) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decoding %s response: %v", url, err)
	}
}

// TestServeHTTPRoundTrip drives the whole API surface over real HTTP:
// open a store, list it, run one of each algorithm to completion,
// check the PageRank digest against a private solo engine, read stats,
// close the store, and confirm the error paths answer with errors
// rather than panics.
func TestServeHTTPRoundTrip(t *testing.T) {
	dir, g := writeStore(t, 12)
	s := New(Config{Options: shard.Options{Threads: 4}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := ts.Client()

	var opened storeInfo
	if resp := postJSON(t, c, ts.URL+"/v1/stores", map[string]string{"name": "tiny", "dir": dir}, &opened); resp.StatusCode != http.StatusCreated {
		t.Fatalf("open store: %s", resp.Status)
	}
	if opened.Vertices != g.NumVertices() || opened.Edges != g.NumEdges() || opened.Shards != 12 {
		t.Fatalf("opened store reports %d vertices / %d edges / %d shards, want %d / %d / 12",
			opened.Vertices, opened.Edges, opened.Shards, g.NumVertices(), g.NumEdges())
	}
	var listed []storeInfo
	getJSON(t, c, ts.URL+"/v1/stores", &listed)
	if len(listed) != 1 || listed[0].Name != "tiny" {
		t.Fatalf("store listing = %+v, want exactly [tiny]", listed)
	}

	// A private engine over its own copy of the store is the oracle.
	solo, err := shard.Build(t.TempDir(), g, 12, shard.Options{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	wantPR := digestF64(algorithms.PR(solo, 10).Ranks)

	for _, spec := range []QuerySpec{
		{Store: "tiny", Algo: "pagerank"},
		{Store: "tiny", Algo: "bfs", Src: 1},
		{Store: "tiny", Algo: "cc"},
		{Store: "tiny", Algo: "spmv"},
	} {
		var sub struct {
			ID string `json:"id"`
		}
		if resp := postJSON(t, c, ts.URL+"/v1/queries", spec, &sub); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %s: %s", spec.Algo, resp.Status)
		}
		var info queryInfo
		getJSON(t, c, ts.URL+"/v1/queries/"+sub.ID+"?wait=1", &info)
		if info.Status != "done" {
			t.Fatalf("%s finished %q (%s), want done", spec.Algo, info.Status, info.Error)
		}
		if info.Digest == "" {
			t.Fatalf("%s reported no digest", spec.Algo)
		}
		if spec.Algo == "pagerank" && info.Loads <= 0 {
			// The first query on a cold store must hit the disk; later
			// queries may run entirely off its resident shards.
			t.Fatalf("first query reported %d loads on a cold store", info.Loads)
		}
		if spec.Algo == "pagerank" && info.Digest != wantPR {
			t.Fatalf("served pagerank digest %s, solo engine digest %s: not bit-identical", info.Digest, wantPR)
		}
	}

	var stats statsInfo
	getJSON(t, c, ts.URL+"/v1/stats", &stats)
	if stats.Queries != 4 || len(stats.Stores) != 1 {
		t.Fatalf("stats report %d queries over %d stores, want 4 over 1", stats.Queries, len(stats.Stores))
	}
	if stats.Cache.Loads == 0 || stats.Cache.Bytes > stats.Cache.Budget {
		t.Fatalf("cache stats implausible after four queries: %+v", stats.Cache)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/stores/tiny", nil)
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("close store: %s", resp.Status)
	}

	// Error paths: unknown store, unknown algorithm, unknown query —
	// each answering with the uniform envelope and its machine code.
	var env errEnvelope
	if resp := postJSON(t, c, ts.URL+"/v1/queries", QuerySpec{Store: "tiny", Algo: "pagerank"}, &env); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("query on closed store: %s, want 404", resp.Status)
	}
	if env.Error.Code != "store_not_found" || env.Error.Message == "" {
		t.Fatalf("closed-store envelope = %+v, want code store_not_found", env)
	}
	if resp := postJSON(t, c, ts.URL+"/v1/queries", QuerySpec{Store: "nope", Algo: "sssp"}, &env); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown algorithm: %s, want 400", resp.Status)
	}
	if env.Error.Code != "invalid_argument" {
		t.Fatalf("unknown-algorithm envelope = %+v, want code invalid_argument", env)
	}
	r2, err := c.Get(ts.URL + "/v1/queries/q999")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	if r2.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown query: %s, want 404", r2.Status)
	}
	if err := json.NewDecoder(r2.Body).Decode(&env); err != nil || env.Error.Code != "query_not_found" {
		t.Fatalf("unknown-query envelope = %+v (%v), want code query_not_found", env, err)
	}
	if resp := postJSON(t, c, ts.URL+"/v1/stores", map[string]string{"name": "", "dir": dir}, &env); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty store name: %s, want 400", resp.Status)
	}
}

// TestServeUpdatesAndCompact drives the mutation endpoints end to end:
// a batch changes the PageRank digest (and only then), generations
// bump through the store listing, a session pinned before the batch
// keeps answering with the old content, a bad batch comes back 400
// with the envelope, and compaction folds the deltas without changing
// results.
func TestServeUpdatesAndCompact(t *testing.T) {
	dir, g := writeStore(t, 8)
	s := New(Config{Options: shard.Options{Threads: 2}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := ts.Client()

	if resp := postJSON(t, c, ts.URL+"/v1/stores", map[string]string{"name": "tiny", "dir": dir}, nil); resp.StatusCode != http.StatusCreated {
		t.Fatalf("open store: %s", resp.Status)
	}
	var env errEnvelope
	if resp := postJSON(t, c, ts.URL+"/v1/stores", map[string]string{"name": "tiny", "dir": dir}, &env); resp.StatusCode != http.StatusConflict || env.Error.Code != "store_exists" {
		t.Fatalf("reopen store: %s / %+v, want 409 store_exists", resp.Status, env)
	}

	runPR := func() string {
		var sub struct {
			ID string `json:"id"`
		}
		if resp := postJSON(t, c, ts.URL+"/v1/queries", QuerySpec{Store: "tiny", Algo: "pagerank"}, &sub); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit pagerank: %s", resp.Status)
		}
		var info queryInfo
		getJSON(t, c, ts.URL+"/v1/queries/"+sub.ID+"?wait=1", &info)
		if info.Status != "done" {
			t.Fatalf("pagerank finished %q (%s)", info.Status, info.Error)
		}
		return info.Digest
	}
	before := runPR()

	// A session captured now is pinned to generation 0 across the
	// mutations below.
	pinned, err := s.Session("tiny")
	if err != nil {
		t.Fatal(err)
	}
	wantPinned := digestF64(algorithms.PR(pinned, 10).Ranks)
	if wantPinned != before {
		t.Fatalf("pinned session digest %s, served digest %s", wantPinned, before)
	}

	// Mutate: drop one real edge, add two new ones.
	e0 := g.Edges()[0]
	var upd struct {
		Generation int64 `json:"generation"`
		Dirty      []int `json:"dirty"`
		Inserted   int64 `json:"inserted"`
		Deleted    int64 `json:"deleted"`
	}
	body := map[string]any{
		"insert": []map[string]uint32{{"src": 0, "dst": 9}, {"src": 9, "dst": 3}},
		"delete": []map[string]uint32{{"src": uint32(e0.Src), "dst": uint32(e0.Dst)}},
	}
	if resp := postJSON(t, c, ts.URL+"/v1/stores/tiny/updates", body, &upd); resp.StatusCode != http.StatusOK {
		t.Fatalf("apply updates: %s", resp.Status)
	}
	// RMAT graphs carry parallel edges and the tombstone removes every
	// copy, so Deleted counts at least one.
	if upd.Generation != 1 || upd.Inserted != 2 || upd.Deleted < 1 || len(upd.Dirty) == 0 {
		t.Fatalf("update result = %+v, want generation 1, 2 inserted, >=1 deleted, non-empty dirty", upd)
	}

	after := runPR()
	if after == before {
		t.Fatal("PageRank digest unchanged by an edge batch")
	}
	var listed []storeInfo
	getJSON(t, c, ts.URL+"/v1/stores", &listed)
	if len(listed) != 1 || listed[0].Generation != 1 || listed[0].PendingDeltas == 0 {
		t.Fatalf("store listing after update = %+v, want generation 1 with pending deltas", listed)
	}
	if got := digestF64(algorithms.PR(pinned, 10).Ranks); got != wantPinned {
		t.Fatalf("pinned session digest changed across the mutation: %s vs %s", got, wantPinned)
	}

	// A batch naming a vertex outside the store is a 400 with the
	// envelope, and mutates nothing.
	bad := map[string]any{"insert": []map[string]uint32{{"src": 1 << 20, "dst": 0}}}
	if resp := postJSON(t, c, ts.URL+"/v1/stores/tiny/updates", bad, &env); resp.StatusCode != http.StatusBadRequest || env.Error.Code != "invalid_argument" {
		t.Fatalf("bad batch: %s / %+v, want 400 invalid_argument", resp.Status, env)
	}
	if got := runPR(); got != after {
		t.Fatal("rejected batch changed query results")
	}

	// Compact folds the deltas; results and generation-after-compact
	// stay consistent.
	var comp struct {
		Generation int64 `json:"generation"`
	}
	if resp := postJSON(t, c, ts.URL+"/v1/stores/tiny/compact", nil, &comp); resp.StatusCode != http.StatusOK {
		t.Fatalf("compact: %s", resp.Status)
	}
	if comp.Generation != 2 {
		t.Fatalf("compacted to generation %d, want 2", comp.Generation)
	}
	getJSON(t, c, ts.URL+"/v1/stores", &listed)
	if listed[0].Generation != 2 || listed[0].PendingDeltas != 0 {
		t.Fatalf("store listing after compact = %+v, want generation 2 with no pending deltas", listed)
	}
	if got := runPR(); got != after {
		t.Fatal("compaction changed query results")
	}
	// Compacting again is a no-op: same generation.
	if resp := postJSON(t, c, ts.URL+"/v1/stores/tiny/compact", nil, &comp); resp.StatusCode != http.StatusOK || comp.Generation != 2 {
		t.Fatalf("idempotent compact: %s, generation %d", resp.Status, comp.Generation)
	}
	// Unknown store on both mutation routes: 404 with the envelope.
	if resp := postJSON(t, c, ts.URL+"/v1/stores/nope/updates", body, &env); resp.StatusCode != http.StatusNotFound || env.Error.Code != "store_not_found" {
		t.Fatalf("updates on unknown store: %s / %+v", resp.Status, env)
	}
	if resp := postJSON(t, c, ts.URL+"/v1/stores/nope/compact", nil, &env); resp.StatusCode != http.StatusNotFound || env.Error.Code != "store_not_found" {
		t.Fatalf("compact on unknown store: %s / %+v", resp.Status, env)
	}
}

// TestServeSessionConformance runs the api.System contract check over
// a served session — the adapter the differential ladder drives.
func TestServeSessionConformance(t *testing.T) {
	dir, _ := writeStore(t, 8)
	s := New(Config{Options: shard.Options{Threads: 4}})
	if err := s.OpenStore("tiny", dir); err != nil {
		t.Fatal(err)
	}
	sys, err := s.Session("tiny")
	if err != nil {
		t.Fatal(err)
	}
	if err := api.CheckSystem(sys); err != nil {
		t.Fatalf("served session violates the System contract: %v", err)
	}
}

// TestServedConcurrentPRBFS is the daemon-level acceptance test:
// PageRank and BFS submitted concurrently against one server must
// digest bit-identically to solo runs on private servers, and the
// shared cache must have performed strictly fewer loads than the two
// solo runs summed.
func TestServedConcurrentPRBFS(t *testing.T) {
	dir, _ := writeStore(t, 12)

	runOne := func(spec QuerySpec) (string, int64) {
		s := New(Config{Options: shard.Options{Threads: 4}})
		if err := s.OpenStore("tiny", dir); err != nil {
			t.Fatal(err)
		}
		id, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Wait(id); err != nil {
			t.Fatal(err)
		}
		s.mu.Lock()
		info := s.queries[id].info()
		s.mu.Unlock()
		if info.Status != "done" {
			t.Fatalf("solo %s finished %q (%s)", spec.Algo, info.Status, info.Error)
		}
		return info.Digest, info.Loads
	}
	prSpec := QuerySpec{Store: "tiny", Algo: "pagerank", Iters: 5}
	bfsSpec := QuerySpec{Store: "tiny", Algo: "bfs", Src: 1}
	wantPR, prLoads := runOne(prSpec)
	wantBFS, bfsLoads := runOne(bfsSpec)
	soloLoads := prLoads + bfsLoads

	s := New(Config{Options: shard.Options{Threads: 4}})
	if err := s.OpenStore("tiny", dir); err != nil {
		t.Fatal(err)
	}
	var ids [2]string
	var wg sync.WaitGroup
	for i, spec := range []QuerySpec{prSpec, bfsSpec} {
		id, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
		wg.Add(1)
		go func() { defer wg.Done(); s.Wait(id) }()
	}
	wg.Wait()

	digests := map[string]string{}
	for _, id := range ids {
		s.mu.Lock()
		info := s.queries[id].info()
		s.mu.Unlock()
		if info.Status != "done" {
			t.Fatalf("concurrent %s finished %q (%s)", info.Algo, info.Status, info.Error)
		}
		digests[info.Algo] = info.Digest
	}
	if digests["pagerank"] != wantPR {
		t.Fatalf("concurrent pagerank digest %s, solo %s: not bit-identical", digests["pagerank"], wantPR)
	}
	if digests["bfs"] != wantBFS {
		t.Fatalf("concurrent bfs digest %s, solo %s: not bit-identical", digests["bfs"], wantBFS)
	}

	concurrent := s.Cache().Stats().Loads
	if concurrent >= soloLoads {
		t.Fatalf("concurrent PR+BFS performed %d loads, want strictly fewer than the solo sum %d (%d + %d)",
			concurrent, soloLoads, prLoads, bfsLoads)
	}
	fmt.Printf("served PR+BFS: concurrent loads %d vs solo sum %d\n", concurrent, soloLoads)
}

// TestBinBudgetRehostReleasesBins is the bin-lifecycle regression test
// for mutations: a scatter/gather daemon retains bins (and spill
// files) for the generation it serves; when an update rehosts the
// store, the old host's bin store must drain to exactly zero — bytes,
// residents and spill files — even while a generation-pinned session
// keeps answering queries with the old content, and the new host must
// start accumulating bins of its own under the same budget.
func TestBinBudgetRehostReleasesBins(t *testing.T) {
	dir, g := writeStore(t, 8)
	const budget = int64(16 << 10) // half this store's bin footprint: spills happen
	s := New(Config{Options: shard.Options{
		Threads: 2, SweepMode: shard.SweepScatterGather, BinBudgetBytes: budget,
	}})
	if err := s.OpenStore("tiny", dir); err != nil {
		t.Fatal(err)
	}
	old, err := s.lookupHost("tiny")
	if err != nil {
		t.Fatal(err)
	}
	pinned, err := s.Session("tiny")
	if err != nil {
		t.Fatal(err)
	}
	before := digestF64(algorithms.PR(pinned, 10).Ranks)

	bs := old.BinStats()
	if bs.Bytes <= 0 || bs.Bytes > budget || bs.SpilledBytes <= 0 {
		t.Fatalf("pre-mutation bin stats %+v, want resident bytes within budget and spill traffic", bs)
	}
	spills, err := filepath.Glob(filepath.Join(dir, "bin-*-g000000.spill"))
	if err != nil {
		t.Fatal(err)
	}
	if len(spills) == 0 {
		t.Fatal("half-footprint budget produced no generation-0 spill files")
	}

	if _, err := s.ApplyUpdates("tiny", []graph.Edge{{Src: 0, Dst: 9}}, nil); err != nil {
		t.Fatal(err)
	}

	// The pinned session still serves generation 0 bit-exactly — and its
	// post-rehost sweeps (re-scattering into the closed bin cache) must
	// not resurrect any retained state.
	if got := digestF64(algorithms.PR(pinned, 10).Ranks); got != before {
		t.Fatalf("pinned session digest changed across the rehost: %s vs %s", got, before)
	}
	bs = old.BinStats()
	if bs.Bytes != 0 || bs.Resident != 0 || bs.Pinned != 0 || bs.Spilled != 0 {
		t.Fatalf("drained old host still holds bins: %+v", bs)
	}
	spills, err = filepath.Glob(filepath.Join(dir, "bin-*-g000000.spill"))
	if err != nil {
		t.Fatal(err)
	}
	if len(spills) != 0 {
		t.Fatalf("generation-0 spill files survived the rehost: %v", spills)
	}

	// Compaction rehosts again; the generation-1 host must drain the
	// same way once nothing runs on it.
	if _, err := s.CompactStore("tiny"); err != nil {
		t.Fatal(err)
	}
	if got, err := filepath.Glob(filepath.Join(dir, "bin-*.spill")); err != nil || len(got) != 0 {
		t.Fatalf("spill files survived the compaction rehost: %v (%v)", got, err)
	}

	// The fresh host accumulates bins again, inside the same budget, and
	// serves the mutated content.
	sess, err := s.Session("tiny")
	if err != nil {
		t.Fatal(err)
	}
	after := digestF64(algorithms.PR(sess, 10).Ranks)
	if after == before {
		t.Fatal("PageRank digest unchanged by the edge insertion")
	}
	cur, err := s.lookupHost("tiny")
	if err != nil {
		t.Fatal(err)
	}
	bs = cur.BinStats()
	if bs.PeakBytes <= 0 || bs.PeakBytes > budget {
		t.Fatalf("rehosted store's bin stats %+v, want fresh residency within the shared budget", bs)
	}
	_ = g
}
