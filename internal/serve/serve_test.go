package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
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
// a served session — the adapter the differential ladder drives. The
// session's graph is degree-only, so the contract is checked against
// the graph the store was written from.
func TestServeSessionConformance(t *testing.T) {
	dir, g := writeStore(t, 8)
	s := New(Config{Options: shard.Options{Threads: 4}})
	if err := s.OpenStore("tiny", dir); err != nil {
		t.Fatal(err)
	}
	sys, err := s.Session("tiny")
	if err != nil {
		t.Fatal(err)
	}
	if err := api.CheckSystemAgainst(sys, g); err != nil {
		t.Fatalf("served session violates the System contract: %v", err)
	}
}

// TestServeSessionRefusesAdjacency: an algorithm that reads neighbour
// lists through a served session's graph (triangle counting) is
// refused with graph.ErrNoAdjacency — a typed panic the query path
// turns into a failed query — and the same session still runs the
// degree-only algorithms.
func TestServeSessionRefusesAdjacency(t *testing.T) {
	dir, g := writeStore(t, 8)
	s := New(Config{Options: shard.Options{Threads: 2}})
	if err := s.OpenStore("tiny", dir); err != nil {
		t.Fatal(err)
	}
	sys, err := s.Session("tiny")
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			err, _ := recover().(error)
			if !errors.Is(err, graph.ErrNoAdjacency) {
				t.Fatalf("triangle count over a served session panicked with %v, want graph.ErrNoAdjacency", err)
			}
		}()
		algorithms.TriangleCount(sys)
		t.Fatal("triangle count ran over a degree-only session")
	}()
	solo, err := shard.Build(t.TempDir(), g, 8, shard.Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := digestF64(algorithms.PR(sys, 10).Ranks), digestF64(algorithms.PR(solo, 10).Ranks); got != want {
		t.Fatalf("PageRank after the refusal digests %s, solo engine %s", got, want)
	}
}

// TestServeBodyTooLarge: a POST body longer than MaxBodyBytes is
// refused with 413 and code body_too_large, over real HTTP, and the
// store is left as it was.
func TestServeBodyTooLarge(t *testing.T) {
	dir, _ := writeStore(t, 8)
	s := New(Config{Options: shard.Options{Threads: 2}})
	if err := s.OpenStore("tiny", dir); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	// A valid batch behind leading whitespace: the decoder must read the
	// whole body to reach it, so the cap decides.
	batch := `{"insert":[{"src":0,"dst":9}]}`
	post := func(size int64) (*http.Response, errEnvelope) {
		body := io.MultiReader(io.LimitReader(spaces{}, size-int64(len(batch))), strings.NewReader(batch))
		resp, err := ts.Client().Post(ts.URL+"/v1/stores/tiny/updates", "application/json", body)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var env errEnvelope
		if resp.StatusCode != http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
				t.Fatal(err)
			}
		}
		return resp, env
	}
	if resp, env := post(MaxBodyBytes + 1); resp.StatusCode != http.StatusRequestEntityTooLarge || env.Error.Code != "body_too_large" {
		t.Fatalf("body one byte over the cap: %s / %+v, want 413 body_too_large", resp.Status, env)
	}
	if st := s.Stats().Stores[0]; st.Generation != 0 {
		t.Fatalf("refused body moved the store to generation %d", st.Generation)
	}
	if resp, env := post(MaxBodyBytes); resp.StatusCode != http.StatusOK {
		t.Fatalf("body at the cap: %s / %+v, want 200", resp.Status, env)
	}
	if st := s.Stats().Stores[0]; st.Generation != 1 {
		t.Fatalf("accepted body left the store at generation %d, want 1", st.Generation)
	}
}

// spaces is an endless JSON-whitespace reader.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestServeOpenAndRehostAllocOV is the O(V) regression test: two stores
// with the same vertex count, one with 8× the edges of the other, cost
// the same to open and to rehost after an update — within 10 % plus
// 1 MiB of allocation — because neither reads an edge nor builds a CSR.
func TestServeOpenAndRehostAllocOV(t *testing.T) {
	const n = 1 << 14
	allocs := func(fn func()) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	measure := func(edges int64) (open, rehost uint64) {
		dir := t.TempDir()
		if _, err := shard.Create(dir, gen.ErdosRenyi(n, edges, 5), shard.WriteOptions{Partitions: 16}); err != nil {
			t.Fatal(err)
		}
		s := New(Config{Options: shard.Options{Threads: 2}})
		open = allocs(func() {
			if err := s.OpenStore("s", dir); err != nil {
				t.Fatal(err)
			}
		})
		// ApplyUpdates' steps, with its rehost measured alone.
		st, err := shard.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		batch := []graph.Edge{{Src: 1, Dst: 2}, {Src: n - 1, Dst: 0}}
		if _, err := st.ApplyBatch(batch, batch[:1]); err != nil {
			t.Fatal(err)
		}
		hs := s.stores["s"]
		rehost = allocs(func() {
			if err := s.rehost(hs, st); err != nil {
				t.Fatal(err)
			}
		})
		return open, rehost
	}
	open1, rehost1 := measure(4 * n)
	open8, rehost8 := measure(32 * n)
	t.Logf("open: %d B at 1x, %d B at 8x; rehost: %d B at 1x, %d B at 8x", open1, open8, rehost1, rehost8)
	if open8 > open1+open1/10+1<<20 {
		t.Fatalf("opening the 8x store allocated %d B against %d B at 1x: open is not O(V)", open8, open1)
	}
	if rehost8 > rehost1+rehost1/10+1<<20 {
		t.Fatalf("rehosting the 8x store allocated %d B against %d B at 1x: rehost is not O(V)", rehost8, rehost1)
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

// TestRehostReleasesCachedShards is the residency-lifecycle regression
// test for mutations: when an update rehosts a store, the old host's
// shards leave the daemon's shared cache at once — a drained old host
// holds zero bytes — while a generation-pinned session keeps answering
// queries with the old content, and the new host serves the mutated
// content through the same budget.
func TestRehostReleasesCachedShards(t *testing.T) {
	dir, _ := writeStore(t, 8)
	s := New(Config{Options: shard.Options{Threads: 2}})
	if err := s.OpenStore("tiny", dir); err != nil {
		t.Fatal(err)
	}
	pinned, err := s.Session("tiny")
	if err != nil {
		t.Fatal(err)
	}
	before := digestF64(algorithms.PR(pinned, 10).Ranks)
	if cs := s.Cache().Stats(); cs.Resident == 0 || cs.Bytes == 0 {
		t.Fatalf("pre-mutation cache stats %+v, want the store's shards resident", cs)
	}

	if _, err := s.ApplyUpdates("tiny", []graph.Edge{{Src: 0, Dst: 9}}, nil); err != nil {
		t.Fatal(err)
	}
	if cs := s.Cache().Stats(); cs.Resident != 0 || cs.Bytes != 0 || cs.Pinned != 0 {
		t.Fatalf("the rehost left the old host's shards in the cache: %+v", cs)
	}
	// The pinned session still serves generation 0 bit-exactly.
	if got := digestF64(algorithms.PR(pinned, 10).Ranks); got != before {
		t.Fatalf("pinned session digest changed across the rehost: %s vs %s", got, before)
	}

	sess, err := s.Session("tiny")
	if err != nil {
		t.Fatal(err)
	}
	if after := digestF64(algorithms.PR(sess, 10).Ranks); after == before {
		t.Fatal("PageRank digest unchanged by the edge insertion")
	}
	if cs := s.Cache().Stats(); cs.PeakBytes <= 0 || cs.PeakBytes > cs.Budget || cs.Pinned != 0 {
		t.Fatalf("rehosted store's cache stats %+v, want residency within the shared budget and no pins", cs)
	}
}
