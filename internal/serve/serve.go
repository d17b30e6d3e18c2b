// Package serve is the multi-tenant graph-serving daemon core: a
// registry of open shard stores hosted behind one byte-budgeted,
// refcounted shard LRU, serving concurrent queries over HTTP/JSON.
// Opening a store builds a shard.Host (the construction half of the
// engine); each submitted query stamps out a session (the execution
// half) with its own vertex-state arrays while sharing the cache and
// the I/O budget with every other query on the same store. A shard resident for one in-flight query is free
// for all others; eviction touches only shards no query is applying.
//
// A hosted store costs O(V), not O(E): opening one reads the manifest
// and the store's per-vertex Meta (degrees and feeds-masks) and builds
// a host over the Meta's degree-only graph — no edge is read and no CSR
// is built. The served algorithms need only degrees; one that reads
// adjacency through the session's graph is refused with
// graph.ErrNoAdjacency, and the query fails.
//
// Stores are mutable: POST /v1/stores/{name}/updates applies a batch
// of edge insertions and deletions (shard.Store.ApplyBatch) and
// /compact folds pending deltas. A mutation runs on a Store value
// opened afresh from the directory and rehosts the store on that same
// value at its new generation, so an update costs ApplyBatch plus
// O(V); queries already in flight keep their sessions over the
// previous generation — the store layer never deletes a superseded
// generation's files — and queries submitted after the swap see the
// new content.
//
// Results carry an FNV-1a digest of the raw value bits, so clients can
// assert bit-identity between concurrently served runs and solo runs
// without shipping whole vertex arrays; passing "values": true returns
// the arrays too.
package serve

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/algorithms"
	"repro/internal/api"
	"repro/internal/graph"
	"repro/internal/shard"
)

// Sentinel errors the HTTP layer maps to statuses; server methods wrap
// them with context, so test with errors.Is.
var (
	ErrStoreNotFound = errors.New("store not open")
	ErrStoreExists   = errors.New("store already open")
	ErrQueryNotFound = errors.New("no such query")
)

// Config parameterizes a Server.
type Config struct {
	// CacheBytes is the daemon-wide shared-cache budget; <= 0 selects
	// shard.DefaultCacheBytes. All stores share this one budget.
	CacheBytes int64
	// Options is the engine option set every hosted store resolves at
	// open time (Threads). The zero value is the engine's defaults.
	Options shard.Options
}

// Server hosts stores and runs queries. All methods are safe for
// concurrent use; it serves its HTTP API via Handler.
type Server struct {
	cache *shard.SharedCache
	opts  shard.Options

	mu      sync.Mutex
	stores  map[string]*hostedStore
	queries map[string]*query
	seq     int
}

type hostedStore struct {
	name string
	dir  string
	host *shard.Host // current generation's engine; swapped under Server.mu

	// upd serializes mutations (updates, compaction) of this store.
	// Queries never take it — they capture the host pointer under
	// Server.mu and run against whatever generation they caught.
	upd sync.Mutex
}

// query is one submitted unit of work and its lifecycle record.
type query struct {
	id    string
	store string
	algo  string

	mu       sync.Mutex
	done     chan struct{}
	status   string // "running", "done", "failed"
	err      string
	digest   string
	loads    int64
	wall     time.Duration
	values   any // populated only when the submission asked for values
	submitAt time.Time
}

// New builds an empty server.
func New(cfg Config) *Server {
	return &Server{
		cache:   shard.NewSharedCache(cfg.CacheBytes),
		opts:    cfg.Options,
		stores:  make(map[string]*hostedStore),
		queries: make(map[string]*query),
	}
}

// openHost opens dir at its current generation and builds a host over
// it from the directory alone, in O(V): the host's graph is the
// degree-only graph of the store's Meta.
func (s *Server) openHost(dir string) (*shard.Host, error) {
	st, err := shard.Open(dir)
	if err != nil {
		return nil, err
	}
	return shard.NewHost(st, nil, s.cache, s.opts)
}

// OpenStore opens the sharded store in dir under the given name and
// hosts it on the shared cache.
func (s *Server) OpenStore(name, dir string) error {
	_, err := s.openStore(name, dir)
	return err
}

// openStore is OpenStore returning the store's info, taken in the
// critical section that registers it: a DELETE racing the open can
// then never leave the caller looking up a store that is gone.
func (s *Server) openStore(name, dir string) (storeInfo, error) {
	if name == "" {
		return storeInfo{}, fmt.Errorf("serve: store name must be non-empty")
	}
	s.mu.Lock()
	if _, ok := s.stores[name]; ok {
		s.mu.Unlock()
		return storeInfo{}, fmt.Errorf("serve: store %q: %w", name, ErrStoreExists)
	}
	s.mu.Unlock()

	host, err := s.openHost(dir)
	if err != nil {
		return storeInfo{}, fmt.Errorf("serve: open store %q: %w", name, err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.stores[name]; ok {
		return storeInfo{}, fmt.Errorf("serve: store %q: %w", name, ErrStoreExists)
	}
	hs := &hostedStore{name: name, dir: dir, host: host}
	s.stores[name] = hs
	return s.storeInfoLocked(hs), nil
}

// CloseStore unregisters the store and drops its unpinned shards from
// the shared LRU; shards pinned by in-flight queries stay until those
// queries release them, then age out.
func (s *Server) CloseStore(name string) error {
	s.mu.Lock()
	hs, ok := s.stores[name]
	if ok {
		delete(s.stores, name)
	}
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("serve: store %q: %w", name, ErrStoreNotFound)
	}
	hs.host.Evict()
	return nil
}

// lookupHost captures a store's current host under the registry lock —
// the only safe way to read hostedStore.host, which mutations swap.
func (s *Server) lookupHost(store string) (*shard.Host, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	hs, ok := s.stores[store]
	if !ok {
		return nil, fmt.Errorf("serve: store %q: %w", store, ErrStoreNotFound)
	}
	return hs.host, nil
}

// Session returns a fresh api.System over an open store — the
// conformance adapter: one served session is a complete engine from
// the API's point of view, and the differential test ladder runs
// through exactly this. The session is pinned to the store generation
// current at the call; it stays valid across later mutations.
func (s *Server) Session(store string) (api.System, error) {
	host, err := s.lookupHost(store)
	if err != nil {
		return nil, err
	}
	return host.NewSession(), nil
}

// ApplyUpdates applies one batch of edge insertions and deletions to
// an open store and rehosts it at the new generation. The mutation
// runs on a fresh Store value opened from the directory, so in-flight
// queries (pinned to the previous generation's host) race nothing;
// once the swap completes, new sessions serve the new content.
// Batches for the same store serialize; invalid edges come back as a
// *shard.BatchError (HTTP 400 through the API).
func (s *Server) ApplyUpdates(name string, ins, del []graph.Edge) (*shard.BatchResult, error) {
	s.mu.Lock()
	hs, ok := s.stores[name]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("serve: store %q: %w", name, ErrStoreNotFound)
	}
	hs.upd.Lock()
	defer hs.upd.Unlock()
	st, err := shard.Open(hs.dir)
	if err != nil {
		return nil, fmt.Errorf("serve: update store %q: %w", name, err)
	}
	res, err := st.ApplyBatch(ins, del)
	if err != nil {
		return nil, fmt.Errorf("serve: update store %q: %w", name, err)
	}
	if err := s.rehost(hs, st); err != nil {
		return nil, fmt.Errorf("serve: rehost store %q after update: %w", name, err)
	}
	return res, nil
}

// CompactStore folds an open store's pending deltas into fresh base
// files and rehosts it. A store with nothing pending is left exactly
// as it is. Returns the generation the store serves afterwards.
func (s *Server) CompactStore(name string) (int64, error) {
	s.mu.Lock()
	hs, ok := s.stores[name]
	s.mu.Unlock()
	if !ok {
		return 0, fmt.Errorf("serve: store %q: %w", name, ErrStoreNotFound)
	}
	hs.upd.Lock()
	defer hs.upd.Unlock()
	st, err := shard.Open(hs.dir)
	if err != nil {
		return 0, fmt.Errorf("serve: compact store %q: %w", name, err)
	}
	before := st.Generation()
	gen, err := st.Compact()
	if err != nil {
		return 0, fmt.Errorf("serve: compact store %q: %w", name, err)
	}
	if gen != before {
		if err := s.rehost(hs, st); err != nil {
			return 0, fmt.Errorf("serve: rehost store %q after compaction: %w", name, err)
		}
	}
	return gen, nil
}

// rehost swaps hs's engine for one over st — the Store value the
// caller's ApplyBatch or Compact just moved to the new generation, whose
// Meta is already in memory, so the swap reads nothing and costs O(V) —
// then releases the old generation's unpinned residents. Callers hold
// hs.upd and never mutate st again; the pointer swap itself happens
// under the registry lock, where every reader captures it.
func (s *Server) rehost(hs *hostedStore, st *shard.Store) error {
	host, err := shard.NewHost(st, nil, s.cache, s.opts)
	if err != nil {
		return err
	}
	s.mu.Lock()
	_, stillOpen := s.stores[hs.name]
	old := hs.host
	hs.host = host
	s.mu.Unlock()
	old.Evict()
	if !stillOpen {
		// Lost a race with CloseStore: nothing references hs anymore,
		// so drop the new host's residency too.
		host.Evict()
	}
	return nil
}

// QuerySpec is one query submission.
type QuerySpec struct {
	Store string `json:"store"`
	Algo  string `json:"algo"`            // pagerank | bfs | cc | spmv
	Iters int    `json:"iters,omitempty"` // pagerank; default 10
	Src   uint32 `json:"src,omitempty"`   // bfs
	// Values asks for the full result arrays in the status response
	// (digest-only otherwise).
	Values bool `json:"values,omitempty"`
}

// Submit starts spec asynchronously and returns its query ID. The
// query runs on its own session; a panicking operator fails that query
// alone. A BFS source outside the store is refused before any query is
// registered.
func (s *Server) Submit(spec QuerySpec) (string, error) {
	run, err := algoFor(spec)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	hs, ok := s.stores[spec.Store]
	if !ok {
		s.mu.Unlock()
		return "", fmt.Errorf("serve: store %q: %w", spec.Store, ErrStoreNotFound)
	}
	// Capture the host while the lock protects it: a concurrent
	// mutation may swap hs.host the moment we let go.
	host := hs.host
	if n := host.Store().NumVertices(); spec.Algo == "bfs" && int(spec.Src) >= n {
		s.mu.Unlock()
		return "", fmt.Errorf("serve: bfs source %d outside store %q's %d vertices", spec.Src, spec.Store, n)
	}
	s.seq++
	q := &query{
		id:       fmt.Sprintf("q%d", s.seq),
		store:    spec.Store,
		algo:     spec.Algo,
		status:   "running",
		done:     make(chan struct{}),
		submitAt: time.Now(),
	}
	s.queries[q.id] = q
	s.mu.Unlock()

	sess := host.NewSession()
	go func() {
		defer close(q.done)
		defer func() {
			if r := recover(); r != nil {
				q.mu.Lock()
				q.status = "failed"
				q.err = fmt.Sprintf("query panicked: %v", r)
				q.mu.Unlock()
			}
		}()
		start := time.Now()
		values, digest := run(sess)
		wall := time.Since(start)
		q.mu.Lock()
		q.status = "done"
		q.digest = digest
		q.loads = sess.Stats().ShardLoads
		q.wall = wall
		if spec.Values {
			q.values = values
		}
		q.mu.Unlock()
	}()
	return q.id, nil
}

// Wait blocks until query id finishes (however it finishes).
func (s *Server) Wait(id string) error {
	s.mu.Lock()
	q, ok := s.queries[id]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("serve: query %q: %w", id, ErrQueryNotFound)
	}
	<-q.done
	return nil
}

// algoFor resolves a spec to its runner: the algorithm over one
// session, returning the raw values and their bit digest.
func algoFor(spec QuerySpec) (func(api.System) (any, string), error) {
	switch spec.Algo {
	case "pagerank":
		iters := spec.Iters
		if iters <= 0 {
			iters = 10
		}
		return func(sys api.System) (any, string) {
			r := algorithms.PR(sys, iters)
			return r.Ranks, digestF64(r.Ranks)
		}, nil
	case "bfs":
		return func(sys api.System) (any, string) {
			r := algorithms.BFS(sys, graph.VID(spec.Src))
			return r.Parents, digestI32(r.Parents)
		}, nil
	case "cc":
		return func(sys api.System) (any, string) {
			r := algorithms.CC(sys)
			return r.Labels, digestI32(r.Labels)
		}, nil
	case "spmv":
		return func(sys api.System) (any, string) {
			r := algorithms.SPMV(sys)
			return r.Y, digestF64(r.Y)
		}, nil
	default:
		return nil, fmt.Errorf("serve: unknown algorithm %q (want pagerank, bfs, cc or spmv)", spec.Algo)
	}
}

// digestF64 hashes the exact bit patterns, so two runs digest equal iff
// their float64 results are bit-identical.
func digestF64(xs []float64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func digestI32(xs []int32) string {
	h := fnv.New64a()
	var b [4]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint32(b[:], uint32(x))
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// storeInfo is the wire form of one hosted store.
type storeInfo struct {
	Name          string `json:"name"`
	Dir           string `json:"dir"`
	Vertices      int    `json:"vertices"`
	Edges         int64  `json:"edges"`
	Shards        int    `json:"shards"`
	Generation    int64  `json:"generation"`
	PendingDeltas int    `json:"pending_deltas"`
}

func (s *Server) storeInfoLocked(hs *hostedStore) storeInfo {
	st := hs.host.Store()
	return storeInfo{
		Name: hs.name, Dir: hs.dir,
		Vertices: st.NumVertices(), Edges: st.NumEdges(), Shards: st.NumShards(),
		Generation: st.Generation(), PendingDeltas: st.PendingDeltas(),
	}
}

// queryInfo is the wire form of one query's status.
type queryInfo struct {
	ID     string  `json:"id"`
	Store  string  `json:"store"`
	Algo   string  `json:"algo"`
	Status string  `json:"status"`
	Error  string  `json:"error,omitempty"`
	Digest string  `json:"digest,omitempty"`
	Loads  int64   `json:"loads"`
	WallMS float64 `json:"wall_ms"`
	Values any     `json:"values,omitempty"`
}

func (q *query) info() queryInfo {
	q.mu.Lock()
	defer q.mu.Unlock()
	return queryInfo{
		ID: q.id, Store: q.store, Algo: q.algo, Status: q.status,
		Error: q.err, Digest: q.digest, Loads: q.loads,
		WallMS: float64(q.wall) / float64(time.Millisecond),
		Values: q.values,
	}
}

// statsInfo is the wire form of GET /v1/stats.
type statsInfo struct {
	Cache   shard.SharedCacheStats `json:"cache"`
	Stores  []storeInfo            `json:"stores"`
	Queries int                    `json:"queries"`
}

// Stats snapshots the daemon: the shared-cache counters (budget,
// resident and pinned bytes, hits, loads, shared reads, evictions,
// rejections) plus the hosted stores and total queries submitted.
func (s *Server) Stats() statsInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := statsInfo{Cache: s.cache.Stats(), Queries: len(s.queries)}
	for _, hs := range s.stores {
		out.Stores = append(out.Stores, s.storeInfoLocked(hs))
	}
	sort.Slice(out.Stores, func(i, j int) bool { return out.Stores[i].Name < out.Stores[j].Name })
	return out
}

// Cache exposes the daemon-wide shared cache (tests read its
// counters).
func (s *Server) Cache() *shard.SharedCache { return s.cache }

// wireEdge is the JSON form of one edge in an updates request.
type wireEdge struct {
	Src uint32 `json:"src"`
	Dst uint32 `json:"dst"`
}

func toEdges(ws []wireEdge) []graph.Edge {
	if ws == nil {
		return nil
	}
	out := make([]graph.Edge, len(ws))
	for i, w := range ws {
		out[i] = graph.Edge{Src: graph.VID(w.Src), Dst: graph.VID(w.Dst)}
	}
	return out
}

// MaxBodyBytes caps every POST body the API reads: 16 MiB holds an
// update batch of about 450 000 edges in the wire form. A longer body
// is refused with 413 and code body_too_large.
const MaxBodyBytes = 16 << 20

// errStatus maps an error to its HTTP status and machine-readable
// code. Typed validation failures from the shard layer — bad options,
// bad batch edges — are client errors, as are malformed requests;
// the sentinels map to 404/409 and an oversized body to 413.
func errStatus(err error) (int, string) {
	var oe *shard.OptionsError
	var be *shard.BatchError
	var mbe *http.MaxBytesError
	switch {
	case errors.As(err, &mbe):
		return http.StatusRequestEntityTooLarge, "body_too_large"
	case errors.Is(err, ErrStoreNotFound):
		return http.StatusNotFound, "store_not_found"
	case errors.Is(err, ErrQueryNotFound):
		return http.StatusNotFound, "query_not_found"
	case errors.Is(err, ErrStoreExists):
		return http.StatusConflict, "store_exists"
	case errors.As(err, &oe), errors.As(err, &be):
		return http.StatusBadRequest, "invalid_argument"
	default:
		return http.StatusBadRequest, "invalid_argument"
	}
}

// Handler returns the HTTP/JSON API. Every route lives under /v1/.
//
//	POST   /v1/stores                 {"name": "...", "dir": "..."}  open a store
//	GET    /v1/stores                                                list open stores
//	DELETE /v1/stores/{name}                                         close a store
//	POST   /v1/stores/{name}/updates  {"insert": [{"src","dst"}...],
//	                                   "delete": [...]}              apply a batch, bump the generation
//	POST   /v1/stores/{name}/compact                                 fold pending deltas
//	POST   /v1/queries                QuerySpec                      submit; returns {"id": "..."}
//	GET    /v1/queries/{id}[?wait=1]                                 status / result
//	GET    /v1/stats                                                 cache + registry snapshot
//
// Errors are a uniform envelope: {"error": {"code": "...", "message":
// "..."}} with code one of store_not_found, query_not_found,
// store_exists, invalid_argument, body_too_large, or timeout (408: the
// request ended before a ?wait=1 query finished). Every POST body is
// read through http.MaxBytesReader, capped at MaxBodyBytes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /v1/stores", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Name string `json:"name"`
			Dir  string `json:"dir"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			httpErr(w, err)
			return
		}
		info, err := s.openStore(req.Name, req.Dir)
		if err != nil {
			httpErr(w, err)
			return
		}
		writeJSON(w, http.StatusCreated, info)
	})

	mux.HandleFunc("GET /v1/stores", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats().Stores)
	})

	mux.HandleFunc("DELETE /v1/stores/{name}", func(w http.ResponseWriter, r *http.Request) {
		if err := s.CloseStore(r.PathValue("name")); err != nil {
			httpErr(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})

	mux.HandleFunc("POST /v1/stores/{name}/updates", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Insert []wireEdge `json:"insert"`
			Delete []wireEdge `json:"delete"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			httpErr(w, err)
			return
		}
		res, err := s.ApplyUpdates(r.PathValue("name"), toEdges(req.Insert), toEdges(req.Delete))
		if err != nil {
			httpErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"generation": res.Generation,
			"inserted":   res.Inserted,
			"deleted":    res.Deleted,
		})
	})

	mux.HandleFunc("POST /v1/stores/{name}/compact", func(w http.ResponseWriter, r *http.Request) {
		gen, err := s.CompactStore(r.PathValue("name"))
		if err != nil {
			httpErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"generation": gen})
	})

	mux.HandleFunc("POST /v1/queries", func(w http.ResponseWriter, r *http.Request) {
		var spec QuerySpec
		if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
			httpErr(w, err)
			return
		}
		id, err := s.Submit(spec)
		if err != nil {
			httpErr(w, err)
			return
		}
		writeJSON(w, http.StatusAccepted, map[string]string{"id": id})
	})

	mux.HandleFunc("GET /v1/queries/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		s.mu.Lock()
		q, ok := s.queries[id]
		s.mu.Unlock()
		if !ok {
			httpErr(w, fmt.Errorf("serve: query %q: %w", id, ErrQueryNotFound))
			return
		}
		if r.URL.Query().Get("wait") != "" {
			select {
			case <-q.done:
			case <-r.Context().Done():
				writeJSON(w, http.StatusRequestTimeout, errEnvelope{errBody{"timeout", r.Context().Err().Error()}})
				return
			}
		}
		writeJSON(w, http.StatusOK, q.info())
	})

	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})

	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			r.Body = http.MaxBytesReader(w, r.Body, MaxBodyBytes)
		}
		mux.ServeHTTP(w, r)
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// errEnvelope is the uniform error shape every route answers with.
type errEnvelope struct {
	Error errBody `json:"error"`
}

type errBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func httpErr(w http.ResponseWriter, err error) {
	status, code := errStatus(err)
	writeJSON(w, status, errEnvelope{errBody{code, err.Error()}})
}
