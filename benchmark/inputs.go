package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"time"

	"repro/internal/algorithms"
	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

// inputs is everything a run derives from (workload, scale, seed); the
// program under test only ever sees the store written from g, the query
// specs and the update batches.
type inputs struct {
	w    *workload
	spec graphSpec
	seed uint64

	g      *graph.Graph
	edges  int64 // |E| of the store as created
	src    graph.VID
	budget int64   // the daemon's -cache-bytes
	genS   float64 // gen.build_s

	// refs maps a class to the digest every query of that class must
	// return while the store holds g.
	refs map[string]string
}

// rng is splitmix64: the benchmark's own generator, so batches and
// source choices do not depend on a library's sequence.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func buildInputs(w *workload, scale string, seed uint64) *inputs {
	in := &inputs{w: w, spec: w.spec(scale), seed: seed}
	t0 := time.Now()
	switch in.spec.kind {
	case "road":
		in.g = gen.RoadGrid(in.spec.size, in.spec.size, seed)
	default:
		in.g = gen.RMAT(in.spec.size, 8, .57, .19, .19, seed)
	}
	in.genS = time.Since(t0).Seconds()
	in.edges = in.g.NumEdges()
	in.budget = max(in.edges*8*w.budgetNum/w.budgetDen, 1)
	in.src = chooseSource(in.g, in.spec, seed)
	return in
}

// chooseSource picks the BFS source from the seed so that the work of a
// query does not depend on it much: near a corner of the road grid (the
// sweep count is the eccentricity, which is within a few percent of
// 2*side there and half that in the middle), and the best-connected of
// 64 candidates on RMAT (so the search reaches the giant component).
func chooseSource(g *graph.Graph, spec graphSpec, seed uint64) graph.VID {
	r := &rng{s: seed ^ 0xb5}
	if spec.kind == "road" {
		box := max(spec.size/32, 1)
		for {
			v := graph.VID(r.intn(box)*spec.size + r.intn(box))
			if g.OutDegree(v) > 0 {
				return v
			}
		}
	}
	best := graph.VID(r.intn(g.NumVertices()))
	for i := 1; i < 64; i++ {
		v := graph.VID(r.intn(g.NumVertices()))
		if g.OutDegree(v) > g.OutDegree(best) {
			best = v
		}
	}
	return best
}

// runClass runs one query class on sys and returns the raw result array
// ([]float64 or []int32) and its digest.
func runClass(sys api.System, class string, src graph.VID) (any, string) {
	switch class {
	case classPR:
		r := algorithms.PR(sys, prIters).Ranks
		return r, digestF64(r)
	case classBFS:
		p := algorithms.BFS(sys, src).Parents
		return p, digestI32(p)
	default:
		l := algorithms.CC(sys).Labels
		return l, digestI32(l)
	}
}

// The digests are the /v1 API's: FNV-1a over the little-endian value
// bits, so an in-process reference compares equal to the daemon's reply
// iff the results are bit-identical.
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

// checkAgainstCore compares an out-of-core result with the in-memory
// engine's on the same graph: ranks within 1e-9, component labels
// exactly, and BFS by depth (a parent array is one of several valid
// ones; the depths it implies are unique).
func checkAgainstCore(g *graph.Graph, class string, src graph.VID, got any) error {
	want, _ := runClass(core.NewEngine(g, core.Options{}), class, src)
	switch class {
	case classPR:
		a, b := got.([]float64), want.([]float64)
		for i := range b {
			if d := math.Abs(a[i] - b[i]); !(d <= 1e-9) {
				return fmt.Errorf("pagerank: vertex %d differs from core by %g", i, d)
			}
		}
	case classBFS:
		a, b := bfsDepths(got.([]int32), src), bfsDepths(want.([]int32), src)
		for i := range b {
			if a[i] != b[i] {
				return fmt.Errorf("bfs: vertex %d at depth %d, core says %d", i, a[i], b[i])
			}
		}
	default:
		a, b := got.([]int32), want.([]int32)
		for i := range b {
			if a[i] != b[i] {
				return fmt.Errorf("cc: vertex %d labelled %d, core says %d", i, a[i], b[i])
			}
		}
	}
	return nil
}

// bfsDepths turns a parent array into hop counts from src (-1 when
// unreached), walking each chain once.
func bfsDepths(parents []int32, src graph.VID) []int32 {
	depth := make([]int32, len(parents))
	for i := range depth {
		depth[i] = -1
	}
	depth[src] = 0
	var chain []int32
	for v := range parents {
		chain = chain[:0]
		u := int32(v)
		for parents[u] >= 0 && depth[u] < 0 {
			chain = append(chain, u)
			u = parents[u]
		}
		d := depth[u]
		for i := len(chain) - 1; i >= 0 && d >= 0; i-- {
			d++
			depth[chain[i]] = d
		}
	}
	return depth
}

// mirror is the benchmark's own model of the store's edge multiset
// under the update batches it generates: g's edges minus the deleted
// pairs plus the live inserted copies. It says how many copies a batch
// must report deleted and what the store must hold at the end.
type mirror struct {
	g     *graph.Graph
	seed  uint64
	batch int

	dead  map[uint64]bool  // pairs whose copies in g are gone
	extra map[uint64]int32 // live inserted copies per pair
}

func newMirror(g *graph.Graph, seed uint64) *mirror {
	return &mirror{g: g, seed: seed, dead: map[uint64]bool{}, extra: map[uint64]int32{}}
}

func edgeKey(e graph.Edge) uint64 { return uint64(e.Src)<<32 | uint64(e.Dst) }

// next generates batch number m.batch from the seed and applies it to
// the model: batchDeletes distinct edges that exist in g and have not
// been deleted yet, then batchInserts random pairs that are not deleted
// by the same batch (so the batch means the same whichever side is
// applied first). deleted is the number of live copies the deletes
// remove.
func (m *mirror) next() (ins, del []graph.Edge, deleted int64) {
	r := &rng{s: m.seed*0x9e3779b9 + uint64(m.batch)}
	m.batch++
	n := m.g.NumVertices()
	// A small store runs out of fresh edges to delete after enough
	// batches; the attempts cap then shortens the batch.
	for tries := 0; len(del) < batchDeletes && tries < 64*batchDeletes; tries++ {
		u := graph.VID(r.intn(n))
		nb := m.g.OutNeighbors(u)
		if len(nb) == 0 {
			continue
		}
		e := graph.Edge{Src: u, Dst: nb[r.intn(len(nb))]}
		k := edgeKey(e)
		if m.dead[k] {
			continue
		}
		for _, d := range nb {
			if d == e.Dst {
				deleted++
			}
		}
		deleted += int64(m.extra[k])
		delete(m.extra, k)
		m.dead[k] = true
		del = append(del, e)
	}
	inBatch := make(map[uint64]bool, len(del))
	for _, e := range del {
		inBatch[edgeKey(e)] = true
	}
	for len(ins) < batchInserts {
		e := graph.Edge{Src: graph.VID(r.intn(n)), Dst: graph.VID(r.intn(n))}
		if k := edgeKey(e); !inBatch[k] {
			m.extra[k]++
			ins = append(ins, e)
		}
	}
	return ins, del, deleted
}

// graph materialises the model as a graph, for the store the final
// digests are checked against.
func (m *mirror) graph() *graph.Graph {
	var es []graph.Edge
	for _, e := range m.g.Edges() {
		if !m.dead[edgeKey(e)] {
			es = append(es, e)
		}
	}
	keys := make([]uint64, 0, len(m.extra))
	for k := range m.extra {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		for c := m.extra[k]; c > 0; c-- {
			es = append(es, graph.Edge{Src: graph.VID(k >> 32), Dst: graph.VID(uint32(k))})
		}
	}
	return graph.FromEdges(m.g.NumVertices(), es)
}
