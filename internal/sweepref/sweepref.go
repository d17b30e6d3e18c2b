// Package sweepref is test support: the sequential reference the
// out-of-core differential ladders compare every shard.Engine
// configuration against. It is written only against a store's public
// read API, so nothing the engine does between disk and operator — the
// cache, the staging pipeline, the apply-task split, the inline sparse
// path — can leak into the baseline.
package sweepref

import (
	"fmt"

	"repro/internal/api"
	"repro/internal/frontier"
	"repro/internal/graph"
	"repro/internal/sched"
)

// Runs is the read surface of *shard.Runs the reference uses: one
// shard's destination runs.
type Runs interface {
	NumRuns() int
	Run(k int) (dst graph.VID, src []graph.VID)
}

// Store is the read surface of *shard.Store the reference uses.
type Store[R Runs] interface {
	NumShards() int
	LoadShard(i int) (R, error)
}

// System implements api.System with one sweep shape: every EdgeMap
// loads every shard in index order on the calling goroutine, expands
// its runs itself and applies its edges one at a time in shard-file
// order. Vertex operators are the shared api.VertexMap/VertexFilter
// every engine delegates to.
type System struct {
	shards int
	load   func(i int) (Runs, error)
	g      *graph.Graph
	pool   *sched.Pool
}

var _ api.System = (*System)(nil)

// New returns the reference system over st, which must hold g's edges.
func New[R Runs](st Store[R], g *graph.Graph) *System {
	load := func(i int) (Runs, error) { return st.LoadShard(i) }
	return &System{shards: st.NumShards(), load: load, g: g, pool: sched.NewPool(0)}
}

func (s *System) Name() string        { return "OOC-ref" }
func (s *System) Graph() *graph.Graph { return s.g }
func (s *System) Threads() int        { return s.pool.Threads() }

func (s *System) VertexMap(f *frontier.Frontier, fn func(graph.VID)) {
	api.VertexMap(s.pool, f, fn)
}

func (s *System) VertexFilter(f *frontier.Frontier, pred func(graph.VID) bool) *frontier.Frontier {
	return api.VertexFilter(s.pool, s.g, f, pred)
}

// EdgeMap panics on a shard that fails to load, like the engine it
// stands in for.
func (s *System) EdgeMap(f *frontier.Frontier, op api.EdgeOp, _ api.Direction) *frontier.Frontier {
	n := s.g.NumVertices()
	if f.Count() == 0 {
		return frontier.New(n)
	}
	cur, cond, next := f.Bitmap(), op.CondOf(), frontier.NewBitmap(n)
	var count, outDeg int64
	for i := 0; i < s.shards; i++ {
		r, err := s.load(i)
		if err != nil {
			panic(fmt.Sprintf("sweepref: shard %d: %v", i, err))
		}
		for k := 0; k < r.NumRuns(); k++ {
			v, srcs := r.Run(k)
			for _, u := range srcs {
				if !cur.Get(u) || !cond(v) {
					continue
				}
				if op.Update(u, v) && !next.Get(v) {
					next.Set(v)
					count++
					outDeg += s.g.OutDegree(v)
				}
			}
		}
	}
	nf := frontier.FromBitmap(n, next)
	nf.SetStats(count, outDeg)
	return nf
}
