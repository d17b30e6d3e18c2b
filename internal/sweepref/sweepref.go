// Package sweepref is test support: the sequential reference the
// out-of-core differential ladders compare every shard.Engine
// configuration against. It is written only against a store's public
// read API, so nothing the engine does between disk and operator — the
// cache, the staging pipeline, the apply-task split, NUMA placement,
// co-scheduling, bins — can leak into the baseline.
package sweepref

import (
	"fmt"

	"repro/internal/api"
	"repro/internal/frontier"
	"repro/internal/graph"
	"repro/internal/sched"
)

// Store is the read surface of *shard.Store the reference uses.
type Store interface {
	NumShards() int
	LoadShard(i int) (*graph.COO, error)
}

// System implements api.System with one sweep shape: every EdgeMap
// loads every shard in index order on the calling goroutine and applies
// its edges in shard-file order. Vertex operators are the shared
// api.VertexMap/VertexFilter every engine delegates to.
type System struct {
	st   Store
	g    *graph.Graph
	pool *sched.Pool
}

var _ api.System = (*System)(nil)

// New returns the reference system over st, which must hold g's edges.
func New(st Store, g *graph.Graph) *System {
	return &System{st: st, g: g, pool: sched.NewPool(0)}
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
	for i := 0; i < s.st.NumShards(); i++ {
		coo, err := s.st.LoadShard(i)
		if err != nil {
			panic(fmt.Sprintf("sweepref: shard %d: %v", i, err))
		}
		for e, u := range coo.Src {
			v := coo.Dst[e]
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
	nf := frontier.FromBitmap(n, next)
	nf.SetStats(count, outDeg)
	return nf
}
