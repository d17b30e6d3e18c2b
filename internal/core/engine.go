package core

import (
	"time"

	"repro/internal/api"
	"repro/internal/frontier"
	"repro/internal/graph"
	"repro/internal/hilbert"
	"repro/internal/partition"
	"repro/internal/sched"
	"sync"
)

// Engine is the GraphGrind-v2 runtime for one graph. Construction builds
// the three layout copies (§III.B: "where the state-of-the-art stores 2
// copies of the graph, we store 3"); EdgeMap then dispatches per
// iteration via Algorithm 2 unless a layout is forced.
type Engine struct {
	g    *graph.Graph
	opts Options
	pool *sched.Pool

	pt   *partition.Partitioning // by-destination vertex ranges
	pcoo *partition.PCOO         // dense layout
	pcsr *partition.PCSR         // only when Options.BuildCSRPartitions

	// Lazily-built chunk schedules for the atomics-forced traversals.
	chunksOnce    sync.Once
	chunks        []edgeChunk
	csrChunksOnce sync.Once
	csrChunksV    []edgeChunk

	telemetry Telemetry
}

var _ api.System = (*Engine)(nil)

// NewEngine builds the engine and its layouts for g.
func NewEngine(g *graph.Graph, opts Options) *Engine {
	opts = opts.withDefaults()
	e := &Engine{
		g:    g,
		opts: opts,
		pool: sched.NewPool(opts.Threads),
		pt:   partition.ByDestination(g, opts.Partitions, opts.Criterion),
	}
	e.pcoo = partition.NewPCOO(g, e.pt)
	if opts.EdgeOrder != hilbert.BySource {
		for _, part := range e.pcoo.Parts {
			hilbert.Sort(part, opts.EdgeOrder)
		}
	}
	if opts.BuildCSRPartitions {
		e.pcsr = partition.NewPCSR(g, e.pt)
	}
	return e
}

// Name implements api.System.
func (e *Engine) Name() string { return "GG-v2" }

// Graph implements api.System.
func (e *Engine) Graph() *graph.Graph { return e.g }

// Threads implements api.System.
func (e *Engine) Threads() int { return e.pool.Threads() }

// Options returns the resolved engine options.
func (e *Engine) Options() Options { return e.opts }

// Partitioning exposes the by-destination partitioning (experiments
// inspect balance and replication).
func (e *Engine) Partitioning() *partition.Partitioning { return e.pt }

// Telemetry returns a snapshot of per-class iteration counts.
func (e *Engine) Telemetry() Telemetry { return e.telemetry.snapshot() }

// EdgeMap applies op over the active edges of f (Algorithm 2). The
// direction hint is ignored: the engine decides from frontier density,
// which is the paper's headline usability claim.
func (e *Engine) EdgeMap(f *frontier.Frontier, op api.EdgeOp, _ api.Direction) *frontier.Frontier {
	if f.Count() == 0 {
		return frontier.New(e.g.NumVertices())
	}
	var label string
	var traverse func() *frontier.Frontier
	switch e.opts.Layout {
	case LayoutCSR:
		e.telemetry.add(frontier.Dense)
		label, traverse = "forced-CSR", func() *frontier.Frontier { return e.denseCSR(f, op) }
	case LayoutCSC:
		e.telemetry.add(frontier.Medium)
		label, traverse = "forced-CSC", func() *frontier.Frontier { return e.backwardCSC(f, op) }
	case LayoutCOO:
		e.telemetry.add(frontier.Dense)
		label, traverse = "forced-COO", func() *frontier.Frontier { return e.denseCOO(f, op) }
	default:
		cls := f.Classify(e.g, e.opts.SparseDiv, e.opts.DenseDiv)
		e.telemetry.add(cls)
		label = cls.String()
		switch cls {
		case frontier.Dense:
			traverse = func() *frontier.Frontier { return e.denseCOO(f, op) }
		case frontier.Medium:
			traverse = func() *frontier.Frontier { return e.backwardCSC(f, op) }
		default:
			traverse = func() *frontier.Frontier { return e.sparseCSR(f, op) }
		}
	}
	if rec := e.opts.Trace; rec != nil {
		start := time.Now()
		out := traverse()
		rec.Record(label, f.Count(), f.OutDegree(e.g), time.Since(start))
		return out
	}
	return traverse()
}

// VertexMap implements api.System.
func (e *Engine) VertexMap(f *frontier.Frontier, fn func(graph.VID)) {
	api.VertexMap(e.pool, f, fn)
}

// VertexFilter implements api.System.
func (e *Engine) VertexFilter(f *frontier.Frontier, pred func(graph.VID) bool) *frontier.Frontier {
	return api.VertexFilter(e.pool, e.g, f, pred)
}

// newAccums returns one next-frontier accumulator per pool worker.
func (e *Engine) newAccums() []api.Accum { return make([]api.Accum, e.pool.Threads()) }
