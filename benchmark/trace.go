package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/frontier"
	"repro/internal/graph"
	"repro/internal/shard"
)

// span is one traced interval. A query span has Parent 0; an operator
// span's Parent is its query's ID, and Query names the query on both.
// Times are nanoseconds since the tracer was made. The counters are the
// session's Stats delta across the call (across the whole query on a
// query span).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Query  int    `json:"query"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`

	In  int64 `json:"frontier_in,omitempty"`
	Out int64 `json:"frontier_out,omitempty"`

	Dense   int64 `json:"dense_sweeps,omitempty"`
	Sparse  int64 `json:"sparse_sweeps,omitempty"`
	Loads   int64 `json:"shard_loads,omitempty"`
	Hits    int64 `json:"cache_hits,omitempty"`
	Skipped int64 `json:"shards_skipped,omitempty"`
	Bytes   int64 `json:"bytes_read,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// counters copies a Stats delta into the span.
func (s *span) counters(before, after shard.Stats) {
	s.Dense = after.DenseSweeps - before.DenseSweeps
	s.Sparse = after.SparseSweeps - before.SparseSweeps
	s.Loads = after.ShardLoads - before.ShardLoads
	s.Hits = after.CacheHits - before.CacheHits
	s.Skipped = after.ShardsSkipped - before.ShardsSkipped
	s.Bytes = after.BytesRead - before.BytesRead
}

// tracer keeps every span in memory until the pass ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// add stores s under the next ID and returns that ID.
func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	if s.Parent == 0 {
		s.Query = s.ID
	}
	t.spans = append(t.spans, s)
	return s.ID
}

// tracedSystem decorates one session: it is the api.System the
// algorithm runs on, and records a span around every operator call.
// Nothing inside the engine is instrumented.
type tracedSystem struct {
	api.System
	tr    *tracer
	stats statser
	id    int // the query span
}

// begin opens the query span; end closes it.
func (t *tracer) begin(sys api.System, st statser, class string) *tracedSystem {
	id := t.add(span{Name: class, Start: t.now()})
	return &tracedSystem{System: sys, tr: t, stats: st, id: id}
}

func (q *tracedSystem) end(total shard.Stats) {
	end := q.tr.now()
	q.tr.mu.Lock()
	defer q.tr.mu.Unlock()
	s := &q.tr.spans[q.id-1]
	s.End = end
	s.counters(shard.Stats{}, total)
}

func (q *tracedSystem) EdgeMap(f *frontier.Frontier, op api.EdgeOp, dir api.Direction) *frontier.Frontier {
	s := span{Parent: q.id, Query: q.id, Name: "EdgeMap", In: f.Count()}
	before := q.stats.Stats()
	s.Start = q.tr.now()
	out := q.System.EdgeMap(f, op, dir)
	s.End = q.tr.now()
	s.counters(before, q.stats.Stats())
	s.Out = out.Count()
	q.tr.add(s)
	return out
}

func (q *tracedSystem) VertexMap(f *frontier.Frontier, fn func(graph.VID)) {
	s := span{Parent: q.id, Query: q.id, Name: "VertexMap", In: f.Count(), Start: q.tr.now()}
	q.System.VertexMap(f, fn)
	s.End = q.tr.now()
	q.tr.add(s)
}

func (q *tracedSystem) VertexFilter(f *frontier.Frontier, pred func(graph.VID) bool) *frontier.Frontier {
	s := span{Parent: q.id, Query: q.id, Name: "VertexFilter", In: f.Count(), Start: q.tr.now()}
	out := q.System.VertexFilter(f, pred)
	s.End = q.tr.now()
	s.Out = out.Count()
	q.tr.add(s)
	return out
}

// traceSummary is what the layer metrics need from a pass's spans.
// Times are nanoseconds, summed over every finished query.
type traceSummary struct {
	spans int

	queryNS, edgeMapNS, vertexNS int64 // vertexNS = VertexMap + VertexFilter

	denseNS, denseSweeps   int64
	sparseNS, sparseSweeps int64
}

// summarize folds the spans of finished queries. A query's self time is
// its span minus its children, which never overlap each other: an
// algorithm calls one operator at a time.
func (t *tracer) summarize() traceSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum traceSummary
	sum.spans = len(t.spans)
	for i := range t.spans {
		s := &t.spans[i]
		if s.Parent == 0 {
			if s.End > 0 {
				sum.queryNS += s.dur()
			}
			continue
		}
		if t.spans[s.Parent-1].End == 0 {
			continue // its query never finished
		}
		switch s.Name {
		case "EdgeMap":
			sum.edgeMapNS += s.dur()
			if s.Dense > 0 {
				sum.denseNS += s.dur()
				sum.denseSweeps += s.Dense
			} else {
				sum.sparseNS += s.dur()
				sum.sparseSweeps += s.Sparse
			}
		default:
			sum.vertexNS += s.dur()
		}
	}
	return sum
}

// write stores the pass's spans as one JSON document.
func (t *tracer) write(path, workload string, seed uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"workload": workload, "seed": seed, "spans": t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
