package algorithms

import (
	"reflect"
	"testing"

	"repro/internal/api"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/shard"
)

// The OOC pipeline equivalence suite: every algorithm in the repository
// — the eight Table II applications plus the five beyond-Table-II ones
// — must produce bit-identical results on the out-of-core engine across
// the whole concurrency ladder:
//
//   - the reference: a sequential sweep written only against the
//     store's public read API (sweepref: calling goroutine, shard-file
//     order, no cache, no pipeline, no task split);
//   - the engine at its least concurrent (one thread, so a one-deep
//     window) and at its defaults, both behind a half-store cache;
//   - the two- and four-thread windows over a resident store, where the
//     workers apply tasks of up to that many shards simultaneously
//     while the stager runs as many shards ahead;
//   - the four-thread window over eight shards behind a half-store
//     cache, so plan-ordered reads, evictions and concurrent applies
//     interleave;
//   - the same engine over stores written in the raw (v1) and the
//     delta+uvarint (v2) shard-file encodings, so the on-disk format
//     joins the ladder: they and the run-grouped (v3) default every
//     other rung runs on must load to identical shards, and therefore
//     identical results;
//   - a session of a host with a tiny shared cache, and stores that
//     reached their content through mutation and compaction;
//   - the whole store resident before the algorithm starts, behind a
//     budget with room for per-shard source indexes (sparse sweeps run
//     inline through them) and behind one of exactly the decoded store
//     (no index fits; the same plans take the window).
//
// Every rung but the two whole-store window ones and the two resident
// ones runs behind a cache of half the store's decoded bytes (the
// shared-session rung: 8 KiB) and must show budget pressure — evictions
// or refused inserts — so none quietly becomes an everything-resident
// run; the resident rungs must show none, and which sparse path ran.
//
// This is the strongest form of the concurrency correctness claim:
// neither staging depth nor task interleaving may change *what* is
// computed, only *when* a shard becomes resident and which workers are
// busy — so even the float64 accumulations (whose results
// depend on per-destination application order) must match exactly, not
// just within tolerance. Run under -race in CI, this doubles as the
// schedule-interleaving sweep for the concurrent apply path.

func TestOOCPipelineBitIdenticalAcrossAllAlgorithms(t *testing.T) {
	directed := gen.TinySocial()
	symmetric := gen.Symmetrise(gen.PowerLaw(1<<9, 1<<12, 2.3, 5))
	src := SourceVertex(directed)
	symSrc := SourceVertex(symmetric)

	// The concurrency ladder, public-API reference first.
	variants := []struct {
		name string
		mk   func(t *testing.T, g *graph.Graph) api.System
	}{
		{"reference", oocReference},
		{"sequential", func(t *testing.T, g *graph.Graph) api.System { return oocSequentialEngine(t, g) }},
		{"defaults", func(t *testing.T, g *graph.Graph) api.System { return oocEngine(t, g) }},
		{"window-2", func(t *testing.T, g *graph.Graph) api.System { return oocWindowEngine(t, g, 2) }},
		{"window-4", func(t *testing.T, g *graph.Graph) api.System { return oocWindowEngine(t, g, 4) }},
		{"tight-window-4", func(t *testing.T, g *graph.Graph) api.System { return oocTightWindowEngine(t, g) }},
		// The same ladder endpoint over a raw (v1) and a delta+uvarint
		// (v2) store — every other rung runs on the v3 Create writes: the
		// on-disk format must change bytes, never results.
		{"v1-store", func(t *testing.T, g *graph.Graph) api.System { return oocFormatEngine(t, g, shard.FormatV1) }},
		{"v2-store", func(t *testing.T, g *graph.Graph) api.System { return oocFormatEngine(t, g, shard.FormatV2) }},
		{"shared-session", func(t *testing.T, g *graph.Graph) api.System { return oocSharedSessionEngine(t, g) }},
		// Log-structured rungs: the same content reached by mutation —
		// edges held back and re-applied as a batch with foreign edges
		// tombstoned away — served base+delta merged, then compacted.
		// Neither the delta layer nor compaction may change a single bit
		// of any algorithm's result.
		{"delta-store", func(t *testing.T, g *graph.Graph) api.System { return oocMutatedStoreEngine(t, g, false) }},
		{"compacted-store", func(t *testing.T, g *graph.Graph) api.System { return oocMutatedStoreEngine(t, g, true) }},
		// Resident rungs: the whole store decoded before the algorithm
		// starts. With room for source indexes every sparse sweep runs
		// inline on the caller's goroutine through them; with a budget
		// of exactly the decoded store no index fits and the same plans
		// take the window. Each asserts which it was.
		{"resident-indexed", func(t *testing.T, g *graph.Graph) api.System { return oocResidentEngine(t, g, true) }},
		{"resident-no-room", func(t *testing.T, g *graph.Graph) api.System { return oocResidentEngine(t, g, false) }},
	}

	// Each entry runs one algorithm to completion through api.System and
	// returns its full result struct for deep comparison. rsys is the
	// engine over the reversed graph, built only for BC — the one
	// algorithm that traverses it.
	runs := []struct {
		name        string
		g           *graph.Graph
		needReverse bool
		run         func(sys, rsys api.System) interface{}
	}{
		{"BC", directed, true, func(sys, rsys api.System) interface{} { return BC(sys, rsys, src) }},
		{"CC", directed, false, func(sys, _ api.System) interface{} { return CC(sys) }},
		{"PR", directed, false, func(sys, _ api.System) interface{} { return PR(sys, 10) }},
		{"BFS", directed, false, func(sys, _ api.System) interface{} { return BFS(sys, src) }},
		{"PRDelta", directed, false, func(sys, _ api.System) interface{} { return PRDelta(sys, 60) }},
		{"SPMV", directed, false, func(sys, _ api.System) interface{} { return SPMV(sys) }},
		{"BF", directed, false, func(sys, _ api.System) interface{} { return BellmanFord(sys, src) }},
		{"BP", directed, false, func(sys, _ api.System) interface{} { return BP(sys, 10) }},
		{"KCore", symmetric, false, func(sys, _ api.System) interface{} { return KCore(sys) }},
		{"MIS", symmetric, false, func(sys, _ api.System) interface{} { return MIS(sys) }},
		{"Radii", symmetric, false, func(sys, _ api.System) interface{} { return Radii(sys) }},
		{"Coloring", symmetric, false, func(sys, _ api.System) interface{} { return Coloring(sys) }},
		{"TC", symmetric, false, func(sys, _ api.System) interface{} { return TriangleCount(sys) }},
		{"BFS-sym", symmetric, false, func(sys, _ api.System) interface{} { return BFS(sys, symSrc) }},
	}
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			var want interface{}
			for _, v := range variants {
				var rsys api.System
				if r.needReverse {
					rsys = v.mk(t, r.g.Reverse())
				}
				sys := v.mk(t, r.g)
				got := r.run(sys, rsys)
				if v.name == "reference" {
					want = got
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s results differ between the reference sweep and %s:\nreference: %+v\n%s: %+v",
						r.name, v.name, want, v.name, got)
				}
				// Every rung built behind a budget must have pressed it (TC
				// never sweeps: no loads, nothing to press).
				if c, ok := oocCaches.Load(sys); ok {
					if cs := c.(*shard.SharedCache).Stats(); cs.Loads > 0 && cs.Evictions+cs.Rejected == 0 {
						t.Fatalf("%s on the rung %s never pressed its %d-byte budget: %+v", r.name, v.name, cs.Budget, cs)
					}
				}
				for _, s := range []api.System{sys, rsys} {
					if rr, ok := oocResidentRungs.Load(s); ok {
						rr.(*residentRung).check(t, r.name+" on "+v.name, s.(*shard.Engine))
					}
				}
			}
		})
	}
}
