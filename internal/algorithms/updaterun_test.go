package algorithms

import (
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/api"
	"repro/internal/frontier"
	"repro/internal/gen"
	"repro/internal/graph"
)

// gatherProbe wraps a system's EdgeMap: with strip set it removes every
// operator's UpdateRun, so the engine applies each destination run edge
// by edge through Update; otherwise it counts the UpdateRun calls.
type gatherProbe struct {
	api.System
	strip    bool
	gathered *atomic.Int64
}

func (s gatherProbe) EdgeMap(f *frontier.Frontier, op api.EdgeOp, dir api.Direction) *frontier.Frontier {
	if run := op.UpdateRun; s.strip {
		op.UpdateRun = nil
	} else if run != nil {
		op.UpdateRun = func(v graph.VID, srcs []graph.VID) bool {
			s.gathered.Add(1)
			return run(v, srcs)
		}
	}
	return s.System.EdgeMap(f, op, dir)
}

// TestUpdateRunContractPRAndSPMV holds PR's and SPMV's run-level
// operators to their contract on the out-of-core engine, whose dense
// sweeps gather per destination run: the results are bit-identical to
// the same engine applying every edge through Update, and the gather
// really ran.
func TestUpdateRunContractPRAndSPMV(t *testing.T) {
	for _, g := range []*graph.Graph{gen.TinySocial(), gen.RMAT(11, 8, 0.57, 0.19, 0.19, 5)} {
		run := func(strip bool) (PRResult, SPMVResult, int64) {
			sys := gatherProbe{System: oocEngine(t, g), strip: strip, gathered: new(atomic.Int64)}
			pr, y := PR(sys, 10), SPMV(sys)
			return pr, y, sys.gathered.Load()
		}
		pr, y, gathered := run(false)
		prEdges, yEdges, _ := run(true)
		if gathered == 0 {
			t.Fatal("the engine never called UpdateRun on a full frontier")
		}
		if !reflect.DeepEqual(pr, prEdges) {
			t.Fatal("PR differs with its UpdateRun removed")
		}
		if !reflect.DeepEqual(y, yEdges) {
			t.Fatal("SPMV differs with its UpdateRun removed")
		}
	}
}
