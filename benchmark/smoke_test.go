package main

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
)

// tinyRun runs one workload in-process on the tiny graphs.
func tinyRun(t *testing.T, w *workload, trace bool, seconds float64) *result {
	t.Helper()
	cfg := &runConfig{
		scale: "tiny", seed: 1, seconds: seconds, trace: trace,
		buildDir: t.TempDir(), outDir: t.TempDir(), children: &childSet{},
	}
	res, err := runOne(cfg, w)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct=%v failed=%d attempted=%d", w.name, res.Correct, res.Failed, res.Attempted)
	}
	return res
}

func checkMetrics(t *testing.T, res *result, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics emitted, table has %d", res.Workload, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s: metric %s = %v (present %v)", res.Workload, d.name, v, ok)
		}
		if d.unit == "" || (d.better != "lower" && d.better != "higher") {
			t.Errorf("metric %s: unit %q better %q", d.name, d.unit, d.better)
		}
	}
}

// TestSmoke runs all four workloads end to end at tiny scale: every
// metric of both passes is there and finite, nothing fails, and the
// exact-count layer metrics of the single-client workloads repeat.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		e2e := tinyRun(t, w, false, 0.2)
		checkMetrics(t, e2e, endToEnd)
		for _, d := range endToEnd {
			if e2e.Metrics[d.name] <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.name, e2e.Metrics[d.name])
			}
		}
		a := tinyRun(t, w, true, 0.45)
		checkMetrics(t, a, perLayer)
		if w.multi {
			continue
		}
		b := tinyRun(t, w, true, 0.45)
		for _, d := range perLayer {
			if d.exact && a.Metrics[d.name] != b.Metrics[d.name] {
				t.Errorf("%s: %s is %v, then %v", w.name, d.name, a.Metrics[d.name], b.Metrics[d.name])
			}
		}
		if got := a.Metrics["shard.shared_reads"] + a.Metrics["shard.coscheduled_sweeps"]; got != 0 {
			t.Errorf("%s: one client shared %v reads and sweeps with nobody", w.name, got)
		}
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the tables the binary emits
// from.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Command    []string
		Paths      []string
		RunSeconds float64 `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if strings.Join(spec.Command, " ") != "go run ./benchmark" || strings.Join(spec.Paths, " ") != "benchmark" {
		t.Errorf("command %q paths %q", spec.Command, spec.Paths)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %v, the binary defaults to %v", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, the binary has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the binary (or their reasons differ)", i, spec.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters", w.name, len(w.why))
		}
	}
	same := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, the binary has %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: %+v in BENCHMARK.json, %+v in the binary", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.bound) {
				t.Errorf("%s %s: bound differs from the binary's %v", kind, d.name, d.bound)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd, true)
	same("per_layer", spec.PerLayer, perLayer, false)
}

// TestStableSurface keeps the benchmark off the engine's tuning knobs,
// deprecated writers, unversioned routes and bin counters, so that it
// measures the defaults and survives their removal.
func TestStableSurface(t *testing.T) {
	forbidden := map[string]bool{}
	for _, name := range strings.Fields(`CacheShards NoPrefetch Window IODepth Order SweepMode
		BinBudgetBytes Format WriteFormat BinStats ScatterGatherSweeps BinShardsReused
		BinBytesWritten BinBytesRead BinShardsEvicted BinBytesSpilled BinSpillReplays
		BinSpillBytesRead`) {
		forbidden[name] = true
	}
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					x, _ := n.X.(*ast.Ident)
					if forbidden[n.Sel.Name] || (n.Sel.Name == "Write" && x != nil && x.Name == "shard") {
						t.Errorf("%s: uses .%s", fset.Position(n.Pos()), n.Sel.Name)
					}
				case *ast.KeyValueExpr:
					if k, ok := n.Key.(*ast.Ident); ok && forbidden[k.Name] {
						t.Errorf("%s: sets %s", fset.Position(n.Pos()), k.Name)
					}
				case *ast.BasicLit:
					if n.Kind != token.STRING {
						break
					}
					s, _ := strconv.Unquote(n.Value)
					for _, route := range []string{"stores", "queries", "stats"} {
						if strings.HasPrefix(s, "/"+route) {
							t.Errorf("%s: unversioned route %q", fset.Position(n.Pos()), s)
						}
					}
				}
				return true
			})
		}
	}
}
