package algorithms

import (
	"testing"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/ligra"
)

// Tests for the beyond-Table-II applications (KCore, MIS, Radii).

func symmetricTestGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"orkutish": gen.Symmetrise(gen.PowerLaw(1<<10, 1<<13, 2.3, 11)),
		"road":     gen.TinyRoad(),
		"clique":   gen.Complete(12),
	}
}

func extendedSystems(t *testing.T, g *graph.Graph) map[string]api.System {
	return map[string]api.System{
		"ggv2":     core.NewEngine(g, core.Options{}),
		"ggv2-coo": core.NewEngine(g, core.Options{Layout: core.LayoutCOO}),
		"ligra":    ligra.New(g, 0),
		"ooc":      oocEngine(t, g),
		"ooc-seq":  oocSequentialEngine(t, g),
		"ooc-win":  oocWindowEngine(t, g, 4),
	}
}

func TestKCoreAgreesWithSerial(t *testing.T) {
	for gname, g := range symmetricTestGraphs() {
		want := SerialKCore(g)
		for sname, sys := range extendedSystems(t, g) {
			res := KCore(sys)
			for v := range want {
				if res.Coreness[v] != want[v] {
					t.Fatalf("%s/%s: coreness[%d] = %d, want %d",
						gname, sname, v, res.Coreness[v], want[v])
				}
			}
		}
	}
}

func TestKCoreClique(t *testing.T) {
	// A k-clique has coreness k-1 everywhere and degeneracy k-1.
	g := gen.Complete(8)
	res := KCore(core.NewEngine(g, core.Options{}))
	for v, c := range res.Coreness {
		if c != 7 {
			t.Fatalf("clique coreness[%d] = %d, want 7", v, c)
		}
	}
	if res.MaxCore != 7 {
		t.Fatalf("max core %d, want 7", res.MaxCore)
	}
}

func TestKCoreStar(t *testing.T) {
	// A symmetric star is 1-degenerate: everything has coreness 1.
	g := gen.Symmetrise(gen.Star(32))
	res := KCore(core.NewEngine(g, core.Options{}))
	for v, c := range res.Coreness {
		if c != 1 {
			t.Fatalf("star coreness[%d] = %d, want 1", v, c)
		}
	}
}

func TestMISValidOnAllEnginesAndGraphs(t *testing.T) {
	for gname, g := range symmetricTestGraphs() {
		for sname, sys := range extendedSystems(t, g) {
			res := MIS(sys)
			if msg := VerifyMIS(g, res.InSet); msg != "" {
				t.Fatalf("%s/%s: invalid MIS: %s", gname, sname, msg)
			}
		}
	}
}

func TestMISDeterministicAcrossEngines(t *testing.T) {
	// Priorities are deterministic, so the chosen set must be identical
	// on every engine.
	g := gen.TinyRoad()
	var want []bool
	for sname, sys := range extendedSystems(t, g) {
		res := MIS(sys)
		if want == nil {
			want = res.InSet
			continue
		}
		for v := range want {
			if res.InSet[v] != want[v] {
				t.Fatalf("%s: MIS differs at vertex %d", sname, v)
			}
		}
	}
}

func TestMISCliquePicksExactlyOne(t *testing.T) {
	g := gen.Complete(10)
	res := MIS(core.NewEngine(g, core.Options{}))
	count := 0
	for _, in := range res.InSet {
		if in {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("clique MIS size %d, want 1", count)
	}
}

func TestRadiiAgreesWithSerial(t *testing.T) {
	for gname, g := range symmetricTestGraphs() {
		want := SerialRadii(g)
		for sname, sys := range extendedSystems(t, g) {
			res := Radii(sys)
			for v := range want {
				if res.Ecc[v] != want[v] {
					t.Fatalf("%s/%s: ecc[%d] = %d, want %d",
						gname, sname, v, res.Ecc[v], want[v])
				}
			}
		}
	}
}

func TestRadiiRoadDiameterLarge(t *testing.T) {
	// The lattice's estimated diameter must reflect its large true
	// diameter (≥ grid side).
	g := gen.TinyRoad()
	res := Radii(core.NewEngine(g, core.Options{}))
	if res.DiameterEst < 40 {
		t.Fatalf("road diameter estimate %d implausibly small", res.DiameterEst)
	}
	social := gen.Symmetrise(gen.PowerLaw(1<<10, 1<<13, 2.3, 11))
	sres := Radii(core.NewEngine(social, core.Options{}))
	if sres.DiameterEst >= res.DiameterEst {
		t.Fatalf("social diameter %d should be far below road %d",
			sres.DiameterEst, res.DiameterEst)
	}
}

func TestTopKByOutDegree(t *testing.T) {
	g := gen.Star(100)
	top := topKByOutDegree(g, 3)
	if len(top) != 3 || top[0] != 0 {
		t.Fatalf("top = %v, want centre first", top)
	}
	small := gen.Chain(3)
	if got := topKByOutDegree(small, 64); len(got) != 3 {
		t.Fatalf("k capped at n: %d", len(got))
	}
}

func TestColoringProperOnAllGraphs(t *testing.T) {
	for gname, g := range symmetricTestGraphs() {
		for sname, sys := range extendedSystems(t, g) {
			res := Coloring(sys)
			if msg := VerifyColoring(g, res.Colors); msg != "" {
				t.Fatalf("%s/%s: invalid colouring: %s", gname, sname, msg)
			}
			if res.NumColors < 2 && g.NumEdges() > 0 {
				t.Fatalf("%s/%s: %d colours implausible", gname, sname, res.NumColors)
			}
		}
	}
}

func TestColoringCliqueNeedsNColors(t *testing.T) {
	g := gen.Complete(7)
	res := Coloring(core.NewEngine(g, core.Options{}))
	if res.NumColors != 7 {
		t.Fatalf("clique coloured with %d colours, want 7", res.NumColors)
	}
}

func TestColoringDeterministicAcrossEngines(t *testing.T) {
	g := gen.TinyRoad()
	var want []int32
	for sname, sys := range extendedSystems(t, g) {
		res := Coloring(sys)
		if want == nil {
			want = res.Colors
			continue
		}
		for v := range want {
			if res.Colors[v] != want[v] {
				t.Fatalf("%s: colour differs at %d", sname, v)
			}
		}
	}
}

func TestTriangleCountAgreesWithSerial(t *testing.T) {
	for gname, g := range symmetricTestGraphs() {
		want := SerialTriangleCount(g)
		for sname, sys := range extendedSystems(t, g) {
			got := TriangleCount(sys).Triangles
			if got != want {
				t.Fatalf("%s/%s: %d triangles, want %d", gname, sname, got, want)
			}
		}
	}
}

func TestTriangleCountClosedForms(t *testing.T) {
	// K_n has C(n,3) triangles.
	g := gen.Complete(9)
	if got := TriangleCount(core.NewEngine(g, core.Options{})).Triangles; got != 84 {
		t.Fatalf("K9 triangles = %d, want 84", got)
	}
	// A tree has none.
	road := gen.Symmetrise(gen.Chain(64))
	if got := TriangleCount(core.NewEngine(road, core.Options{})).Triangles; got != 0 {
		t.Fatalf("path triangles = %d, want 0", got)
	}
}
