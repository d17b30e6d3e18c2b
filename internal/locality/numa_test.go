package locality

import (
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/sched"
)

func TestNUMANextAccessesAlwaysLocal(t *testing.T) {
	// The defining property of partitioning-by-destination under the
	// modelled placement: zero remote next-array updates, at any P.
	g := gen.TinySocial()
	for _, p := range []int{4, 16, 64} {
		tr := MeasureNUMATraffic(g, p, sched.Topology{Domains: 4})
		if tr.RemoteNext != 0 {
			t.Fatalf("P=%d: %d remote next-array accesses, want 0", p, tr.RemoteNext)
		}
		if tr.LocalNext != g.NumEdges() {
			t.Fatalf("P=%d: local next accesses %d, want %d", p, tr.LocalNext, g.NumEdges())
		}
	}
}

func TestNUMACurReadsMostlyRemote(t *testing.T) {
	// Current-array reads hit all domains; with D=4 and hash-like
	// structure roughly 3/4 are remote.
	g := gen.TinySocial()
	tr := MeasureNUMATraffic(g, 16, sched.Topology{Domains: 4})
	frac := float64(tr.RemoteCur) / float64(tr.LocalCur+tr.RemoteCur)
	if frac < 0.4 || frac > 0.95 {
		t.Fatalf("remote cur fraction %.2f implausible for 4 domains", frac)
	}
	if tr.LocalShare <= 0.5 {
		t.Fatalf("local share %.2f should exceed 1/2 (all next accesses local)", tr.LocalShare)
	}
}

func TestNUMADomainLoadsBalanced(t *testing.T) {
	g := gen.Preset("livejournal-sm")
	tr := MeasureNUMATraffic(g, 48, sched.Topology{Domains: 4})
	var min, max int64 = 1 << 62, 0
	var sum int64
	for _, l := range tr.DomainLoads {
		if l < min {
			min = l
		}
		if l > max {
			max = l
		}
		sum += l
	}
	if sum != g.NumEdges() {
		t.Fatalf("domain loads sum %d, want %d", sum, g.NumEdges())
	}
	if float64(max) > 1.5*float64(min) {
		t.Fatalf("domain imbalance: min %d max %d", min, max)
	}
}

func TestNUMASingleDomainAllLocal(t *testing.T) {
	g := gen.TinySocial()
	tr := MeasureNUMATraffic(g, 8, sched.Topology{Domains: 1})
	if tr.RemoteCur != 0 || tr.RemoteNext != 0 || tr.LocalShare != 1 {
		t.Fatalf("single domain should be fully local: %+v", tr)
	}
}

// placementTraffic scores an arbitrary data placement home under the
// model's round-robin execution.
func placementTraffic(g *graph.Graph, p int, topo sched.Topology, home func(graph.VID) int) NUMATraffic {
	return measureTraffic(g, partition.ByDestination(g, p, partition.BalanceEdges), topo, home)
}

func TestNUMAPlacementGeneralisesTraffic(t *testing.T) {
	// Scoring the partition-aware placement explicitly must
	// reproduce MeasureNUMATraffic exactly — same model, explicit home.
	g := gen.TinySocial()
	const p = 16
	topo := sched.Topology{Domains: 4}
	want := MeasureNUMATraffic(g, p, topo)
	pt := partition.ByDestination(g, p, partition.BalanceEdges)
	got := placementTraffic(g, p, topo, func(v graph.VID) int {
		return topo.DomainOf(pt.Home(v))
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("placement-general measurement %+v differs from %+v", got, want)
	}
}

func TestNUMAPlacementScoresStripedWorse(t *testing.T) {
	// An unplaced baseline (64-vertex pages striped across domains,
	// ignoring partition structure) must lose the all-local next-array
	// property and the overall local share.
	g := gen.TinySocial()
	const p = 16
	topo := sched.Topology{Domains: 4}
	placed := MeasureNUMATraffic(g, p, topo)
	striped := placementTraffic(g, p, topo, func(v graph.VID) int {
		return int(v) / partition.BoundaryAlign % topo.Domains
	})
	if striped.RemoteNext == 0 {
		t.Fatal("striped placement kept all next accesses local; baseline is not a baseline")
	}
	if striped.LocalShare >= placed.LocalShare {
		t.Fatalf("striped local share %.3f should be below placed %.3f",
			striped.LocalShare, placed.LocalShare)
	}
}

// TestNUMAPlacementNoWorseThanUnplaced scores the round-robin
// partition→domain placement MeasureNUMATraffic models against an
// unplaced baseline that stripes 64-vertex pages across domains with no
// regard for partition structure, on generated power-law graphs. The
// partition-aware placement must keep every next-array update
// domain-local and beat — at worst match — the baseline's overall
// local share.
func TestNUMAPlacementNoWorseThanUnplaced(t *testing.T) {
	topo := sched.DefaultTopology()
	const p = 16
	for _, seed := range []uint64{3, 7, 11} {
		g := gen.PowerLaw(1<<10, 1<<13, 2.3, seed)
		placed := MeasureNUMATraffic(g, p, topo)
		striped := placementTraffic(g, p, topo, func(v graph.VID) int {
			return int(v) / partition.BoundaryAlign % topo.Domains
		})
		if placed.RemoteNext != 0 {
			t.Errorf("seed %d: partition-aware placement has %d remote next-array updates, want 0",
				seed, placed.RemoteNext)
		}
		if placed.LocalShare < striped.LocalShare {
			t.Errorf("seed %d: placed local share %.3f worse than unplaced baseline %.3f",
				seed, placed.LocalShare, striped.LocalShare)
		}
	}
}
