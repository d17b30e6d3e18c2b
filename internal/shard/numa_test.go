package shard

import (
	"testing"

	"repro/internal/api"
	"repro/internal/frontier"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/locality"
	"repro/internal/partition"
	"repro/internal/sched"
)

// TestShardDomainAssignmentDeterministicAndTotal: the shard→domain map
// is a function of (store, topology) alone — identical across engine
// rebuilds — and places every shard in exactly one valid domain, with
// the round-robin shape locality.MeasureNUMATraffic models.
func TestShardDomainAssignmentDeterministicAndTotal(t *testing.T) {
	g := gen.TinySocial()
	st, err := Create(t.TempDir(), g, WriteOptions{Partitions: 12})
	if err != nil {
		t.Fatal(err)
	}
	topo := sched.Topology{Domains: 4}
	build := func() []int {
		e, err := NewEngine(st, g, Options{Topology: topo})
		if err != nil {
			t.Fatal(err)
		}
		doms := make([]int, st.NumShards())
		for i := range doms {
			doms[i] = e.ShardDomain(i)
		}
		return doms
	}
	want := build()
	for i, d := range want {
		if d < 0 || d >= topo.Domains {
			t.Fatalf("shard %d assigned to domain %d outside [0,%d)", i, d, topo.Domains)
		}
		if d != topo.DomainOf(i) {
			t.Fatalf("shard %d on domain %d, want round-robin %d", i, d, topo.DomainOf(i))
		}
	}
	for rebuild := 0; rebuild < 3; rebuild++ {
		got := build()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("rebuild %d: shard %d moved from domain %d to %d", rebuild, i, want[i], got[i])
			}
		}
	}
}

// TestDomainLoadsCoverSweep: after a full dense sweep, every applied
// shard is accounted to exactly its assigned domain — counts sum to the
// number of applications and land where ShardDomain says.
func TestDomainLoadsCoverSweep(t *testing.T) {
	g := gen.TinySocial()
	e := buildTestEngine(t, g, 12, Options{Topology: sched.Topology{Domains: 4}})

	perShard := make([]int64, e.st.NumShards())
	e.onApplyBegin = func(si int) { perShard[si]++ }
	e.EdgeMap(frontier.All(g), passOp(), api.DirAuto)

	st := e.Stats()
	wantDomains := make([]int64, e.Topology().Domains)
	var applied int64
	for si, c := range perShard {
		wantDomains[e.ShardDomain(si)] += c
		applied += c
	}
	if applied == 0 {
		t.Fatal("dense sweep applied nothing")
	}
	var counted, edges int64
	for d := range st.DomainShards {
		if st.DomainShards[d] != wantDomains[d] {
			t.Fatalf("domain %d credited %d shards, want %d", d, st.DomainShards[d], wantDomains[d])
		}
		counted += st.DomainShards[d]
		edges += st.DomainEdges[d]
	}
	if counted != applied {
		t.Fatalf("domain shard counts sum to %d, %d shards were applied", counted, applied)
	}
	if edges != g.NumEdges() {
		t.Fatalf("domain edge counts sum to %d, graph has %d edges", edges, g.NumEdges())
	}
}

// TestNUMAPlacementNoWorseThanUnplaced scores the engine's placement
// (round-robin partition→domain, the one MeasureNUMATraffic models)
// against an unplaced baseline that stripes 64-vertex pages across
// domains with no regard for partition structure, on generated
// power-law graphs. The partition-aware placement must keep every
// next-array update domain-local and beat — at worst match — the
// baseline's overall local share.
func TestNUMAPlacementNoWorseThanUnplaced(t *testing.T) {
	topo := sched.DefaultTopology()
	const p = 16
	for _, seed := range []uint64{3, 7, 11} {
		g := gen.PowerLaw(1<<10, 1<<13, 2.3, seed)
		placed := locality.MeasureNUMATraffic(g, p, topo)
		striped := locality.MeasureNUMAPlacement(g, p, topo, func(v graph.VID) int {
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

// TestConformanceAcrossTopologies: the pipelined engine satisfies the
// api.System contract whatever the domain/worker ratio — more domains
// than workers, more workers than domains, and a single domain.
func TestConformanceAcrossTopologies(t *testing.T) {
	g := gen.TinySocial()
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"one-domain", Options{Threads: 4, Topology: sched.Topology{Domains: 1}}},
		{"domains-exceed-workers", Options{Threads: 2, Topology: sched.Topology{Domains: 8}}},
		{"workers-exceed-domains", Options{Threads: 8, Topology: sched.Topology{Domains: 2}}},
		{"serial-many-domains", Options{Threads: 1, Topology: sched.Topology{Domains: 4}}},
	} {
		e := buildTestEngine(t, g, 8, tc.opts)
		if err := api.CheckSystem(e); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}
