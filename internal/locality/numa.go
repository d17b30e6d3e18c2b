package locality

import (
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/sched"
)

// NUMA traffic model. Go cannot pin pages, so the experiments cannot
// measure real cross-socket traffic; what they can do is count, for the
// modelled placement (§III.D: partition i's vertex slice lives on domain
// i mod D, and partition i is processed by a core of that domain), how
// many of a traversal's accesses would be domain-local. This quantifies
// the placement property Polymer and GraphGrind get from
// partitioning-by-destination: every next-array *update* is local by
// construction; only current-array *reads* cross domains.

// NUMATraffic summarises the locality of one dense COO iteration.
type NUMATraffic struct {
	LocalNext   int64 // next-array accesses to the worker's own domain
	RemoteNext  int64
	LocalCur    int64 // current-array reads from the worker's own domain
	RemoteCur   int64
	LocalShare  float64 // fraction of all vertex-array accesses that are local
	DomainLoads []int64 // edges processed per domain
}

// MeasureNUMATraffic walks the partitioned COO and classifies each
// vertex-array access as local or remote under the round-robin
// partition→domain placement — the placement shard.Engine uses for its
// sweeps (shard i's destination range lives on domain i mod D).
func MeasureNUMATraffic(g *graph.Graph, p int, topo sched.Topology) NUMATraffic {
	if topo.Domains <= 0 {
		topo = sched.DefaultTopology()
	}
	pt := partition.ByDestination(g, p, partition.BalanceEdges)
	return measureTraffic(g, pt, topo, func(v graph.VID) int {
		return topo.DomainOf(pt.Home(v))
	})
}

// measureTraffic runs one dense COO iteration under the modelled
// execution (partition i processed on domain i mod D) and classifies
// every vertex-array access by the data placement home, which names the
// domain holding v's vertex-array slice — so placements can be scored
// against each other.
func measureTraffic(g *graph.Graph, pt *partition.Partitioning, topo sched.Topology, home func(graph.VID) int) NUMATraffic {
	pcoo := partition.NewPCOO(g, pt)
	var t NUMATraffic
	t.DomainLoads = make([]int64, topo.Domains)
	for pi, part := range pcoo.Parts {
		dom := topo.DomainOf(pi)
		t.DomainLoads[dom] += part.NumEdges()
		for i := range part.Src {
			// Under the partition-aware placement the destination's home
			// partition is pi by construction, so the next-array access
			// is always local. Verified, not assumed: home() is consulted.
			if home(part.Dst[i]) == dom {
				t.LocalNext++
			} else {
				t.RemoteNext++
			}
			if home(part.Src[i]) == dom {
				t.LocalCur++
			} else {
				t.RemoteCur++
			}
		}
	}
	total := t.LocalNext + t.RemoteNext + t.LocalCur + t.RemoteCur
	if total > 0 {
		t.LocalShare = float64(t.LocalNext+t.LocalCur) / float64(total)
	}
	return t
}
