package shard

// Co-scheduling battery: a hook-gated deterministic proof that a
// follower really consumes the leader's disk pass, and the tentpole's
// headline regression — concurrent PageRank + BFS through shared
// sessions must be bit-identical to solo runs AND touch the disk
// strictly less than the two solo runs summed.

import (
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/algorithms"
	"repro/internal/api"
	"repro/internal/frontier"
	"repro/internal/gen"
	"repro/internal/graph"
)

// TestCoScheduledPassSharesShards forces the leader/follower
// interleaving deterministically: the leader opens its pass and then
// every apply blocks until the follower has joined, so at most Threads
// publications (one per worker) can precede the join and the rest — at
// least 12-Threads shards — are snooped by the follower. Both sessions
// count in-degrees, which verifies each plan applied every edge
// exactly once whatever mix of snooped and remainder shards served it.
func TestCoScheduledPassSharesShards(t *testing.T) {
	g := gen.TinySocial()
	h := buildHostOver(t, g, 12, 64<<20, Options{Threads: 4})
	n := g.NumVertices()

	leader := h.NewSession()
	follower := h.NewSession()

	led := make(chan struct{})
	joined := make(chan struct{})
	leader.onCoLead = func() { close(led) }
	leader.onApplyBegin = func(int) {
		select {
		case <-joined:
		case <-time.After(10 * time.Second):
			t.Error("follower never joined the open pass")
		}
	}
	follower.onCoFollow = func() { close(joined) }

	countOp := func(acc []int64) api.EdgeOp {
		return api.EdgeOp{
			Update:       func(u, v graph.VID) bool { acc[v]++; return true },
			UpdateAtomic: func(u, v graph.VID) bool { panic("shard engine called UpdateAtomic") },
		}
	}
	leadAcc := make([]int64, n)
	followAcc := make([]int64, n)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		leader.EdgeMap(frontier.All(g), countOp(leadAcc), api.DirBackward)
	}()
	select {
	case <-led:
	case <-time.After(10 * time.Second):
		t.Fatal("first dense sweep never led a pass")
	}
	follower.EdgeMap(frontier.All(g), countOp(followAcc), api.DirBackward)
	wg.Wait()

	if s := follower.Stats(); s.CoScheduledSweeps != 1 {
		t.Fatalf("follower ran %d co-scheduled sweeps, want exactly 1", s.CoScheduledSweeps)
	} else if s.CoSharedShards == 0 {
		t.Fatal("follower joined the pass but applied none of the leader's publications")
	}
	if s := leader.Stats(); s.CoScheduledSweeps != 0 {
		t.Fatalf("leader accounted %d co-scheduled sweeps, want 0", s.CoScheduledSweeps)
	}

	for v := 0; v < n; v++ {
		want := g.InDegree(graph.VID(v))
		if leadAcc[v] != want || followAcc[v] != want {
			t.Fatalf("in-degree[%d]: leader %d, follower %d, want %d — an edge was dropped or double-applied",
				v, leadAcc[v], followAcc[v], want)
		}
	}
}

// TestCoScheduledPRBFSBitIdentical is the acceptance gate: PageRank and
// BFS running concurrently through two sessions of one host must
// produce float64-bit-identical ranks and an identical parent array to
// solo runs on private hosts — and together perform strictly fewer
// shard loads than the two solo runs summed.
func TestCoScheduledPRBFSBitIdentical(t *testing.T) {
	g := gen.TinySocial()
	const shards = 12
	const budget = 64 << 20
	src := graph.VID(1)

	soloPRHost := buildHostOver(t, g, shards, budget, Options{Threads: 4})
	soloPR := soloPRHost.NewSession()
	wantRanks := prOnSystem(soloPR, 5)
	soloBFSHost := buildHostOver(t, g, shards, budget, Options{Threads: 4})
	soloBFS := soloBFSHost.NewSession()
	wantParents := algorithms.BFS(soloBFS, src).Parents
	soloLoads := soloPR.Stats().ShardLoads + soloBFS.Stats().ShardLoads

	h := buildHostOver(t, g, shards, budget, Options{Threads: 4})
	pr := h.NewSession()
	bfs := h.NewSession()
	var gotRanks []float64
	var gotParents []int32
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); gotRanks = prOnSystem(pr, 5) }()
	go func() { defer wg.Done(); gotParents = algorithms.BFS(bfs, src).Parents }()
	wg.Wait()

	for v := range wantRanks {
		if math.Float64bits(gotRanks[v]) != math.Float64bits(wantRanks[v]) {
			t.Fatalf("rank[%d] = %x, want %x: co-scheduled PR not bit-identical to solo",
				v, math.Float64bits(gotRanks[v]), math.Float64bits(wantRanks[v]))
		}
	}
	for v := range wantParents {
		if gotParents[v] != wantParents[v] {
			t.Fatalf("parent[%d] = %d, want %d: co-scheduled BFS diverged from solo",
				v, gotParents[v], wantParents[v])
		}
	}

	concurrent := h.Cache().Stats().Loads
	if concurrent >= soloLoads {
		t.Fatalf("concurrent PR+BFS performed %d loads, want strictly fewer than the solo sum %d",
			concurrent, soloLoads)
	}
	if concurrent > int64(shards) {
		t.Fatalf("whole-store budget but %d loads for %d shards: residency or single-flight leaked a re-read",
			concurrent, shards)
	}
}
