package shard

import (
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
)

// bucketRef is the regrouping pass every load used to run, kept as the
// reference the search-derived task offsets are held to: a stable
// counting sort of the shard's edges by apply task, units dealt to tasks
// in contiguous near-equal runs. On a destination-sorted shard it is the
// identity on the edges, and its counts are the task offsets.
func bucketRef(c *graph.COO, lo graph.VID, units, tasks int) (src, dst []graph.VID, off []int) {
	unitTask := make([]int, units)
	for t := 0; t < tasks; t++ {
		for u := t * units / tasks; u < (t+1)*units/tasks; u++ {
			unitTask[u] = t
		}
	}
	taskOf := func(d graph.VID) int { return unitTask[int(d-lo)/partition.BoundaryAlign] }
	off = make([]int, tasks+1)
	for _, d := range c.Dst {
		off[taskOf(d)+1]++
	}
	for t := 0; t < tasks; t++ {
		off[t+1] += off[t]
	}
	src, dst = make([]graph.VID, len(c.Src)), make([]graph.VID, len(c.Dst))
	cursor := make([]int, tasks)
	for i, d := range c.Dst {
		t := taskOf(d)
		at := off[t] + cursor[t]
		src[at], dst[at] = c.Src[i], d
		cursor[t]++
	}
	return src, dst, off
}

// TestResidentMatchesBucketing pins what replaced hostCore.bucket: for
// every format — clean, under pending deltas and after compaction — the
// resident the engine builds is element for element what bucketing the
// loaded shard produced (the identity on its sorted edges, the counting
// sort's offsets), and its arrays are the loaded arrays themselves, not
// a copy. It then cuts every shard into every task count from 1 to its
// unit count and holds the offsets to the reference partition.
func TestResidentMatchesBucketing(t *testing.T) {
	g := gen.TinySocial()
	n := g.NumVertices()
	for _, format := range []Format{FormatV1, FormatV2, FormatV3} {
		st, err := Create(t.TempDir(), g, WriteOptions{Partitions: 3, Format: format})
		if err != nil {
			t.Fatal(err)
		}
		for _, stage := range []string{"clean", "pending deltas", "compacted"} {
			switch stage {
			case "pending deltas":
				ins := []graph.Edge{{Src: 1, Dst: 0}, {Src: graph.VID(n - 1), Dst: graph.VID(n - 1)}, {Src: 5, Dst: graph.VID(n / 2)}}
				if _, err := st.ApplyBatch(ins, g.Edges()[:7]); err != nil {
					t.Fatal(err)
				}
			case "compacted":
				if _, err := st.Compact(); err != nil {
					t.Fatal(err)
				}
			}
			live := graph.FromEdges(n, collectEdges(t, st))
			h, err := NewHost(st, live, nil, Options{Threads: 4})
			if err != nil {
				t.Fatal(err)
			}
			for si := 0; si < st.NumShards(); si++ {
				coo, err := st.LoadShard(si)
				if err != nil {
					t.Fatal(err)
				}
				lo, _ := st.Range(si)
				units := h.core.shardUnits(si)
				sh := h.core.newResident(si, coo)
				wantSrc, wantDst, wantOff := bucketRef(coo, lo, units, h.core.taskCount(si))
				if !slices.Equal(sh.src, wantSrc) || !slices.Equal(sh.dst, wantDst) || !slices.Equal(sh.off, wantOff) {
					t.Fatalf("%v %s shard %d: resident differs from the bucketed shard (offsets %v, want %v)",
						format, stage, si, sh.off, wantOff)
				}
				if len(coo.Src) > 0 && (&sh.src[0] != &coo.Src[0] || &sh.dst[0] != &coo.Dst[0]) {
					t.Fatalf("%v %s shard %d: resident copied the loaded arrays", format, stage, si)
				}
				for tasks := 1; tasks <= units; tasks++ {
					_, _, want := bucketRef(coo, lo, units, tasks)
					if got := taskOffsets(coo, lo, units, tasks); !slices.Equal(got, want) {
						t.Fatalf("%v %s shard %d at %d tasks: offsets %v, want %v", format, stage, si, tasks, got, want)
					}
				}
			}
		}
	}
}

// collectEdges sweeps st into an edge list.
func collectEdges(t *testing.T, st *Store) []graph.Edge {
	t.Helper()
	var out []graph.Edge
	if err := st.Sweep(func(u, v graph.VID) { out = append(out, graph.Edge{Src: u, Dst: v}) }); err != nil {
		t.Fatal(err)
	}
	return out
}
