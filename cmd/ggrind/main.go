// Command ggrind runs one graph algorithm on one generated graph with a
// chosen engine, layout and partition count, printing timing and engine
// telemetry. It is the interactive counterpart of cmd/experiments.
//
// Examples:
//
//	ggrind -graph twitter-sm -alg PRDelta -system GG-v2 -partitions 384
//	ggrind -graph usaroad-sm -alg BF -system Ligra
//	ggrind -graph livejournal-sm -alg BFS -layout COO -reps 5
//	ggrind -graph yahoo-sm -alg PR -system OOC -partitions 24
//	ggrind -graph twitter-sm -alg PR -system OOC -shardformat v1
//	ggrind -graph livejournal-sm -alg PR -system OOC -cache-bytes 4194304
//	ggrind -graph twitter-sm -alg PR -system OOC -updates batch.json -compactstore
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/algorithms"
	"repro/internal/api"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/gio"
	"repro/internal/graph"
	"repro/internal/shard"
	"repro/internal/trace"
)

// main delegates to run so deferred cleanup (the OOC temp shard
// directory) still happens on error exits.
func main() {
	os.Exit(run())
}

func run() int {
	var (
		graphName  = flag.String("graph", "twitter-sm", "graph preset: "+strings.Join(gen.PresetNames(), ", "))
		graphFile  = flag.String("file", "", "load graph from file instead of a preset (.el/.adj/.bin[.gz])")
		traceOut   = flag.String("trace", "", "write a per-iteration CSV trace to this file (GG-v2 only)")
		algCode    = flag.String("alg", "PRDelta", "algorithm code: BC CC PR BFS PRDelta SPMV BF BP")
		system     = flag.String("system", "GG-v2", "engine: L, P, GG-v1, GG-v2, OOC (out-of-core)")
		partitions = flag.Int("partitions", 0, "GG-v2/OOC partition count (0 = default)")
		layout     = flag.String("layout", "auto", "GG-v2 forced layout: auto, CSR, CSC, COO")
		atomics    = flag.Bool("atomics", false, "force atomic updates in the COO layout")
		threads    = flag.Int("threads", 0, "worker threads (0 = GOMAXPROCS)")
		reps       = flag.Int("reps", 3, "repetitions; the median is reported")
		shardDir   = flag.String("sharddir", "", "OOC shard directory (empty = fresh temp dir, removed on exit)")
		cacheBytes = flag.Int64("cache-bytes", 0, "OOC decoded-shard cache budget in bytes, shared by the forward and reverse stores (0 = 256 MiB)")
		shardFmt   = flag.String("shardformat", shard.DefaultFormat.String(), "OOC shard-file encoding: v1 (raw uint32 pairs), v2 (delta+uvarint) or v3 (run-grouped group-varint, decoded in batch)")
		updates    = flag.String("updates", "", `OOC: apply a JSON edge batch {"insert":[{"src":0,"dst":1},...],"delete":[...]} to the store before running, then rebuild the engine at the new generation`)
		compactSt  = flag.Bool("compactstore", false, "OOC: compact delta shards into a new base generation before running (after -updates, if both are given)")
	)
	flag.Parse()

	// Reject nonsense knob values at parse time, before any graph is
	// built or sharded: a usage error, not a mid-run surprise.
	for _, f := range []struct {
		name string
		val  int
	}{
		{"partitions", *partitions}, {"threads", *threads},
	} {
		if f.val < 0 {
			fmt.Fprintf(os.Stderr, "ggrind: -%s must be >= 0 (0 selects the default), got %d\n", f.name, f.val)
			return 2
		}
	}
	if *cacheBytes < 0 {
		fmt.Fprintf(os.Stderr, "ggrind: -cache-bytes must be >= 0 (0 selects %d), got %d\n", shard.DefaultCacheBytes, *cacheBytes)
		return 2
	}
	if *reps < 1 {
		fmt.Fprintf(os.Stderr, "ggrind: -reps must be >= 1, got %d\n", *reps)
		return 2
	}
	format, err := shard.ParseFormat(*shardFmt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ggrind: %v\n", err)
		return 2
	}
	oopts := shard.Options{Threads: *threads}
	if (*updates != "" || *compactSt) && *system != "OOC" {
		fmt.Fprintf(os.Stderr, "ggrind: -updates and -compactstore mutate a sharded store and need -system OOC\n")
		return 2
	}

	spec, ok := algorithms.SpecByCode(*algCode)
	if !ok {
		fmt.Fprintf(os.Stderr, "ggrind: unknown algorithm %q\n", *algCode)
		return 2
	}

	var g *graph.Graph
	label := *graphName
	if *graphFile != "" {
		label = *graphFile
		fmt.Printf("loading %s...\n", label)
		var err error
		g, err = gio.Load(*graphFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ggrind: %v\n", err)
			return 1
		}
	} else {
		fmt.Printf("building %s...\n", label)
		g = gen.Preset(*graphName)
	}
	st := graph.ComputeStats(label, g)
	fmt.Println(st.String())

	var sys, rsys api.System
	var cache *shard.SharedCache // OOC only
	var rec *trace.Recorder
	if *traceOut != "" {
		rec = trace.New()
	}
	if *system == "GG-v2" {
		opts := core.Options{Partitions: *partitions, Threads: *threads, ForceAtomics: *atomics, Trace: rec}
		switch strings.ToUpper(*layout) {
		case "AUTO":
		case "CSR":
			opts.Layout = core.LayoutCSR
		case "CSC":
			opts.Layout = core.LayoutCSC
		case "COO":
			opts.Layout = core.LayoutCOO
		default:
			fmt.Fprintf(os.Stderr, "ggrind: unknown layout %q\n", *layout)
			return 2
		}
		eng := core.NewEngine(g, opts)
		fmt.Printf("engine: GG-v2 layout=%v partitions=%d threads=%d\n",
			eng.Options().Layout, eng.Options().Partitions, eng.Threads())
		sys = eng
		if spec.NeedsReverse {
			rsys = core.NewEngine(g.Reverse(), opts)
		}
	} else if *system == "OOC" {
		dir := *shardDir
		if dir == "" {
			tmp, err := os.MkdirTemp("", "ggrind-shards-*")
			if err != nil {
				fmt.Fprintf(os.Stderr, "ggrind: %v\n", err)
				return 1
			}
			defer os.RemoveAll(tmp)
			dir = tmp
		}
		p := *partitions
		if p <= 0 {
			p = 24
		}
		// One cache, one budget: the forward and (for BC) reverse stores
		// draw on the same bytes.
		cache = shard.NewSharedCache(*cacheBytes)
		build := func(sub string, g *graph.Graph) (*shard.Engine, error) {
			st, err := shard.Create(filepath.Join(dir, sub), g, shard.WriteOptions{Partitions: p, Format: format})
			if err != nil {
				return nil, err
			}
			h, err := shard.NewHost(st, g, cache, oopts)
			if err != nil {
				return nil, err
			}
			return h.NewSession(), nil
		}
		fmt.Printf("sharding to %s (%d partitions, %v files)...\n", dir, p, format)
		eng, err := build("fwd", g)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ggrind: %v\n", err)
			return 1
		}
		// Mutations come before any telemetry printing: the run should
		// measure the store as it will actually be swept, base plus
		// deltas (or the compacted generation), not the freshly built
		// base. The engine predates the mutation, so it is rebuilt from
		// the store at its new generation — the same reopen-and-rehost
		// discipline gserve follows.
		if *updates != "" || *compactSt {
			if *updates != "" {
				ins, del, err := loadBatch(*updates)
				if err != nil {
					fmt.Fprintf(os.Stderr, "ggrind: %v\n", err)
					return 2
				}
				res, err := eng.Store().ApplyBatch(ins, del)
				if err != nil {
					fmt.Fprintf(os.Stderr, "ggrind: %v\n", err)
					var be *shard.BatchError
					if errors.As(err, &be) {
						return 2
					}
					return 1
				}
				fmt.Printf("updates: generation %d, +%d/-%d edges, %d dirty shards\n",
					res.Generation, res.Inserted, res.Deleted, len(res.Dirty))
			}
			if *compactSt {
				cg, err := eng.Store().Compact()
				if err != nil {
					fmt.Fprintf(os.Stderr, "ggrind: %v\n", err)
					return 1
				}
				fmt.Printf("compacted: base generation %d\n", cg)
			}
			st, err := shard.Open(filepath.Join(dir, "fwd"))
			if err != nil {
				fmt.Fprintf(os.Stderr, "ggrind: %v\n", err)
				return 1
			}
			edges := make([]graph.Edge, 0, st.NumEdges())
			if err := st.Sweep(func(u, v graph.VID) {
				edges = append(edges, graph.Edge{Src: u, Dst: v})
			}); err != nil {
				fmt.Fprintf(os.Stderr, "ggrind: %v\n", err)
				return 1
			}
			g = graph.FromEdges(st.NumVertices(), edges)
			h, err := shard.NewHost(st, g, cache, oopts)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ggrind: %v\n", err)
				return 1
			}
			eng = h.NewSession()
			fmt.Printf("merged: %d edges at generation %d, %d delta files pending\n",
				st.NumEdges(), st.Generation(), st.PendingDeltas())
		}
		if disk, err := eng.Store().DiskBytes(); err == nil && g.NumEdges() > 0 {
			fmt.Printf("store: %v format, %.1f KiB on disk (%.2f bytes/edge; raw v1 is 8)\n",
				eng.Store().Format(), float64(disk)/1024, float64(disk)/float64(g.NumEdges()))
		}
		fmt.Printf("engine: OOC shards=%d cache-bytes=%d threads=%d\n",
			eng.Store().NumShards(), cache.Budget(), eng.Threads())
		sys = eng
		if spec.NeedsReverse {
			reng, err := build("rev", g.Reverse())
			if err != nil {
				fmt.Fprintf(os.Stderr, "ggrind: %v\n", err)
				return 1
			}
			rsys = reng
		}
	} else {
		sys = bench.BuildSystem(*system, g, *partitions, *threads)
		if spec.NeedsReverse {
			rsys = bench.BuildSystem(*system, g.Reverse(), *partitions, *threads)
		}
		fmt.Printf("engine: %s threads=%d\n", sys.Name(), sys.Threads())
	}

	src := algorithms.SourceVertex(g)
	fmt.Printf("running %s (source=%d, %d reps)...\n", spec.Code, src, *reps)
	var best time.Duration
	for i := 0; i < *reps; i++ {
		start := time.Now()
		spec.Run(sys, rsys, src)
		d := time.Since(start)
		fmt.Printf("  rep %d: %v\n", i+1, d)
		if best == 0 || d < best {
			best = d
		}
	}
	fmt.Printf("best: %v  (%.1f Medges/s)\n", best,
		float64(g.NumEdges())/best.Seconds()/1e6)
	if eng, ok := sys.(*core.Engine); ok {
		fmt.Printf("telemetry: %s\n", eng.Telemetry().String())
	}
	if eng, ok := sys.(*shard.Engine); ok {
		st := eng.Stats()
		fmt.Printf("ooc: %d dense + %d sparse sweeps, %d disk loads, %d cache hits, %d shard visits skipped\n",
			st.DenseSweeps, st.SparseSweeps, st.ShardLoads, st.CacheHits, st.ShardsSkipped)
		if st.BytesRead > 0 {
			fmt.Printf("ooc io: %.1f KiB read from disk (%.1f KiB at raw v1 pricing, %.2fx compression)\n",
				float64(st.BytesRead)/1024, float64(st.BytesLogical)/1024,
				float64(st.BytesLogical)/float64(st.BytesRead))
		}
		cs := cache.Stats()
		fmt.Printf("ooc cache: %d-byte budget, peak %d bytes resident, %d evictions, %d refused inserts\n",
			cs.Budget, cs.PeakBytes, cs.Evictions, cs.Rejected)
		fmt.Printf("ooc pipeline: %d of %d loads overlapped an apply\n", st.OverlappedLoads, st.ShardLoads)
	}
	if rec != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ggrind: %v\n", err)
			return 1
		}
		if err := rec.WriteCSV(f); err != nil {
			f.Close()
			fmt.Fprintf(os.Stderr, "ggrind: %v\n", err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "ggrind: %v\n", err)
			return 1
		}
		fmt.Printf("trace: %s (%s)\n", *traceOut, rec.String())
	}
	return 0
}

// loadBatch reads an edge-update batch from a JSON file: two optional
// edge lists under "insert" and "delete", each edge a {"src","dst"}
// pair. Range checking is the store's job (ApplyBatch rejects
// out-of-range vertex ids with a *shard.BatchError), so this only
// decodes.
func loadBatch(path string) (ins, del []graph.Edge, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var batch struct {
		Insert []struct {
			Src uint32 `json:"src"`
			Dst uint32 `json:"dst"`
		} `json:"insert"`
		Delete []struct {
			Src uint32 `json:"src"`
			Dst uint32 `json:"dst"`
		} `json:"delete"`
	}
	if err := json.Unmarshal(data, &batch); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	for _, e := range batch.Insert {
		ins = append(ins, graph.Edge{Src: graph.VID(e.Src), Dst: graph.VID(e.Dst)})
	}
	for _, e := range batch.Delete {
		del = append(del, graph.Edge{Src: graph.VID(e.Src), Dst: graph.VID(e.Dst)})
	}
	return ins, del, nil
}
