// Command gconvert converts graphs between the supported on-disk
// formats (see internal/gio): SNAP edge lists (.el/.txt/.edges), Ligra
// AdjacencyGraph (.adj), and the compact binary format (.bin/.ggr), each
// optionally gzip-compressed (.gz). It can also materialise a generated
// preset to disk, which is how the repo's datasets are exported for use
// with the original C++ systems, and shard a graph into an out-of-core
// store directory (-shardout) in any shard-file encoding
// (-shardformat v1 raw / v2 delta+uvarint / v3 run-grouped, the default).
//
// Examples:
//
//	gconvert -in graph.el -out graph.adj
//	gconvert -preset twitter-sm -out twitter.bin.gz
//	gconvert -in big.adj -out big.el.gz -stats
//	gconvert -preset livejournal-sm -shardout lj-shards -shards 24
//	gconvert -in big.el -shardout big-shards -shardformat v1
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/gen"
	"repro/internal/gio"
	"repro/internal/graph"
	"repro/internal/shard"
)

func main() {
	var (
		in       = flag.String("in", "", "input graph file")
		preset   = flag.String("preset", "", "generate this preset instead of reading a file: "+strings.Join(gen.PresetNames(), ", "))
		out      = flag.String("out", "", "output graph file")
		shardOut = flag.String("shardout", "", "write an out-of-core shard store to this directory")
		shards   = flag.Int("shards", 24, "partition count for -shardout")
		shardFmt = flag.String("shardformat", shard.DefaultFormat.String(), "shard-file encoding for -shardout: v1 (raw uint32 pairs), v2 (delta+uvarint) or v3 (run-grouped group-varint, decoded in batch)")
		stats    = flag.Bool("stats", false, "print graph statistics")
	)
	flag.Parse()
	if (*out == "" && *shardOut == "") || (*in == "") == (*preset == "") {
		fmt.Fprintln(os.Stderr, "gconvert: need -out and/or -shardout, and exactly one of -in / -preset")
		flag.Usage()
		os.Exit(2)
	}
	if *shards < 1 {
		fmt.Fprintf(os.Stderr, "gconvert: -shards must be >= 1, got %d\n", *shards)
		os.Exit(2)
	}
	format, err := shard.ParseFormat(*shardFmt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gconvert: %v\n", err)
		os.Exit(2)
	}

	var g *graph.Graph
	var label string
	if *in != "" {
		label = *in
		g, err = gio.Load(*in)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gconvert: %v\n", err)
			os.Exit(1)
		}
	} else {
		label = *preset
		g = gen.Preset(*preset)
	}

	if *stats {
		fmt.Println(graph.ComputeStats(label, g).String())
	}
	if *out != "" {
		if err := gio.Save(*out, g); err != nil {
			fmt.Fprintf(os.Stderr, "gconvert: %v\n", err)
			os.Exit(1)
		}
		fi, err := os.Stat(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gconvert: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s: %d vertices, %d edges, %.1f KiB\n",
			*out, g.NumVertices(), g.NumEdges(), float64(fi.Size())/1024)
	}
	if *shardOut != "" {
		st, err := shard.Create(*shardOut, g, shard.WriteOptions{Partitions: *shards, Format: format})
		if err != nil {
			fmt.Fprintf(os.Stderr, "gconvert: %v\n", err)
			os.Exit(1)
		}
		disk, err := st.DiskBytes()
		if err != nil {
			fmt.Fprintf(os.Stderr, "gconvert: %v\n", err)
			os.Exit(1)
		}
		bpe := 0.0
		if g.NumEdges() > 0 {
			bpe = float64(disk) / float64(g.NumEdges())
		}
		fmt.Printf("sharded %s: %d shards (%v format), %.1f KiB on disk, %.2f bytes/edge (raw v1 is 8)\n",
			*shardOut, st.NumShards(), st.Format(), float64(disk)/1024, bpe)
	}
}
