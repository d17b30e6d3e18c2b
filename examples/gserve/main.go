// Demonstrates the multi-tenant graph-serving daemon: shard a graph to
// disk, host it in a gserve core, and run concurrent queries over the
// HTTP/JSON API — showing shared residency (later queries ride the
// shards earlier ones loaded), cross-query load accounting, and
// bit-identical results under concurrency.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/gen"
	"repro/internal/serve"
	"repro/internal/shard"
)

func main() {
	g := gen.TinySocial()
	dir := filepath.Join(os.TempDir(), "gserve-example")
	defer os.RemoveAll(dir)
	const shards = 12
	if _, err := shard.Create(dir, g, shard.WriteOptions{Partitions: shards}); err != nil {
		panic(err)
	}
	fmt.Printf("graph: %d vertices, %d edges, sharded to %d partitions\n",
		g.NumVertices(), g.NumEdges(), shards)

	// The daemon core behind a real HTTP server (gserve wraps exactly
	// this behind a TCP listener and signal handling).
	s := serve.New(serve.Config{CacheBytes: 64 << 20})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	post(ts.URL+"/v1/stores", map[string]string{"name": "social", "dir": dir})
	fmt.Printf("opened store 'social' at %s\n", ts.URL)

	// Submit PageRank, BFS and CC concurrently: three sessions over one
	// store, sharing the refcounted cache and each shard's disk read.
	var wg sync.WaitGroup
	for _, spec := range []map[string]any{
		{"store": "social", "algo": "pagerank", "iters": 10},
		{"store": "social", "algo": "bfs", "src": 1},
		{"store": "social", "algo": "cc"},
	} {
		wg.Add(1)
		go func(spec map[string]any) {
			defer wg.Done()
			var sub struct {
				ID string `json:"id"`
			}
			post(ts.URL+"/v1/queries", spec, &sub)
			var info struct {
				Algo   string  `json:"algo"`
				Status string  `json:"status"`
				Digest string  `json:"digest"`
				Loads  int64   `json:"loads"`
				WallMS float64 `json:"wall_ms"`
			}
			get(ts.URL+"/v1/queries/"+sub.ID+"?wait=1", &info)
			fmt.Printf("  %-8s %s in %.1fms, %d disk loads, digest %s\n",
				info.Algo, info.Status, info.WallMS, info.Loads, info.Digest)
		}(spec)
	}
	wg.Wait()

	var stats struct {
		Cache   shard.SharedCacheStats `json:"cache"`
		Queries int                    `json:"queries"`
	}
	get(ts.URL+"/v1/stats", &stats)
	c := stats.Cache
	fmt.Printf("shared cache after %d queries: %d loads, %d hits, %d shared reads, %d/%d bytes resident\n",
		stats.Queries, c.Loads, c.Hits, c.Shared, c.Bytes, c.Budget)
	fmt.Printf("the three queries touched %d shards total — loads stay at (or near) one per shard\n", shards)
}

func post(url string, body any, out ...any) {
	buf, err := json.Marshal(body)
	if err != nil {
		panic(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		panic(err)
	}
	decode(resp, out)
}

func get(url string, out ...any) {
	resp, err := http.Get(url)
	if err != nil {
		panic(err)
	}
	decode(resp, out)
}

func decode(resp *http.Response, out []any) {
	defer resp.Body.Close()
	if len(out) > 0 {
		if err := json.NewDecoder(resp.Body).Decode(out[0]); err != nil {
			panic(err)
		}
	}
}
