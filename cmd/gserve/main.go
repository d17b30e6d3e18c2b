// gserve is the multi-tenant graph-serving daemon: one process hosting
// N sharded stores behind a single byte-budgeted, refcounted shard
// cache, running concurrent queries that share residency and each
// store's disk reads: a shard one query is loading serves every other
// query that misses on it. The HTTP/JSON API (internal/serve) lives under /v1/: open, list and close stores, apply
// edge-update batches (POST /v1/stores/{name}/updates) and compact the
// resulting deltas (POST /v1/stores/{name}/compact), submit queries
// and report cache/registry stats. Mutations rehost the store at its
// new generation; queries already running finish on the generation
// they started against. Errors are a uniform {"error": {"code",
// "message"}} envelope.
//
//	gserve -addr 127.0.0.1:8080 -store social=/data/social12 -cache-bytes 268435456
//
// Stores may be preloaded with repeated -store name=dir flags or opened
// later over the API. The daemon prints the bound address on stdout
// (useful with -addr :0) and shuts down cleanly on SIGINT/SIGTERM,
// finishing in-flight HTTP exchanges first.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/serve"
	"repro/internal/shard"
)

// storeFlags collects repeated -store name=dir mounts.
type storeFlags []string

func (s *storeFlags) String() string { return strings.Join(*s, ",") }

func (s *storeFlags) Set(v string) error {
	if !strings.Contains(v, "=") {
		return fmt.Errorf("want name=dir, got %q", v)
	}
	*s = append(*s, v)
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "gserve:", err)
		os.Exit(1)
	}
}

func run() error {
	var stores storeFlags
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
	cacheBytes := flag.Int64("cache-bytes", shard.DefaultCacheBytes, "shared shard-cache budget in bytes, across all stores (0 selects the default)")
	threads := flag.Int("threads", 0, "worker threads per query session (0 = engine default)")
	flag.Var(&stores, "store", "preload a store as name=dir (repeatable)")
	flag.Parse()

	if *cacheBytes < 0 {
		fmt.Fprintf(os.Stderr, "gserve: -cache-bytes must be >= 0 (0 selects %d), got %d\n", shard.DefaultCacheBytes, *cacheBytes)
		os.Exit(2)
	}
	opts := shard.Options{Threads: *threads}
	// Reject a nonsensical option at flag-parse time — usage error,
	// exit 2 — rather than failing every store open later.
	if err := opts.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "gserve:", err)
		os.Exit(2)
	}

	s := serve.New(serve.Config{
		CacheBytes: *cacheBytes,
		Options:    opts,
	})
	for _, mount := range stores {
		name, dir, _ := strings.Cut(mount, "=")
		if err := s.OpenStore(name, dir); err != nil {
			return err
		}
		fmt.Printf("gserve: store %s = %s\n", name, dir)
	}

	// Listen before announcing, so the printed address is connectable
	// the moment it appears (the smoke test and scripts key off it).
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Printf("gserve: listening on %s\n", ln.Addr())

	srv := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop()
	fmt.Println("gserve: shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return srv.Shutdown(shutCtx)
}
