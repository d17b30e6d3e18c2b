package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/aio"
	"repro/internal/core"
	"repro/internal/frontier"
	"repro/internal/graph"
	"repro/internal/sched"
	"repro/internal/shard"
)

// timeN runs fn probePasses times and returns the median seconds.
func timeN(fn func() error) (float64, error) {
	var xs []float64
	for i := 0; i < probePasses; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		xs = append(xs, time.Since(t0).Seconds())
	}
	return median(xs), nil
}

// storeFiles lists the data files of a store directory: everything but
// the manifest, which is how the probes read "the same shard files"
// without knowing how the store names them.
func storeFiles(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range ents {
		if e.Type().IsRegular() && e.Name() != "manifest.json" {
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	return out, nil
}

func loadAllShards(st *shard.Store) error {
	for i := 0; i < st.NumShards(); i++ {
		if _, err := st.LoadShard(i); err != nil {
			return err
		}
	}
	return nil
}

// probeStore times the store layer alone, single goroutine, on a store
// nothing else is using: open, read+decode of every shard, the plain
// file reads of the same bytes, and a full sweep with a no-op callback.
func probeStore(dir string, edges int64, m map[string]float64) error {
	st, err := shard.Open(dir)
	if err != nil {
		return err
	}
	disk, err := st.DiskBytes()
	if err != nil {
		return err
	}
	files, err := storeFiles(dir)
	if err != nil {
		return err
	}
	e := float64(edges)
	m["shard.disk_bytes_per_edge"] = float64(disk) / e

	openS, err := timeN(func() error { _, err := shard.Open(dir); return err })
	if err != nil {
		return err
	}
	m["shard.open_ms"] = openS * 1e3

	// The sequential-read ceiling. These bytes were just written, so
	// this is the page cache's bandwidth, not a device's.
	buf := make([]byte, 1<<20)
	readS, err := timeN(func() error {
		for _, f := range files {
			fh, err := os.Open(f)
			if err != nil {
				return err
			}
			_, err = io.CopyBuffer(io.Discard, onlyReader{fh}, buf)
			fh.Close()
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["roofline.read_gb_per_s"] = float64(disk) / readS / 1e9

	loadS, err := timeN(func() error { return loadAllShards(st) })
	if err != nil {
		return err
	}
	m["shard.load_ns_per_edge"] = loadS * 1e9 / e
	m["shard.load_pct_of_read_ceiling"] = 100 * (float64(disk) / loadS / 1e9) / m["roofline.read_gb_per_s"]

	fileS, err := timeN(func() error {
		for _, f := range files {
			if _, err := os.ReadFile(f); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["shard.decode_ns_per_edge"] = (loadS - fileS) * 1e9 / e

	sweepS, err := timeN(func() error { return st.Sweep(func(u, v graph.VID) {}) })
	if err != nil {
		return err
	}
	m["shard.sweep_ns_per_edge"] = sweepS * 1e9 / e
	return nil
}

// onlyReader hides *os.File's ReadFrom/WriteTo so CopyBuffer really
// reads through buf.
type onlyReader struct{ io.Reader }

const deltaRounds = 3

// probeDeltas times the write path on a scratch copy of the store: one
// workload-sized batch, a load of every shard with that delta pending
// (the zip-merge cost is this minus shard.load_ns_per_edge), then the
// compaction that folds it; medians over deltaRounds rounds.
func probeDeltas(in *inputs, dir, scratch string, m map[string]float64) error {
	if err := copyDir(dir, scratch); err != nil {
		return err
	}
	st, err := shard.Open(scratch)
	if err != nil {
		return err
	}
	mir := newMirror(in.g, in.seed)
	var apply, load, compact []float64
	for round := 0; round < deltaRounds; round++ {
		ins, del, _ := mir.next()
		t0 := time.Now()
		if _, err := st.ApplyBatch(ins, del); err != nil {
			return err
		}
		apply = append(apply, time.Since(t0).Seconds())

		t0 = time.Now()
		if err := loadAllShards(st); err != nil {
			return err
		}
		load = append(load, time.Since(t0).Seconds())

		t0 = time.Now()
		if _, err := st.Compact(); err != nil {
			return err
		}
		compact = append(compact, time.Since(t0).Seconds())
	}
	m["shard.applybatch_ms"] = median(apply) * 1e3
	m["shard.load_delta_ns_per_edge"] = median(load) * 1e9 / float64(in.edges)
	m["shard.compact_ms"] = median(compact) * 1e3
	return nil
}

func copyDir(from, to string) error {
	if err := os.MkdirAll(to, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(from)
	if err != nil {
		return err
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// probeCore times the workload's timed query on the paper's in-memory
// engine over the same graph: the floor the out-of-core path is
// measured against.
func probeCore(in *inputs, m map[string]float64) {
	eng := core.NewEngine(in.g, core.Options{})
	s, _ := timeN(func() error { runClass(eng, in.w.timed, in.src); return nil })
	m["core.query_ms"] = s * 1e3
}

// probeMachinery times the fixed costs a sparse sweep pays per EdgeMap:
// an empty fork/join over 4 tasks per thread, a list -> bitmap -> list
// frontier round trip at 1 % density, and one no-op async read at
// depth 1.
func probeMachinery(vertices int, m map[string]float64) error {
	const calls = 1000
	pool := sched.NewPool(0)
	s, _ := timeN(func() error {
		for i := 0; i < calls; i++ {
			pool.ParallelTasks(4*pool.Threads(), func(task, worker int) {})
		}
		return nil
	})
	m["sched.forkjoin_us"] = s * 1e6 / calls

	var list []graph.VID
	for v := 0; v < vertices; v += 100 {
		list = append(list, graph.VID(v))
	}
	s, err := timeN(func() error {
		bm := frontier.FromList(vertices, list).Bitmap()
		if got := frontier.FromBitmap(vertices, bm).List(); len(got) != len(list) {
			return fmt.Errorf("frontier round trip lost vertices: %d of %d", len(got), len(list))
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["frontier.convert_ns_per_vertex"] = s * 1e9 / float64(vertices)

	rd := aio.New[int]([]int{1}, 1, nil)
	defer rd.Close()
	s, err = timeN(func() error {
		for i := 0; i < calls; i++ {
			if _, err := rd.Submit(0, func() (int, error) { return 0, nil }).Wait(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["aio.roundtrip_us"] = s * 1e6 / calls
	return nil
}

// probeMemory is a STREAM-style triad, a[i] = b[i] + s*c[i], over three
// arrays of the given size split across every core (the dense EdgeMap it
// is a ceiling for is parallel too). It counts 24 bytes moved per
// element, as STREAM does.
func probeMemory(bytesPerArray int, m map[string]float64) {
	n := bytesPerArray / 8
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range b {
		b[i], c[i] = 1, 2
	}
	threads := runtime.GOMAXPROCS(0)
	s, _ := timeN(func() error {
		var wg sync.WaitGroup
		for t := 0; t < threads; t++ {
			lo, hi := t*n/threads, (t+1)*n/threads
			wg.Add(1)
			go func() {
				defer wg.Done()
				a, b, c := a[lo:hi], b[lo:hi], c[lo:hi]
				for i := range a {
					a[i] = b[i] + 3*c[i]
				}
			}()
		}
		wg.Wait()
		return nil
	})
	m["roofline.mem_gb_per_s"] = 24 * float64(n) / s / 1e9
}

// cacheSizes describes the CPU caches the roofline is read against.
func cacheSizes() string {
	out := ""
	for i := 0; ; i++ {
		dir := fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/", i)
		level, err := os.ReadFile(dir + "level")
		if err != nil {
			break
		}
		typ, _ := os.ReadFile(dir + "type")
		size, _ := os.ReadFile(dir + "size")
		out += fmt.Sprintf("L%s %s %s; ", bytes.TrimSpace(level), bytes.TrimSpace(typ), bytes.TrimSpace(size))
	}
	if out == "" {
		return "unknown"
	}
	return out
}
