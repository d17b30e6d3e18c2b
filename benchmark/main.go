// Command benchmark is the repository's benchmark of record: four
// workloads over the shipped gserve daemon, five end-to-end metrics
// measured against the real process with tracing off, and a per-layer
// pass that times the public seams from outside the engine. See
// README.md in this directory for the tables.
//
//	go run ./benchmark --workload dense-stream --seed 1 --seconds 12 --trace 0
//	go run ./benchmark                      # every workload, both passes, one report
//	go run ./benchmark compare a.json b.json
//
// With --workload the last line of standard output is one JSON object:
// correct, attempted, failed and the metrics of the chosen pass.
// Everything else goes to standard error. It must be run from the root
// of the checkout: it builds ./cmd/gserve there and keeps its scratch
// files under .bench_build/ and its trace files under benchmark/out/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 12

// childSet holds what must not outlive the process — the daemon children
// and the scratch directory of the run — so that a signal can release
// them as an ordinary return does.
type childSet struct {
	mu    sync.Mutex
	procs map[*gserveTarget]bool
	root  string
}

func (c *childSet) add(t *gserveTarget) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.procs == nil {
		c.procs = map[*gserveTarget]bool{}
	}
	c.procs[t] = true
}

func (c *childSet) remove(t *gserveTarget) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.procs, t)
}

func (c *childSet) setRoot(root string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.root = root
}

// cleanRoot removes the run's scratch directory.
func (c *childSet) cleanRoot() {
	c.mu.Lock()
	root := c.root
	c.root = ""
	c.mu.Unlock()
	if root != "" {
		if err := os.RemoveAll(root); err != nil {
			logf("removing %s: %v", root, err)
		}
	}
}

// abort kills and reaps every child and removes the scratch directory.
func (c *childSet) abort() {
	c.mu.Lock()
	var procs []*gserveTarget
	for t := range c.procs {
		procs = append(procs, t)
	}
	c.mu.Unlock()
	for _, t := range procs {
		t.kill()
	}
	c.cleanRoot()
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	name := flag.String("workload", "", "run this one workload and end with the result line (default: all four, both passes, as one report)")
	seed := flag.Uint64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", defaultSeconds, "measured seconds per run")
	trace := flag.Int("trace", 0, "with -workload: 0 = end-to-end metrics, 1 = per-layer metrics and a trace file")
	scale := flag.String("scale", "full", "full (drives the real gserve) or tiny (small graphs, in-process, seconds)")
	runs := flag.Int("runs", 1, "without -workload: end-to-end runs per workload, on seeds seed, seed+1, ...")
	out := flag.String("out", filepath.Join("benchmark", "out", "report.json"), "without -workload: where the report is written")
	flag.Parse()
	if flag.NArg() > 0 || (*scale != "full" && *scale != "tiny") || *seconds <= 0 || *runs < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	if _, err := os.Stat(filepath.Join("cmd", "gserve")); err != nil {
		fatal(fmt.Errorf("run from the root of the checkout: %w", err))
	}

	cfg := &runConfig{
		scale: *scale, seed: *seed, seconds: *seconds, trace: *trace == 1,
		buildDir: ".bench_build", outDir: filepath.Join("benchmark", "out"),
		children: &childSet{},
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		cfg.children.abort()
		os.Exit(130)
	}()

	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		res, err := runOne(cfg, w)
		if err != nil {
			fatal(err)
		}
		printResult(res, cfg.trace)
		if !res.Correct {
			os.Exit(1)
		}
		return
	}

	rep, err := runAll(cfg, *runs)
	if err != nil {
		fatal(err)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(*out), 0o755); err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Println(string(data))
	logf("report written to %s", *out)
	if !rep.correct() {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// printResult writes the result line the driver reads: exactly the keys
// correct, attempted, failed and metrics, every metric of the pass with
// its unit.
func printResult(res *result, trace bool) {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range defs {
		metrics[d.name] = value{res.Metrics[d.name], d.unit}
		logf("%-36s %14.6g %-10s (n=%d)", d.name, res.Metrics[d.name], d.unit, res.Samples[d.name])
	}
	line, err := json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// report is what a run over every workload writes, and what compare
// reads: per workload, the end-to-end runs (one per seed) and one
// per-layer pass.
type report struct {
	// Claim is always null: this benchmark measures; a change that
	// claims a gain says so in its own issue.
	Claim   *string          `json:"claim"`
	Scale   string           `json:"scale"`
	Seconds float64          `json:"seconds"`
	Machine string           `json:"machine"`
	Rows    []workloadReport `json:"workloads"`
}

type workloadReport struct {
	Name   string    `json:"name"`
	Why    string    `json:"why"`
	Runs   []*result `json:"runs"`
	Layers *result   `json:"layers"`
}

func (r *report) correct() bool {
	for _, row := range r.Rows {
		for _, res := range append(row.Runs, row.Layers) {
			if !res.Correct {
				return false
			}
		}
	}
	return true
}

// runAll runs the workloads one after another, never in parallel: runs
// end-to-end runs each on consecutive seeds, then the traced pass on the
// first seed.
func runAll(cfg *runConfig, runs int) (*report, error) {
	rep := &report{
		Scale: cfg.scale, Seconds: cfg.seconds,
		Machine: fmt.Sprintf("%d cpus, GOMAXPROCS %d; caches: %s", runtime.NumCPU(), runtime.GOMAXPROCS(0), cacheSizes()),
	}
	for _, w := range workloads {
		row := workloadReport{Name: w.name, Why: w.why}
		for i := 0; i <= runs; i++ {
			c := *cfg
			c.trace = i == runs
			if !c.trace {
				c.seed = cfg.seed + uint64(i)
			}
			res, err := runOne(&c, w)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
			if c.trace {
				row.Layers = res
			} else {
				row.Runs = append(row.Runs, res)
			}
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}
