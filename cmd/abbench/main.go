// Command abbench runs the benchmark of record (./benchmark) on two git
// revisions in one interleaved session, so that a claimed change is
// measured against its base on the same host at the same time. Each
// revision is checked out in its own git worktree under a scratch
// directory and its benchmark binary is built there, exactly as
// `go run ./benchmark` would build it. For every workload it then runs
//
//	benchmark --workload W --seed S --trace 0
//
// for seeds 1..N on both sides, alternating which side runs first, and
// one --trace 1 pass per side on seed 1. It writes both sides' reports
// in the benchmark's own report format (base.json and change.json, so
// `go run ./benchmark compare` reads them), prints compare's table, and
// then, per workload and end-to-end metric, the pairs each side won and
// the exact two-sided sign-test p-value of that split (10:0 gives
// 0.002; 8:2 gives 0.11, which is no evidence).
//
//	go run ./cmd/abbench -base 3fd836a -change HEAD
//	go run ./cmd/abbench -base HEAD -aa -workloads dense-resident
//
// -aa runs the base against a second worktree of itself, which shows
// what "no change" looks like on the day's host. The worktrees are
// removed on every exit path, an interrupt included; the reports and
// the runs' logs stay in -dir. Run it from inside the repository, with
// nothing else loading the machine.
//
// abbench exits 1 whenever compare does: on a regression, a differing
// exact per-query count, or a workload missing from the reports, which
// every session narrowed by -workloads has. Read compare's table for
// which.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"
)

// spec is the part of BENCHMARK.json the harness reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"end_to_end"`
}

// report, row and result mirror the benchmark's report format: what
// `benchmark -runs N -out` writes and `benchmark compare` reads. Each run
// lasts the benchmark's own default, BENCHMARK.json's run_seconds, so the
// report leaves the seconds field out.
type report struct {
	Claim   *string `json:"claim"`
	Scale   string  `json:"scale"`
	Machine string  `json:"machine"`
	Rows    []*row  `json:"workloads"`
}

type row struct {
	Name   string    `json:"name"`
	Why    string    `json:"why"`
	Runs   []*result `json:"runs"`
	Layers *result   `json:"layers"`
}

type result struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Samples   map[string]int     `json:"samples"`
}

// side is one revision under test: its worktree, its benchmark binary
// and the report its runs fill.
type side struct {
	label, rev string
	tree, bin  string
	rep        *report
}

// worktrees tracks the worktrees to remove, so that an interrupt can
// remove them as an ordinary return does.
type worktrees struct {
	mu    sync.Mutex
	paths []string
	cur   *exec.Cmd // the benchmark run in flight, stopped on an interrupt
}

func (w *worktrees) add(path string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.paths = append(w.paths, path)
}

func (w *worktrees) setCmd(c *exec.Cmd) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.cur = c
}

// removeAll stops the run in flight and removes every worktree.
func (w *worktrees) removeAll() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.cur != nil && w.cur.Process != nil {
		// The benchmark tears its daemons and scratch files down on
		// SIGTERM. bench's Wait reaps it; once it has, Signal fails.
		p := w.cur.Process
		_ = p.Signal(syscall.SIGTERM)
		for deadline := time.Now().Add(time.Minute); p.Signal(syscall.Signal(0)) == nil && time.Now().Before(deadline); {
			time.Sleep(50 * time.Millisecond)
		}
	}
	for _, p := range w.paths {
		if out, err := exec.Command("git", "worktree", "remove", "--force", p).CombinedOutput(); err != nil {
			logf("removing worktree %s: %v: %s", p, err, out)
		}
	}
	w.paths = nil
	_ = exec.Command("git", "worktree", "prune").Run()
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "abbench: "+format+"\n", args...)
}

func main() {
	base := flag.String("base", "HEAD~1", "base revision")
	change := flag.String("change", "HEAD", "changed revision (ignored with -aa)")
	aa := flag.Bool("aa", false, "run the base against a second worktree of itself")
	runs := flag.Int("runs", 10, "end-to-end runs per side and workload, on seeds 1..runs")
	only := flag.String("workloads", "", "comma-separated workloads (default: every workload of BENCHMARK.json)")
	dir := flag.String("dir", "", "directory for the worktrees, reports and logs (default: a new temporary directory)")
	flag.Parse()
	if flag.NArg() > 0 || *runs < 1 {
		flag.Usage()
		os.Exit(2)
	}
	if *aa {
		*change = *base
	}

	wt := &worktrees{}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		wt.removeAll()
		os.Exit(130)
	}()
	err := run(wt, *base, *change, *runs, *only, *dir)
	signal.Stop(sig)
	wt.removeAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "abbench:", err)
		os.Exit(1)
	}
}

func run(wt *worktrees, baseRev, changeRev string, runs int, only, dir string) error {
	if dir == "" {
		d, err := os.MkdirTemp("", "abbench-")
		if err != nil {
			return err
		}
		dir = d
	}
	dir, err := filepath.Abs(dir)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Join(dir, "logs"), 0o755); err != nil {
		return err
	}
	sides := []*side{{label: "base", rev: baseRev}, {label: "change", rev: changeRev}}
	for _, s := range sides {
		if err := s.checkout(wt, dir); err != nil {
			return err
		}
	}

	var sp spec
	data, err := os.ReadFile(filepath.Join(sides[0].tree, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, &sp); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	chosen := sp.Workloads
	if only != "" {
		chosen = nil
		for _, name := range strings.Split(only, ",") {
			found := false
			for _, w := range sp.Workloads {
				if w.Name == name {
					chosen, found = append(chosen, w), true
				}
			}
			if !found {
				return fmt.Errorf("unknown workload %q", name)
			}
		}
	}

	machine := fmt.Sprintf("%d cpus, GOMAXPROCS %d", runtime.NumCPU(), runtime.GOMAXPROCS(0))
	for _, s := range sides {
		s.rep = &report{Scale: "full", Machine: machine}
	}
	total, done := len(chosen)*2*(runs+1), 0
	for _, w := range chosen {
		for _, s := range sides {
			s.rep.Rows = append(s.rep.Rows, &row{Name: w.Name, Why: w.Why})
		}
		for seed := 1; seed <= runs+1; seed++ {
			trace := seed == runs+1
			order := sides
			if seed%2 == 0 {
				order = []*side{sides[1], sides[0]}
			}
			for _, s := range order {
				runSeed := seed
				if trace {
					runSeed = 1
				}
				res, err := s.bench(wt, dir, w.Name, runSeed, trace)
				if err != nil {
					return err
				}
				done++
				logf("[%d/%d] %s seed %d trace %v %s (%s): correct %v, failed %d/%d, query_p50_ms %.1f",
					done, total, w.Name, runSeed, trace, s.label, s.rev, res.Correct, res.Failed, res.Attempted, res.Metrics["query_p50_ms"])
				r := s.rep.Rows[len(s.rep.Rows)-1]
				if trace {
					r.Layers = res
				} else {
					r.Runs = append(r.Runs, res)
				}
			}
		}
	}

	var paths []string
	for _, s := range sides {
		data, err := json.MarshalIndent(s.rep, "", "  ")
		if err != nil {
			return err
		}
		p := filepath.Join(dir, s.label+".json")
		if err := os.WriteFile(p, append(data, '\n'), 0o644); err != nil {
			return err
		}
		paths = append(paths, p)
	}
	fmt.Printf("base %s, change %s: %d pairs per workload; reports %s and %s\n\n", baseRev, changeRev, runs, paths[0], paths[1])
	cmp := exec.Command(sides[0].bin, "compare", paths[0], paths[1])
	cmp.Stdout, cmp.Stderr = os.Stdout, os.Stderr
	// compare exits 1 on a regression or a differing exact count; its
	// table says which, and abbench exits non-zero with it once the
	// pairs are printed.
	cmpErr := cmp.Run()
	fmt.Println()
	printPairs(os.Stdout, sp, sides[0].rep, sides[1].rep)
	if cmpErr != nil {
		return fmt.Errorf("compare: %w", cmpErr)
	}
	return nil
}

// checkout adds the side's worktree under dir and builds its benchmark.
func (s *side) checkout(wt *worktrees, dir string) error {
	s.tree = filepath.Join(dir, s.label)
	if out, err := exec.Command("git", "worktree", "add", "--detach", s.tree, s.rev).CombinedOutput(); err != nil {
		return fmt.Errorf("git worktree add %s %s: %v: %s", s.tree, s.rev, err, out)
	}
	wt.add(s.tree)
	s.bin = filepath.Join(dir, "bin-"+s.label)
	build := exec.Command("go", "build", "-o", s.bin, "./benchmark")
	build.Dir = s.tree
	if out, err := build.CombinedOutput(); err != nil {
		return fmt.Errorf("building %s's benchmark: %v: %s", s.rev, err, out)
	}
	return nil
}

// bench runs one benchmark pass in the side's worktree and reads its
// result line, the last line of its standard output. Its standard error
// goes to a log under dir.
func (s *side) bench(wt *worktrees, dir, workload string, seed int, trace bool) (*result, error) {
	t := 0
	if trace {
		t = 1
	}
	logPath := filepath.Join(dir, "logs", fmt.Sprintf("%s-%s-seed%d-trace%d.log", s.label, workload, seed, t))
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logFile.Close()
	var stdout bytes.Buffer
	cmd := exec.Command(s.bin, "--workload", workload, "--seed", fmt.Sprint(seed), "--trace", fmt.Sprint(t))
	cmd.Dir, cmd.Stdout, cmd.Stderr = s.tree, &stdout, logFile
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	wt.setCmd(cmd)
	runErr := cmd.Wait()
	wt.setCmd(nil)
	res, err := parseLine(stdout.Bytes())
	if err != nil {
		return nil, fmt.Errorf("%s %s seed %d: %v (exit: %v; log %s)", s.label, workload, seed, err, runErr, logPath)
	}
	res.Workload, res.Seed = workload, uint64(seed)
	return res, nil
}

// parseLine reads the benchmark's result line — correct, attempted,
// failed and metrics as {value, unit} — into a report result, with the
// metrics flattened to their values.
func parseLine(out []byte) (*result, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	if last == "" {
		return nil, errors.New("no result line")
	}
	var line struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(last), &line); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	res := &result{Correct: line.Correct, Attempted: line.Attempted, Failed: line.Failed, Metrics: map[string]float64{}}
	for k, v := range line.Metrics {
		res.Metrics[k] = v.Value
	}
	return res, nil
}

// printPairs prints, per workload and end-to-end metric, how many
// same-seed pairs the change won, lost and tied, and the sign test's
// p-value of that split.
func printPairs(w *os.File, sp spec, a, b *report) {
	fmt.Fprintf(w, "%-16s %-14s %5s %5s %5s %8s\n", "workload", "metric", "won", "lost", "tied", "p")
	for i, ra := range a.Rows {
		rb := b.Rows[i]
		for _, m := range sp.EndToEnd {
			var won, lost, tied int
			for j := range min(len(ra.Runs), len(rb.Runs)) {
				x, y := ra.Runs[j].Metrics[m.Name], rb.Runs[j].Metrics[m.Name]
				if m.Better == "higher" {
					x, y = -x, -y
				}
				switch {
				case y < x:
					won++
				case y > x:
					lost++
				default:
					tied++
				}
			}
			fmt.Fprintf(w, "%-16s %-14s %5d %5d %5d %8.3g\n", ra.Name, m.Name, won, lost, tied, signTest(won, lost))
		}
	}
}

// signTest is the exact two-sided sign-test p-value of won against lost
// (ties dropped): twice the binomial(won+lost, 1/2) mass at or beyond
// the smaller count, capped at 1.
func signTest(won, lost int) float64 {
	n, k := won+lost, min(won, lost)
	var tail float64
	c := 1.0 // C(n, i)
	for i := 0; i <= k; i++ {
		tail += c
		c = c * float64(n-i) / float64(i+1)
	}
	return math.Min(1, 2*tail/math.Pow(2, float64(n)))
}
