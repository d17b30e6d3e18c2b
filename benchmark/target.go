package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/api"
	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/shard"
)

const storeName = "w"

// reply is one finished query. wallMS is the server-side run time the
// daemon reports; stats is the session's counters, which only the
// in-process target can see.
type reply struct {
	digest string
	wallMS float64
	stats  *shard.Stats
}

type batchReply struct {
	inserted, deleted, generation int64
}

// cacheCounters is the part of the shared-cache snapshot the benchmark
// reports.
type cacheCounters struct {
	Budget, PeakBytes, Evictions, Rejected int64
}

// target is the system under test as the load generator sees it: the
// real gserve process over loopback HTTP, or a serve.Server in this
// process (the traced replays and -scale tiny).
type target interface {
	query(class string, src graph.VID) (reply, error)
	update(ins, del []graph.Edge) (batchReply, error)
	compact() error
	cache() (cacheCounters, error)
	peakRSSMiB() (float64, error)
	close()
}

// statser is how the benchmark reads a session's counters without
// naming the engine type.
type statser interface{ Stats() shard.Stats }

// ---- in-process ----------------------------------------------------

type inprocTarget struct {
	srv *serve.Server
	tr  *tracer // nil = untraced
}

func openInproc(dir string, budget int64, tr *tracer) (*inprocTarget, error) {
	srv := serve.New(serve.Config{CacheBytes: budget})
	if err := srv.OpenStore(storeName, dir); err != nil {
		return nil, err
	}
	return &inprocTarget{srv: srv, tr: tr}, nil
}

func (t *inprocTarget) query(class string, src graph.VID) (reply, error) {
	sess, err := t.srv.Session(storeName)
	if err != nil {
		return reply{}, err
	}
	st, ok := sess.(statser)
	if !ok {
		return reply{}, fmt.Errorf("session %T exposes no Stats()", sess)
	}
	var sys api.System = sess
	var q *tracedSystem
	if t.tr != nil {
		q = t.tr.begin(sess, st, class)
		sys = q
	}
	t0 := time.Now()
	_, digest := runClass(sys, class, src)
	wall := time.Since(t0)
	stats := st.Stats()
	if q != nil {
		q.end(stats)
	}
	return reply{digest: digest, wallMS: ms(wall), stats: &stats}, nil
}

func (t *inprocTarget) update(ins, del []graph.Edge) (batchReply, error) {
	res, err := t.srv.ApplyUpdates(storeName, ins, del)
	if err != nil {
		return batchReply{}, err
	}
	return batchReply{res.Inserted, res.Deleted, res.Generation}, nil
}

func (t *inprocTarget) compact() error {
	_, err := t.srv.CompactStore(storeName)
	return err
}

func (t *inprocTarget) cache() (cacheCounters, error) {
	c := t.srv.Stats().Cache
	return cacheCounters{c.Budget, c.PeakBytes, c.Evictions, c.Rejected}, nil
}

func (t *inprocTarget) peakRSSMiB() (float64, error) { return vmHWM(os.Getpid()) }

func (t *inprocTarget) close() { _ = t.srv.CloseStore(storeName) }

// ---- the real daemon -----------------------------------------------

// buildGserve compiles cmd/gserve from the checkout the benchmark runs
// in; the binary outlives the run so the next one only relinks.
func buildGserve(bin string) error {
	out, err := exec.Command("go", "build", "-o", bin, "./cmd/gserve").CombinedOutput()
	if err != nil {
		return fmt.Errorf("go build ./cmd/gserve: %v\n%s", err, out)
	}
	return nil
}

type gserveTarget struct {
	cs     *childSet
	cmd    *exec.Cmd
	base   string
	client *http.Client
	waited chan struct{} // closed once cmd.Wait has returned
}

// startGserve execs the daemon with the store preloaded and returns
// once it has printed its listening line, which is when the store is
// hosted and the port connectable.
func startGserve(cs *childSet, bin, dir string, budget int64, clients int) (*gserveTarget, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0",
		"-store", storeName+"="+dir, "-cache-bytes", strconv.FormatInt(budget, 10))
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	t := &gserveTarget{
		cs:     cs,
		cmd:    cmd,
		waited: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}},
	}
	cs.add(t)

	addr := make(chan string, 1)
	go func() {
		// Reads the pipe to EOF (the daemon keeps printing), then
		// reaps: Wait must not run before the pipe is drained.
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "gserve: listening on "); ok {
				addr <- rest
			}
		}
		close(addr)
		_ = cmd.Wait() // the exit status of a daemon we signal is not a result
		close(t.waited)
	}()
	a, ok := <-addr
	if !ok {
		t.close()
		return nil, fmt.Errorf("gserve exited before listening")
	}
	t.base = "http://" + a
	return t, nil
}

// close stops the daemon and waits until it has been reaped: SIGTERM
// first (its clean shutdown), SIGKILL if that takes too long.
func (t *gserveTarget) close() {
	_ = t.cmd.Process.Signal(syscall.SIGTERM) // fails only if already gone
	select {
	case <-t.waited:
	case <-time.After(5 * time.Second):
		t.kill()
	}
	t.client.CloseIdleConnections()
	t.cs.remove(t)
}

func (t *gserveTarget) kill() {
	_ = t.cmd.Process.Kill()
	<-t.waited
}

// call does one JSON round trip; a non-2xx status is an error carrying
// the daemon's envelope.
func (t *gserveTarget) call(method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, t.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

func (t *gserveTarget) query(class string, src graph.VID) (reply, error) {
	spec := map[string]any{"store": storeName, "algo": class}
	switch class {
	case classPR:
		spec["iters"] = prIters
	case classBFS:
		spec["src"] = src
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := t.call("POST", "/v1/queries", spec, &sub); err != nil {
		return reply{}, err
	}
	var info struct {
		Status string  `json:"status"`
		Error  string  `json:"error"`
		Digest string  `json:"digest"`
		WallMS float64 `json:"wall_ms"`
	}
	if err := t.call("GET", "/v1/queries/"+sub.ID+"?wait=1", nil, &info); err != nil {
		return reply{}, err
	}
	if info.Status != "done" {
		return reply{}, fmt.Errorf("query %s %s: %s", sub.ID, info.Status, info.Error)
	}
	return reply{digest: info.Digest, wallMS: info.WallMS}, nil
}

type wireEdge struct {
	Src uint32 `json:"src"`
	Dst uint32 `json:"dst"`
}

func wire(es []graph.Edge) []wireEdge {
	out := make([]wireEdge, len(es))
	for i, e := range es {
		out[i] = wireEdge{uint32(e.Src), uint32(e.Dst)}
	}
	return out
}

func (t *gserveTarget) update(ins, del []graph.Edge) (batchReply, error) {
	var res struct {
		Generation int64 `json:"generation"`
		Inserted   int64 `json:"inserted"`
		Deleted    int64 `json:"deleted"`
	}
	body := map[string]any{"insert": wire(ins), "delete": wire(del)}
	if err := t.call("POST", "/v1/stores/"+storeName+"/updates", body, &res); err != nil {
		return batchReply{}, err
	}
	return batchReply{res.Inserted, res.Deleted, res.Generation}, nil
}

func (t *gserveTarget) compact() error {
	return t.call("POST", "/v1/stores/"+storeName+"/compact", nil, nil)
}

func (t *gserveTarget) cache() (cacheCounters, error) {
	var st struct {
		Cache cacheCounters `json:"cache"`
	}
	err := t.call("GET", "/v1/stats", nil, &st)
	return st.Cache, err
}

func (t *gserveTarget) peakRSSMiB() (float64, error) { return vmHWM(t.cmd.Process.Pid) }

// vmHWM reads a process's peak resident set from /proc, in MiB.
func vmHWM(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM of %d: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line for pid %d", pid)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
