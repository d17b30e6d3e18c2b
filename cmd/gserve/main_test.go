package main

// Daemon smoke test: build the real binary, boot it on an ephemeral
// port with a preloaded store, run one query over HTTP, and check that
// SIGTERM shuts it down cleanly. This is the process-level counterpart
// of internal/serve's in-process tests — it exercises flag parsing,
// the bound-address announcement, and signal handling.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/shard"
)

func TestGserveSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots the daemon binary")
	}
	storeDir := t.TempDir()
	if _, err := shard.Create(storeDir, gen.TinySocial(), shard.WriteOptions{Partitions: 8}); err != nil {
		t.Fatal(err)
	}

	bin := filepath.Join(t.TempDir(), "gserve")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building gserve: %v\n%s", err, out)
	}

	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-store", "tiny="+storeDir)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The daemon prints "gserve: listening on <addr>" once connectable.
	var addr string
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "gserve: listening on "); ok {
			addr = rest
			break
		}
	}
	if addr == "" {
		t.Fatalf("daemon never announced its address: %v", sc.Err())
	}
	base := "http://" + addr

	body, _ := json.Marshal(map[string]any{"store": "tiny", "algo": "pagerank", "iters": 3})
	resp, err := http.Post(base+"/v1/queries", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("submitting query to daemon: %v", err)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(fmt.Sprintf("%s/v1/queries/%s?wait=1", base, sub.ID))
	if err != nil {
		t.Fatal(err)
	}
	var info struct {
		Status string `json:"status"`
		Error  string `json:"error"`
		Digest string `json:"digest"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if info.Status != "done" || info.Digest == "" {
		t.Fatalf("query finished %q (%s) with digest %q", info.Status, info.Error, info.Digest)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	exit := make(chan error, 1)
	go func() { exit <- cmd.Wait() }()
	select {
	case err := <-exit:
		if err != nil {
			t.Fatalf("daemon did not exit cleanly on SIGTERM: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon ignored SIGTERM")
	}
}

// TestGserveBadFlagsExitTwo pins the CLI contract for the budget and
// thread knobs: malformed values must be rejected at parse time with
// exit status 2 (flag-error convention), never survive into a booted
// daemon — a negative -cache-bytes used to boot silently on the default
// budget. The -bin-budget and -sweepmode spellings of the deleted
// scatter/gather sweep are unknown flags now: every old invocation of
// them is refused the same way instead of booting without them.
func TestGserveBadFlagsExitTwo(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the daemon binary")
	}
	bin := filepath.Join(t.TempDir(), "gserve")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building gserve: %v\n%s", err, out)
	}
	cases := []struct {
		name string
		args []string
	}{
		{"negative cache budget", []string{"-cache-bytes", "-5"}},
		{"negative threads", []string{"-threads", "-1"}},
		{"negative budget", []string{"-bin-budget", "-1"}},
		{"budget below one bin", []string{"-sweepmode", "scatter-gather", "-bin-budget", "100"}},
		{"budget without scatter-gather", []string{"-bin-budget", "8192"}},
		{"bogus sweep mode", []string{"-sweepmode", "bogus"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			args := append([]string{"-addr", "127.0.0.1:0"}, tc.args...)
			out, err := exec.Command(bin, args...).CombinedOutput()
			if err == nil {
				t.Fatalf("daemon accepted %v:\n%s", tc.args, out)
			}
			ee, ok := err.(*exec.ExitError)
			if !ok || ee.ExitCode() != 2 {
				t.Fatalf("want exit status 2 for %v, got %v\n%s", tc.args, err, out)
			}
		})
	}
}
