package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// freeAddrs reserves n loopback ports and releases them for the daemons.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

// TestMultiProcessCluster builds the dsenode binary and runs a real
// three-OS-process DSE cluster over TCP — the full distributed deployment,
// exercised end to end.
func TestMultiProcessCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and spawns processes")
	}
	bin := filepath.Join(t.TempDir(), "dsenode")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("building dsenode: %v", err)
	}

	addrs := freeAddrs(t, 3)
	joined := strings.Join(addrs, ",")
	outputs := make([]string, 3)
	errs := make([]error, 3)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			cmd := exec.Command(bin,
				"-id", fmt.Sprint(i),
				"-addrs", joined,
				"-app", "knight", "-jobs", "8")
			out, err := cmd.CombinedOutput()
			outputs[i] = string(out)
			errs[i] = err
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		t.Fatal("multi-process cluster did not finish")
	}
	for i := 0; i < 3; i++ {
		if errs[i] != nil {
			t.Fatalf("node %d failed: %v\n%s", i, errs[i], outputs[i])
		}
		if !strings.Contains(outputs[i], "total 304 tours") {
			t.Fatalf("node %d output missing tour count:\n%s", i, outputs[i])
		}
		if !strings.Contains(outputs[i], "done") {
			t.Fatalf("node %d did not shut down cleanly:\n%s", i, outputs[i])
		}
	}
}

// TestMetricsEndpoint spawns a two-process cluster with the debug server
// enabled on node 0 and scrapes /metrics while the node lingers after the
// run: the live-observability smoke test. Node 0 is stopped once the scrape
// and pprof checks have passed, so its success is read from its done state
// and its output rather than from an exit status the linger would delay.
func TestMetricsEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and spawns processes")
	}
	bin := filepath.Join(t.TempDir(), "dsenode")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("building dsenode: %v", err)
	}

	addrs := freeAddrs(t, 3)
	joined := strings.Join(addrs[:2], ",")
	debugAddr := addrs[2]
	args := func(i int) []string {
		return []string{"-id", fmt.Sprint(i), "-addrs", joined, "-app", "knight", "-jobs", "4"}
	}
	var out0 syncBuffer
	node0 := exec.Command(bin, append(args(0), "-debug-addr", debugAddr, "-debug-linger", "15s")...)
	node0.Stdout, node0.Stderr = &out0, &out0
	if err := node0.Start(); err != nil {
		t.Fatal(err)
	}
	defer node0.Process.Kill()
	var out1 []byte
	var err1 error
	node1Done := make(chan struct{})
	go func() {
		defer close(node1Done)
		out1, err1 = exec.Command(bin, args(1)...).CombinedOutput()
	}()

	// Poll /metrics until the node reports the run done (the linger window
	// keeps the server up for us), then check the document.
	var doc struct {
		SchemaVersion int    `json:"schema_version"`
		Node          int    `json:"node"`
		NumPE         int    `json:"num_pe"`
		State         string `json:"state"`
		RTTUS         struct {
			Count uint64  `json:"count"`
			P95   float64 `json:"p95"`
		} `json:"rtt_us"`
		MsgsSent uint64 `json:"msgs_sent"`
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("metrics endpoint never reported done\nnode0:\n%s", out0.String())
		}
		resp, err := http.Get("http://" + debugAddr + "/metrics")
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&doc)
			resp.Body.Close()
			if err != nil {
				t.Fatalf("decoding /metrics: %v", err)
			}
			if doc.State == "done" {
				break
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	if doc.SchemaVersion != 1 || doc.Node != 0 || doc.NumPE != 2 {
		t.Fatalf("metrics identity wrong: %+v", doc)
	}
	if doc.RTTUS.Count == 0 || doc.RTTUS.P95 <= 0 {
		t.Fatalf("no live RTT samples in /metrics: %+v", doc)
	}
	if doc.MsgsSent == 0 {
		t.Fatalf("final totals missing from /metrics: %+v", doc)
	}

	// pprof must be mounted on the same server.
	resp, err := http.Get("http://" + debugAddr + "/debug/pprof/cmdline")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof endpoint: %v %v", resp, err)
	}
	resp.Body.Close()

	// Node 0 reports done to the debug server just before it prints its own
	// done line and starts to linger: wait for the line, then stop it.
	for !strings.Contains(out0.String(), "node 0: done") {
		if time.Now().After(deadline) {
			t.Fatalf("node 0 never printed its done line:\n%s", out0.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	node0.Process.Kill()
	node0.Wait()
	if !strings.Contains(out0.String(), "total 304 tours") {
		t.Fatalf("node 0 output missing tour count:\n%s", out0.String())
	}
	select {
	case <-node1Done:
	case <-time.After(90 * time.Second):
		t.Fatal("node 1 did not exit")
	}
	if err1 != nil {
		t.Fatalf("node 1 failed: %v\n%s", err1, out1)
	}
}

// syncBuffer is a bytes.Buffer a child process writes while the test reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
