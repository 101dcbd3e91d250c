package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"gemmec/internal/server"
)

// build compiles ecserver into a temporary directory.
func build(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "ecserver")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestFlagsOfTheOtherModeAreRefused: a flag the chosen mode does not
// honour, set explicitly, stops ecserver with exit 2 and a message naming
// it — it is never silently ignored. Defaults (-write-quorum 1) trip
// nothing. The message must be the mode check's, not the flag package's
// "flag provided but not defined", which also exits 2 naming the flag.
func TestFlagsOfTheOtherModeAreRefused(t *testing.T) {
	bin := build(t)
	for _, args := range [][]string{
		{"-peers", "0=http://127.0.0.1:1", "-peer-id", "0", "-slab-threshold", "4096"},
		{"-root", t.TempDir(), "-write-quorum", "2"},
	} {
		out, err := exec.Command(bin, args...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("ecserver %v: err=%v, want exit 2\n%s", args, err, out)
		}
		if flag := args[len(args)-2]; !strings.Contains(string(out), flag) || !strings.Contains(string(out), "not honoured in") {
			t.Errorf("ecserver %v: message does not refuse %s for the mode:\n%s", args, flag, out)
		}
	}
}

// TestSingleNodeServesAndDrains starts a single-node daemon, reads its
// /healthz and its /statusz document, and stops it with SIGTERM: a clean
// drain exits 0.
func TestSingleNodeServesAndDrains(t *testing.T) {
	bin := build(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	var out strings.Builder
	cmd := exec.Command(bin, "-addr", addr, "-root", t.TempDir(), "-access-log=false")
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	// stop signals the daemon and returns how it exited; the output is
	// logged once it has.
	stop := func(sig syscall.Signal) error {
		cmd.Process.Signal(sig)
		select {
		case err := <-exited:
			t.Logf("ecserver output:\n%s", out.String())
			return err
		case <-time.After(20 * time.Second):
			cmd.Process.Kill()
			<-exited
			return fmt.Errorf("no exit within 20s of %v", sig)
		}
	}

	base := "http://" + addr
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			stop(syscall.SIGKILL)
			t.Fatalf("/healthz never answered 200 (last err %v)", err)
		}
	}
	resp, err := http.Get(base + "/statusz")
	if err != nil {
		stop(syscall.SIGKILL)
		t.Fatal(err)
	}
	var st server.Stats
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Errorf("/statusz is not a Stats document: %v", err)
	}
	if st.DataShards != 4 || st.ParityShards != 2 || st.NodeDirs != 6 || st.ClusterStats != nil {
		t.Errorf("/statusz = %+v, want k=4 r=2 nodes=6 and no cluster fields", st)
	}
	if err := stop(syscall.SIGTERM); err != nil {
		t.Fatalf("exit after SIGTERM: %v", err)
	}
	if !strings.Contains(out.String(), "ecserver: exiting") {
		t.Error("no exit line after the drain")
	}
}

// TestClusterMemberExportsPeerStoreMetrics starts a two-member cluster
// (k=1, r=1: one shard on each member), overwrites one object through
// member 0 and scrapes member 0's /metricsz: its shard store's counters
// are there, and the overwritten generation's shard waits in the pool.
func TestClusterMemberExportsPeerStoreMetrics(t *testing.T) {
	bin := build(t)
	var addrs []string
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, ln.Addr().String())
		ln.Close()
	}
	peers := fmt.Sprintf("0=http://%s,1=http://%s", addrs[0], addrs[1])
	for i, addr := range addrs {
		var out strings.Builder
		cmd := exec.Command(bin, "-addr", addr, "-root", t.TempDir(), "-peers", peers,
			"-peer-id", fmt.Sprint(i), "-cluster-secret", "s3", "-k", "1", "-r", "1",
			"-unit", "4096", "-scrub-interval", "1h", "-access-log=false")
		cmd.Stdout, cmd.Stderr = &out, &out
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			cmd.Process.Signal(syscall.SIGTERM)
			if err := cmd.Wait(); err != nil {
				t.Errorf("member exit after SIGTERM: %v\n%s", err, out.String())
			}
		})
	}
	for _, addr := range addrs {
		for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(20 * time.Millisecond) {
			resp, err := http.Get("http://" + addr + "/healthz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: /healthz never answered 200 (last err %v)", addr, err)
			}
		}
	}
	base := "http://" + addrs[0]
	for _, body := range []string{strings.Repeat("a", 10_000), strings.Repeat("b", 10_000)} {
		req, err := http.NewRequest(http.MethodPut, base+"/o/ckpt", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("PUT: %s", resp.Status)
		}
	}
	// The superseded generation is reclaimed after the 201.
	var metrics string
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		resp, err := http.Get(base + "/metricsz")
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		metrics = string(b)
		if strings.Contains(metrics, "\ngemmec_peerstore_pooled_files 1\n") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("member 0 never reported one pooled file:\n%s", metrics)
		}
	}
	for _, want := range []string{
		"\ngemmec_peerstore_shard_puts_total 2\n",
		"\ngemmec_peerstore_pooled_bytes ",
		"\ngemmec_peerstore_shard_bytes_in_total ",
		"\ngemmec_peerstore_shard_gets_total ",
		"\ngemmec_peerstore_shard_bytes_out_total ",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metricsz lacks %q", strings.TrimSpace(want))
		}
	}
}
