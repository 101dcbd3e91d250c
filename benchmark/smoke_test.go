package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// lastLine parses the result line the contract puts at the end of stdout.
func lastLine(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	return res
}

// TestSmoke drives all four workloads end to end through the same code the
// gated run uses — untraced, then ladder + traced — on the tiny profile.
func TestSmoke(t *testing.T) {
	var out bytes.Buffer
	if code := run(options{workload: "all", seed: 3, seconds: 1, smoke: true}, &out); code != 0 {
		t.Fatalf("untraced smoke run exited %d\n%s", code, out.String())
	}
	res := lastLine(t, out.String())
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("untraced smoke: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	for _, w := range workloads {
		for _, def := range endToEndMetrics {
			v, ok := res.Metrics[w.name+"/"+def.name]
			if !ok || v.Unit != def.unit || v.Value <= 0 {
				t.Errorf("%s/%s = %+v (present %v), want a positive value in %s", w.name, def.name, v, ok, def.unit)
			}
		}
	}

	out.Reset()
	traceOut := filepath.Join(t.TempDir(), "trace.jsonl")
	if code := run(options{workload: "all", seed: 3, seconds: 1, smoke: true, trace: 1, traceOut: traceOut}, &out); code != 0 {
		t.Fatalf("traced smoke run exited %d\n%s", code, out.String())
	}
	res = lastLine(t, out.String())
	if !res.Correct {
		t.Fatalf("traced smoke not correct\n%s", out.String())
	}
	for _, w := range workloads {
		for _, def := range perLayerMetrics {
			if v, ok := res.Metrics[w.name+"/"+def.name]; !ok || v.Unit != def.unit {
				t.Errorf("%s/%s missing from the traced output", w.name, def.name)
			}
		}
		// Exact counts: six shard files per object write, one RPC set per cluster PUT.
		if w.name == "node_large" {
			if got := res.Metrics[w.name+"/fs.files_created_per_put"].Value; got != codeK+codeR {
				t.Errorf("fs.files_created_per_put = %v, want %d", got, codeK+codeR)
			}
		}
		if got := res.Metrics[w.name+"/peer.rpcs_per_put"].Value; got < codeK+codeR {
			t.Errorf("%s: peer.rpcs_per_put = %v, want at least one per shard", w.name, got)
		}
	}
	f, err := os.Open(traceOut)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	layers := map[string]int{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var line struct {
			Layer   string `json:"layer"`
			Counter string `json:"counter"`
			EndNS   int64  `json:"end_ns"`
			StartNS int64  `json:"start_ns"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("trace line does not parse: %v", err)
		}
		if line.Counter == "" && line.EndNS < line.StartNS {
			t.Fatalf("span ends before it starts: %s", sc.Text())
		}
		layers[line.Layer]++
	}
	for _, l := range []string{layerClient, layerHTTP, layerStore, layerGateway, layerFS, layerPeer, layerPeerAPI, layerLadder} {
		if layers[l] == 0 {
			t.Errorf("trace file has no %s spans", l)
		}
	}
	if ents, _ := os.ReadDir(scratchRoot()); len(ents) > 1 {
		t.Errorf("scratch not cleaned: %d entries left in %s", len(ents), scratchRoot())
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the tables the
// program prints from in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", doc.Paths)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why || len(w.Why) > 200 {
			t.Errorf("workload %d: %q differs from the program's %q (or its why does)", i, w.Name, workloads[i].name)
		}
	}
	if len(doc.EndToEnd) != len(endToEndMetrics) || len(doc.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("metric counts differ: %d/%d end-to-end, %d/%d per-layer",
			len(doc.EndToEnd), len(endToEndMetrics), len(doc.PerLayer), len(perLayerMetrics))
	}
	for i, m := range doc.EndToEnd {
		if d := endToEndMetrics[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, program has %+v", i, m, d)
		}
	}
	for i, m := range doc.PerLayer {
		if d := perLayerMetrics[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, program has %+v", i, m, d)
		}
	}
}
