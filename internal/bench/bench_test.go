package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestMeasureBasics(t *testing.T) {
	calls := 0
	m, err := Measure("test", 1000, 10*time.Millisecond, func() error {
		calls++
		time.Sleep(time.Millisecond)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Ops < 1 || calls != m.Ops+1 { // +1 warmup
		t.Errorf("ops=%d calls=%d", m.Ops, calls)
	}
	if m.GBps() <= 0 || m.PerOp() <= 0 {
		t.Error("throughput not positive")
	}
	if (Measurement{}).GBps() != 0 || (Measurement{}).PerOp() != 0 || (Measurement{}).CPUPerGB() != 0 {
		t.Error("zero measurement should yield zeros")
	}

	wantErr := false
	_, err = Measure("fail", 1, time.Millisecond, func() error {
		if wantErr {
			return errTest
		}
		wantErr = true
		return errTest
	})
	if err == nil {
		t.Error("warmup error not propagated")
	}
}

type testErr struct{}

func (testErr) Error() string { return "test error" }

var errTest = testErr{}

func TestLatenciesAndPercentile(t *testing.T) {
	lats, err := Latencies(20, func() error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(lats) != 20 {
		t.Fatalf("len=%d", len(lats))
	}
	for i := 1; i < len(lats); i++ {
		if lats[i-1] > lats[i] {
			t.Fatal("latencies not sorted")
		}
	}
	if Percentile(lats, 0) != lats[0] || Percentile(lats, 100) != lats[19] {
		t.Error("percentile endpoints wrong")
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile should be 0")
	}
	if _, err := Latencies(5, func() error { return errTest }); err == nil {
		t.Error("error not propagated")
	}
}

func TestRandomBytesDeterministic(t *testing.T) {
	a := RandomBytes(7, 100)
	b := RandomBytes(7, 100)
	c := RandomBytes(8, 100)
	if !bytes.Equal(a, b) {
		t.Error("same seed gave different bytes")
	}
	if bytes.Equal(a, c) {
		t.Error("different seeds gave same bytes")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("My Title", "col-a", "b")
	tb.Add("x", "yyyyy")
	tb.AddF(3, 1.23456)
	tb.Note("footnote %d", 42)
	var buf bytes.Buffer
	if err := tb.Fprint(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"## My Title", "col-a", "yyyyy", "1.235", "note: footnote 42", "-----"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestRegistry(t *testing.T) {
	ids := IDs()
	want := []string{"ablate", "accel", "block", "cluster", "cpu", "decode", "f2", "latency", "load-json", "loc", "lrc", "memcpy", "ones", "raid6", "reffect", "tune", "update", "workload", "wsweep"}
	if len(ids) != len(want) {
		t.Fatalf("IDs=%v want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("IDs=%v want %v", ids, want)
		}
	}
	if _, err := Lookup("f2"); err != nil {
		t.Error(err)
	}
	if _, err := Lookup("nope"); err == nil {
		t.Error("unknown id accepted")
	}
	if len(All()) != len(ids) {
		t.Error("All() length mismatch")
	}
	for _, e := range All() {
		if e.Title == "" || e.Paper == "" || e.Run == nil {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
}

// tinyConfig is small enough that every experiment finishes in well under a
// second, just proving each one runs end to end and emits a table.
func tinyConfig() Config {
	return Config{
		UnitSize:       4096,
		MinTime:        time.Millisecond,
		TuneTrials:     0,
		LatencySamples: 3,
		Seed:           1,
	}
}

func TestEveryExperimentRuns(t *testing.T) {
	cfg := tinyConfig()
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			if e.ID == "latency" && testing.Short() {
				t.Skip("latency sweep allocates large stripes")
			}
			var buf bytes.Buffer
			if err := e.Run(&buf, cfg); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if !strings.Contains(buf.String(), "##") {
				t.Errorf("%s produced no table:\n%s", e.ID, buf.String())
			}
		})
	}
}

func TestByteSize(t *testing.T) {
	for in, want := range map[int]string{
		512:     "512B",
		2048:    "2KB",
		1 << 20: "1MB",
		1000:    "1000B",
	} {
		if got := byteSize(in); got != want {
			t.Errorf("byteSize(%d)=%s want %s", in, got, want)
		}
	}
	if percentStr(-3) != "0.0%" || percentStr(84.25) != "84.2%" {
		t.Error("percentStr wrong")
	}
}

func TestConfigs(t *testing.T) {
	d := DefaultConfig()
	if d.UnitSize != 128<<10 || d.TuneTrials <= 0 {
		t.Error("default config wrong")
	}
	q := QuickConfig()
	if q.UnitSize >= d.UnitSize || q.MinTime >= d.MinTime {
		t.Error("quick config not quicker")
	}
}

func TestByteSizeApprox(t *testing.T) {
	if got := byteSize(36383001); got != "34.7MB" {
		t.Errorf("byteSize(36383001)=%s", got)
	}
	if got := byteSize(1500); got != "1.5KB" {
		t.Errorf("byteSize(1500)=%s", got)
	}
}
