package tuned

import (
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gemmec/internal/obs"
)

// TestRegistrySharesPerGeometry: one code and one pool per geometry,
// request counting on the serving accessor only.
func TestRegistrySharesPerGeometry(t *testing.T) {
	r := NewRegistry(Config{})
	c1, err := r.StreamCode(4, 2, 4096)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := r.StreamCode(4, 2, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Error("same geometry returned distinct codes")
	}
	p1, err := r.StreamPool(4, 2, 4096)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := r.StreamPool(4, 2, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("same geometry returned distinct pools")
	}
	other, err := r.StreamCode(3, 1, 512)
	if err != nil {
		t.Fatal(err)
	}
	if other == c1 {
		t.Error("distinct geometries share a code")
	}
	shapes := r.Shapes()
	if len(shapes) != 2 {
		t.Fatalf("Shapes() returned %d rows, want 2", len(shapes))
	}
	// Busiest first: (4,2,4096) was requested twice, (3,1,512) once;
	// Code() must not have counted.
	if shapes[0].K != 4 || shapes[0].Requests != 2 {
		t.Errorf("hot shape = k=%d requests=%d, want k=4 requests=2", shapes[0].K, shapes[0].Requests)
	}
	if _, err := r.Code(3, 1, 512); err != nil {
		t.Fatal(err)
	}
	if got := r.Shapes()[1].Requests; got != 1 {
		t.Errorf("Code() changed the request count to %d, want 1", got)
	}
}

// TestTunerTunesHottestShapeAndPersists drives the background loop end to
// end: traffic on one geometry, an always-idle scheduler, a tight tick —
// the tuner must retune it, bump the live generation, record throughput,
// and persist the schedule on Stop.
func TestTunerTunesHottestShapeAndPersists(t *testing.T) {
	cacheFile := filepath.Join(t.TempDir(), "tune.json")
	r := NewRegistry(Config{
		TuneCache: cacheFile,
		Trials:    4,
		MinIdle:   time.Nanosecond,
		Interval:  time.Millisecond,
		IdleFor:   func() time.Duration { return time.Hour },
		Logf:      t.Logf,
	})
	if _, err := r.StreamCode(4, 2, 4096); err != nil {
		t.Fatal(err)
	}
	tu := StartTuner(r)
	if tu == nil {
		t.Fatal("StartTuner returned nil with Trials > 0")
	}
	deadline := time.Now().Add(10 * time.Second)
	for tu.Runs() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("tuner never completed a retune")
		}
		time.Sleep(5 * time.Millisecond)
	}
	tu.Stop()
	tu.Stop() // idempotent

	st := tu.Stats()
	if st.Runs < 1 || st.Generations < 1 || st.Trials < 1 {
		t.Fatalf("stats after retune: %+v, want runs/generations/trials >= 1", st)
	}
	hot := st.Shapes[0]
	if hot.Generation < 1 {
		t.Errorf("hot shape generation = %d, want >= 1", hot.Generation)
	}
	if hot.PredictedGBps <= 0 || hot.MeasuredGBps <= 0 {
		t.Errorf("hot shape throughput %.3f/%.3f GB/s, want both > 0", hot.PredictedGBps, hot.MeasuredGBps)
	}
	if _, err := os.Stat(cacheFile); err != nil {
		t.Fatalf("tuning cache not persisted: %v", err)
	}
}

// TestTunerRespectsIdleGate: while the scheduler reports busy, the tuner
// only accumulates skipped ticks and never runs a trial.
func TestTunerRespectsIdleGate(t *testing.T) {
	var busy atomic.Bool
	busy.Store(true)
	r := NewRegistry(Config{
		Trials:   4,
		MinIdle:  time.Minute,
		Interval: time.Millisecond,
		IdleFor: func() time.Duration {
			if busy.Load() {
				return 0
			}
			return time.Hour
		},
	})
	if _, err := r.StreamCode(4, 2, 4096); err != nil {
		t.Fatal(err)
	}
	tu := StartTuner(r)
	defer tu.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for tu.SkippedBusy() < 3 {
		if time.Now().After(deadline) {
			t.Fatal("tuner never ticked")
		}
		time.Sleep(time.Millisecond)
	}
	if tu.Runs() != 0 {
		t.Fatalf("tuner ran %d retunes while the scheduler was busy", tu.Runs())
	}
	busy.Store(false)
	deadline = time.Now().Add(10 * time.Second)
	for tu.Runs() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("tuner never ran after the scheduler went idle")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAttachObsExportsShapeTable: the per-shape families land in the
// registry's exposition, including requests counted before attachment.
func TestAttachObsExportsShapeTable(t *testing.T) {
	r := NewRegistry(Config{})
	if _, err := r.StreamCode(4, 2, 4096); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	r.AttachObs(reg)
	if _, err := r.StreamCode(4, 2, 4096); err != nil { // counted post-attach
		t.Fatal(err)
	}
	if _, err := r.StreamCode(3, 1, 512); err != nil { // new shape post-attach
		t.Fatal(err)
	}
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	text := sb.String()
	if !strings.Contains(text, `gemmec_tuner_shape_requests_total{k="4",r="2",unit="4096"} 2`) {
		t.Errorf("pre-attach requests not folded in:\n%s", text)
	}
	if !strings.Contains(text, `gemmec_tuner_shape_requests_total{k="3",r="1",unit="512"} 1`) {
		t.Errorf("post-attach shape missing:\n%s", text)
	}
	for _, fam := range []string{"gemmec_tuner_shape_generation", "gemmec_tuner_shape_predicted_gbps", "gemmec_tuner_shape_measured_gbps"} {
		if !strings.Contains(text, fam) {
			t.Errorf("family %s missing from exposition", fam)
		}
	}
}
