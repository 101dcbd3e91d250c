package bench

import (
	"fmt"
	"io"

	"gemmec/internal/core"
	"gemmec/internal/isal"
	"gemmec/internal/uezato"
)

func init() {
	register(Experiment{
		ID:    "f2",
		Paper: "Figure 2",
		Title: "Encoding throughput (GB/s): gemmec vs Uezato vs ISA-L, k in 8..10, r in 2..4, w=8",
		Run:   runFig2,
	})
	register(Experiment{
		ID:    "reffect",
		Paper: "§6.2 'Effect of parameter r'",
		Title: "gemmec speedup over the best baseline as r grows (paper: 1.4x at r=3, 1.75x at r=4)",
		Run:   runREffect,
	})
}

// fig2Point holds one (k, r) measurement across the three libraries.
type fig2Point struct {
	k, r                 int
	gemmec, uezato, isal Measurement
}

// newEngine builds the gemmec engine for an experiment configuration,
// tuning when the config asks for it.
func newEngine(k, r int, cfg Config) (*core.Engine, error) {
	return newEngineW(k, r, 8, cfg.UnitSize, cfg)
}

// newEngineW is newEngine with explicit word and unit sizes, for the sweeps
// that vary them.
func newEngineW(k, r, w, unitSize int, cfg Config) (*core.Engine, error) {
	return core.New(k, r, unitSize, core.Options{W: w, TuneTrials: cfg.TuneTrials})
}

// measureFig2Point measures the encode throughput of all three libraries on
// one (k, r) configuration, pinning every library to the same generator
// family so parities are identical.
func measureFig2Point(k, r int, cfg Config) (fig2Point, error) {
	pt := fig2Point{k: k, r: r}
	eng, err := newEngine(k, r, cfg)
	if err != nil {
		return pt, err
	}
	uz, err := uezato.New(k, r, 8) // paper-best 2 KB blocking by default
	if err != nil {
		return pt, err
	}
	is, err := isal.New(k, r)
	if err != nil {
		return pt, err
	}

	data := RandomBytes(cfg.Seed, k*cfg.UnitSize)
	parity := make([]byte, r*cfg.UnitSize)
	bytesPerOp := k * cfg.UnitSize

	// Interleaved min-based measurement so scheduler drift on shared
	// machines hits all three libraries equally within a point.
	ms, err := Compare(3*cfg.MinTime, []Alt{
		{Name: "gemmec", Bytes: bytesPerOp, F: func() error {
			return eng.Encode(data, parity)
		}},
		{Name: "uezato", Bytes: bytesPerOp, F: func() error {
			return uz.EncodeStripe(data, parity, cfg.UnitSize)
		}},
		{Name: "isal", Bytes: bytesPerOp, F: func() error {
			return is.EncodeStripe(data, parity, cfg.UnitSize)
		}},
	})
	if err != nil {
		return pt, err
	}
	pt.gemmec, pt.uezato, pt.isal = ms[0], ms[1], ms[2]
	return pt, nil
}

func fig2Sweep(cfg Config) ([]fig2Point, error) {
	var pts []fig2Point
	for _, k := range []int{8, 9, 10} {
		for _, r := range []int{2, 3, 4} {
			pt, err := measureFig2Point(k, r, cfg)
			if err != nil {
				return nil, fmt.Errorf("k=%d r=%d: %w", k, r, err)
			}
			pts = append(pts, pt)
		}
	}
	return pts, nil
}

func bestBaseline(pt fig2Point) float64 {
	u, i := pt.uezato.GBps(), pt.isal.GBps()
	if u > i {
		return u
	}
	return i
}

func runFig2(w io.Writer, cfg Config) error {
	pts, err := fig2Sweep(cfg)
	if err != nil {
		return err
	}
	t := NewTable("Figure 2 — encoding throughput (GB/s), 128 KB units unless configured otherwise",
		"k", "r", "gemmec", "uezato", "isa-l", "speedup-vs-best")
	maxSpeed := 0.0
	for _, pt := range pts {
		sp := pt.gemmec.GBps() / bestBaseline(pt)
		if sp > maxSpeed {
			maxSpeed = sp
		}
		t.AddF(pt.k, pt.r, pt.gemmec.GBps(), pt.uezato.GBps(), pt.isal.GBps(), sp)
	}
	t.Note("unit size %d bytes; tune trials %d; paper reports up to 1.75x over the best custom library", cfg.UnitSize, cfg.TuneTrials)
	t.Note("max speedup observed: %.2fx", maxSpeed)
	return t.Fprint(w)
}

func runREffect(w io.Writer, cfg Config) error {
	// Hold k = 10, sweep r; report per-r mean speedup, which the paper
	// observes to grow with r.
	t := NewTable("Effect of parameter r (k=10): throughput decreases with r, gemmec's edge grows",
		"r", "gemmec GB/s", "best-baseline GB/s", "speedup")
	prev := -1.0
	for _, r := range []int{2, 3, 4} {
		pt, err := measureFig2Point(10, r, cfg)
		if err != nil {
			return err
		}
		sp := pt.gemmec.GBps() / bestBaseline(pt)
		t.AddF(r, pt.gemmec.GBps(), bestBaseline(pt), sp)
		if prev > 0 && pt.gemmec.GBps() > prev*1.05 {
			t.Note("WARNING: throughput increased from r=%d to r=%d; paper expects monotone decrease", r-1, r)
		}
		prev = pt.gemmec.GBps()
	}
	return t.Fprint(w)
}
