package bench

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// Config controls experiment scale. Paper settings are the default; Quick
// shrinks units and measurement windows for CI-speed smoke runs.
type Config struct {
	// UnitSize in bytes (paper: 128 KiB).
	UnitSize int
	// MinTime is the wall-clock budget of each single measurement.
	MinTime time.Duration
	// TuneTrials > 0 autotunes the gemmec engine per configuration (the
	// paper uses 20 000 Ansor trials; tens of trials suffice for this
	// search space). 0 uses the pretuned default schedule.
	TuneTrials int
	// LatencySamples for the E-LAT distribution.
	LatencySamples int
	// Seed for workload data.
	Seed int64
	// JSONPath, when non-empty, makes the JSON-emitting experiment
	// (load-json) also write its results to this file.
	JSONPath string
}

// DefaultConfig mirrors the paper's evaluation scale.
func DefaultConfig() Config {
	return Config{
		UnitSize:       128 << 10,
		MinTime:        300 * time.Millisecond,
		TuneTrials:     40,
		LatencySamples: 200,
		Seed:           1,
	}
}

// QuickConfig is a fast smoke-scale configuration.
func QuickConfig() Config {
	return Config{
		UnitSize:       32 << 10,
		MinTime:        30 * time.Millisecond,
		TuneTrials:     0,
		LatencySamples: 50,
		Seed:           1,
	}
}

// Experiment regenerates one table or figure of the paper.
type Experiment struct {
	// ID matches the per-experiment index of DESIGN.md (f2, memcpy, ...).
	ID string
	// Paper cites the figure/claim being reproduced.
	Paper string
	// Title is the human-readable headline.
	Title string
	// Run executes the experiment, writing tables to w.
	Run func(w io.Writer, cfg Config) error
}

var registry = map[string]Experiment{}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("bench: duplicate experiment id " + e.ID)
	}
	registry[e.ID] = e
}

// Lookup returns the experiment with the given ID.
func Lookup(id string) (Experiment, error) {
	e, ok := registry[id]
	if !ok {
		return Experiment{}, fmt.Errorf("bench: unknown experiment %q (use one of %v)", id, IDs())
	}
	return e, nil
}

// IDs returns all experiment IDs, sorted.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// All returns all experiments sorted by ID.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, id := range IDs() {
		out = append(out, registry[id])
	}
	return out
}
