// Package tuned is the daemon's per-geometry code registry: one compiled
// *gemmec.Code and one stripe-buffer pool per (k, r, unitSize) stripe
// shape, handed to every request through shardfile.Opts.Source. Sharing
// the code means the kernel is compiled once per geometry and the decoder
// cache outlives the request; sharing the pool is what makes steady-state
// requests allocation-free.
//
// Each code is built with the default schedule (core.DefaultParams), the
// one the benchmark ladder measures. Schedule search happens offline
// (cmd/ectune, gemmec.WithAutotune), never in the serving process.
package tuned

import (
	"sync"

	"gemmec"
)

// Config parameterizes the registry. It has no fields; it is kept so
// callers construct a registry the same way they always have.
type Config struct{}

// geometry keys the registry: one code per stripe shape.
type geometry struct {
	k, r, unit int
}

// entry is one geometry's shared state.
type entry struct {
	code *gemmec.Code
	pool *gemmec.StripePool
}

// Registry builds and shares per-geometry codes and stripe pools. It
// implements shardfile.CodeSource.
type Registry struct {
	mu      sync.Mutex
	entries map[geometry]*entry
}

// NewRegistry returns an empty registry. Codes are built lazily on first
// use of each geometry.
func NewRegistry(Config) *Registry {
	return &Registry{entries: map[geometry]*entry{}}
}

// entryFor returns (building if needed) the geometry's entry.
func (r *Registry) entryFor(k, rr, unit int) (*entry, error) {
	geo := geometry{k: k, r: rr, unit: unit}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[geo]; ok {
		return e, nil
	}
	code, err := gemmec.New(k, rr, gemmec.WithUnitSize(unit))
	if err != nil {
		return nil, err
	}
	pool, err := code.NewStreamPool()
	if err != nil {
		return nil, err
	}
	e := &entry{code: code, pool: pool}
	r.entries[geo] = e
	return e, nil
}

// StreamCode returns the shared code for the geometry.
func (r *Registry) StreamCode(k, rr, unit int) (*gemmec.Code, error) {
	e, err := r.entryFor(k, rr, unit)
	if err != nil {
		return nil, err
	}
	return e.code, nil
}

// StreamPool returns the shared stripe-buffer pool for the geometry.
func (r *Registry) StreamPool(k, rr, unit int) (*gemmec.StripePool, error) {
	e, err := r.entryFor(k, rr, unit)
	if err != nil {
		return nil, err
	}
	return e.pool, nil
}
