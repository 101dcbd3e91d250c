// Package stripe recycles the contiguous stripe buffers of the streaming
// pipeline: one allocation of k fixed-size units per buffer (k here is
// however many units a buffer holds — the pipeline's hold k+r), handed out
// and taken back by a Pool so steady-state streaming allocates nothing.
package stripe

import (
	"fmt"
	"sync"
)

// Buffer is one contiguous allocation of k units of unitSize bytes.
type Buffer struct {
	k        int
	unitSize int
	buf      []byte
}

// NewBuffer allocates a stripe buffer for k units of unitSize bytes.
func NewBuffer(k, unitSize int) (*Buffer, error) {
	if k <= 0 || unitSize <= 0 {
		return nil, fmt.Errorf("stripe: invalid geometry k=%d unit=%d", k, unitSize)
	}
	return &Buffer{k: k, unitSize: unitSize, buf: make([]byte, k*unitSize)}, nil
}

// Raw returns the whole backing allocation. Its owner fills it directly
// (the streaming pipeline reads stripes straight off the wire into it)
// and is responsible for knowing which bytes are valid.
func (b *Buffer) Raw() []byte { return b.buf }

// Pool recycles stripe buffers across stripes, as a long-running encoder
// would to avoid allocator pressure.
type Pool struct {
	k, unitSize int
	mu          sync.Mutex
	free        []*Buffer
	allocated   int
}

// NewPool builds a pool producing k x unitSize buffers.
func NewPool(k, unitSize int) (*Pool, error) {
	if k <= 0 || unitSize <= 0 {
		return nil, fmt.Errorf("stripe: invalid pool geometry k=%d unit=%d", k, unitSize)
	}
	return &Pool{k: k, unitSize: unitSize}, nil
}

// K returns the number of units in each buffer the pool produces.
func (p *Pool) K() int { return p.k }

// UnitSize returns the unit size of the pool's buffers in bytes.
func (p *Pool) UnitSize() int { return p.unitSize }

// Get returns a buffer, reusing a released one when available. A reused
// buffer holds whatever its last user left in it.
func (p *Pool) Get() (*Buffer, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		b := p.free[n-1]
		p.free = p.free[:n-1]
		return b, nil
	}
	p.allocated++
	return NewBuffer(p.k, p.unitSize)
}

// Put releases a buffer back to the pool. Buffers of foreign geometry are
// rejected so a mixed-up caller fails loudly instead of corrupting stripes.
func (p *Pool) Put(b *Buffer) error {
	if b.k != p.k || b.unitSize != p.unitSize {
		return fmt.Errorf("stripe: buffer %dx%d returned to %dx%d pool", b.k, b.unitSize, p.k, p.unitSize)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.free = append(p.free, b)
	return nil
}

// Allocated returns how many distinct buffers the pool has created.
func (p *Pool) Allocated() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.allocated
}
