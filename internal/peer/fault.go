package peer

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// FaultOp names one Transport operation for fault-rule matching.
type FaultOp string

const (
	OpPutShard     FaultOp = "put-shard"
	OpGetShard     FaultOp = "get-shard"
	OpStatShard    FaultOp = "stat-shard"
	OpDeleteShard  FaultOp = "delete-shard"
	OpDeleteObject FaultOp = "delete-object"
	OpPutMeta      FaultOp = "put-meta"
	OpGetMeta      FaultOp = "get-meta"
	OpListMeta     FaultOp = "list-meta"
	OpPing         FaultOp = "ping"
)

// FaultRule injects one deterministic fault into matching transport
// calls — the wire analogue of faultfs.Rule. A rule matches when Op and
// KeyPrefix both match (empty = wildcard); among matching calls it fires
// on calls numbered [After, After+Count) in arrival order (Count 0 =
// every call from After on). Exactly one of Err / TornAfter / Delay is
// typically set, but they compose: Delay sleeps first, then Err
// short-circuits, then TornAfter arms a mid-stream cut.
type FaultRule struct {
	Op        FaultOp
	KeyPrefix string
	After     int
	Count     int
	// Err fails the call before it reaches the wrapped transport.
	Err error
	// Delay sleeps before the call proceeds — a slow peer, not a dead one.
	Delay time.Duration
	// TornAfter cuts a shard body after this many bytes: an upload's
	// source reader fails mid-stream (the peer must abort atomically), a
	// download's body fails mid-stream (the gateway must demote and
	// reconstruct). Only meaningful for put-shard / get-shard.
	TornAfter int64

	seen int
}

func (r *FaultRule) matches(op FaultOp, key string) bool {
	if r.Op != "" && r.Op != op {
		return false
	}
	if r.KeyPrefix != "" && !strings.HasPrefix(key, r.KeyPrefix) {
		return false
	}
	n := r.seen
	r.seen++
	if n < r.After {
		return false
	}
	return r.Count == 0 || n < r.After+r.Count
}

// FaultTransport wraps a Transport with deterministic fault injection so
// partition, slow-peer and torn-transfer scenarios replay identically
// under -race. Rules are evaluated in order; the first match fires.
// Partition() is a standing everything-fails switch layered on top of the
// rules, Heal() lifts it.
type FaultTransport struct {
	inner Transport

	mu          sync.Mutex
	rules       []*FaultRule
	partitioned bool
	calls       map[FaultOp]int
}

var (
	_ Transport = (*FaultTransport)(nil)
	_ Replacer  = (*FaultTransport)(nil)
)

// NewFaultTransport wraps inner.
func NewFaultTransport(inner Transport) *FaultTransport {
	return &FaultTransport{inner: inner, calls: make(map[FaultOp]int)}
}

// AddRule arms a fault rule. Rules persist until RemoveRules.
func (f *FaultTransport) AddRule(r FaultRule) {
	f.mu.Lock()
	defer f.mu.Unlock()
	rr := r
	f.rules = append(f.rules, &rr)
}

// RemoveRules clears all rules (the partition switch is separate).
func (f *FaultTransport) RemoveRules() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rules = nil
}

// Partition makes every operation fail with ErrUnavailable until Heal.
func (f *FaultTransport) Partition() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.partitioned = true
}

// Heal lifts a Partition.
func (f *FaultTransport) Heal() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.partitioned = false
}

// Calls reports how many times op was attempted (including faulted
// calls) — lets tests assert "no traffic during partition healed work".
func (f *FaultTransport) Calls(op FaultOp) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls[op]
}

// check runs rule matching for one call and returns (injected error,
// torn-cut byte count, delay). A zero torn value means no cut.
func (f *FaultTransport) check(op FaultOp, key string) (error, int64, time.Duration) {
	f.mu.Lock()
	f.calls[op]++
	if f.partitioned {
		f.mu.Unlock()
		return fmt.Errorf("%w: injected partition", ErrUnavailable), 0, 0
	}
	for _, r := range f.rules {
		if r.matches(op, key) {
			err, torn, delay := r.Err, r.TornAfter, r.Delay
			f.mu.Unlock()
			return err, torn, delay
		}
	}
	f.mu.Unlock()
	return nil, 0, 0
}

func (f *FaultTransport) gate(ctx context.Context, op FaultOp, key string) (int64, error) {
	err, torn, delay := f.check(op, key)
	if delay > 0 {
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-time.After(delay):
		}
	}
	return torn, err
}

// tornReader fails with ErrUnavailable after limit bytes.
type tornReader struct {
	r      io.Reader
	remain int64
}

func (t *tornReader) Read(p []byte) (int, error) {
	if t.remain <= 0 {
		return 0, fmt.Errorf("%w: injected torn transfer", ErrUnavailable)
	}
	if int64(len(p)) > t.remain {
		p = p[:t.remain]
	}
	n, err := t.r.Read(p)
	t.remain -= int64(n)
	if err == nil && t.remain <= 0 {
		err = fmt.Errorf("%w: injected torn transfer", ErrUnavailable)
	}
	return n, err
}

type tornBody struct {
	tornReader
	io.Closer
}

func (f *FaultTransport) PutShard(ctx context.Context, key string, gen uint64, idx int, size int64, body io.Reader) error {
	torn, err := f.gate(ctx, OpPutShard, key)
	if err != nil {
		return err
	}
	if torn > 0 {
		// The peer sees the source die mid-upload; its atomic-write
		// discipline must leave no partial shard behind.
		return f.inner.PutShard(ctx, key, gen, idx, size, &tornReader{r: body, remain: torn})
	}
	return f.inner.PutShard(ctx, key, gen, idx, size, body)
}

// ReplaceShard implements Replacer over an inner transport that does,
// sharing put-shard fault rules with PutShard: a rule on OpPutShard fires
// for repair uploads too.
func (f *FaultTransport) ReplaceShard(ctx context.Context, key string, gen uint64, idx int, size int64, body io.Reader) error {
	inner, ok := f.inner.(Replacer)
	if !ok {
		return fmt.Errorf("peer: wrapped transport cannot replace shards")
	}
	torn, err := f.gate(ctx, OpPutShard, key)
	if err != nil {
		return err
	}
	if torn > 0 {
		body = &tornReader{r: body, remain: torn}
	}
	return inner.ReplaceShard(ctx, key, gen, idx, size, body)
}

func (f *FaultTransport) GetShard(ctx context.Context, key string, gen uint64, idx int) (io.ReadCloser, int64, error) {
	torn, err := f.gate(ctx, OpGetShard, key)
	if err != nil {
		return nil, 0, err
	}
	rc, size, err := f.inner.GetShard(ctx, key, gen, idx)
	if err != nil {
		return nil, 0, err
	}
	if torn > 0 {
		return &tornBody{tornReader{r: rc, remain: torn}, rc}, size, nil
	}
	return rc, size, nil
}

// GetShardRange shares get-shard fault rules with GetShard: a rule on
// OpGetShard fires for both, so partition and torn-download scenarios
// cover ranged reads without separate plumbing. TornAfter counts bytes
// of the window, not of the whole shard.
func (f *FaultTransport) GetShardRange(ctx context.Context, key string, gen uint64, idx int, off, length int64) (io.ReadCloser, int64, error) {
	torn, err := f.gate(ctx, OpGetShard, key)
	if err != nil {
		return nil, 0, err
	}
	rc, size, err := f.inner.GetShardRange(ctx, key, gen, idx, off, length)
	if err != nil {
		return nil, 0, err
	}
	if torn > 0 {
		return &tornBody{tornReader{r: rc, remain: torn}, rc}, size, nil
	}
	return rc, size, nil
}

func (f *FaultTransport) StatShard(ctx context.Context, key string, gen uint64, idx int) (int64, error) {
	if _, err := f.gate(ctx, OpStatShard, key); err != nil {
		return 0, err
	}
	return f.inner.StatShard(ctx, key, gen, idx)
}

func (f *FaultTransport) DeleteShard(ctx context.Context, key string, gen uint64, idx int) error {
	if _, err := f.gate(ctx, OpDeleteShard, key); err != nil {
		return err
	}
	return f.inner.DeleteShard(ctx, key, gen, idx)
}

func (f *FaultTransport) DeleteObject(ctx context.Context, key string) error {
	if _, err := f.gate(ctx, OpDeleteObject, key); err != nil {
		return err
	}
	return f.inner.DeleteObject(ctx, key)
}

func (f *FaultTransport) PutMeta(ctx context.Context, key string, meta []byte) error {
	if _, err := f.gate(ctx, OpPutMeta, key); err != nil {
		return err
	}
	return f.inner.PutMeta(ctx, key, meta)
}

func (f *FaultTransport) GetMeta(ctx context.Context, key string) ([]byte, error) {
	if _, err := f.gate(ctx, OpGetMeta, key); err != nil {
		return nil, err
	}
	return f.inner.GetMeta(ctx, key)
}

func (f *FaultTransport) ListMeta(ctx context.Context) ([]string, error) {
	if _, err := f.gate(ctx, OpListMeta, ""); err != nil {
		return nil, err
	}
	return f.inner.ListMeta(ctx)
}

func (f *FaultTransport) Ping(ctx context.Context) error {
	if _, err := f.gate(ctx, OpPing, ""); err != nil {
		return err
	}
	return f.inner.Ping(ctx)
}
