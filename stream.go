package gemmec

import (
	"context"
	"fmt"
	"io"

	"gemmec/internal/pipeline"
	"gemmec/internal/stripe"
)

// Streaming interface: encode an arbitrary-length stream into k+r shard
// streams and read it back, reconstructing from parity when data shard
// streams are missing. Stripes flow through one loop (internal/pipeline):
// a bounded ring of pooled stripe buffers is filled by a reader stage,
// encoded (or reconstructed) by the kernel stage, and drained by an
// in-order writer. Handed a Scheduler (WithStreamScheduler) the kernel
// stage runs on that shared pool and the stages overlap, so the compiled
// kernel (§5's integration argument) is never idle behind serial I/O;
// without one the call runs inline on the caller's goroutine. Shard
// output is byte-identical either way: the writer drains stripes in
// sequence order — or, when every shard writer is a UnitWriter, the
// kernel stage writes each unit at its stripe as soon as it is coded.

// StreamStats reports what one stream call did and where it waited; see
// the field docs for how to read the stall times. Request it with
// WithStreamStats. Demoted lists the shards DecodeStream stopped trusting
// mid-stream (see WithStreamVerifier).
type StreamStats = pipeline.Stats

// UnitWriter is a shard writer that takes each unit at its stripe's place
// (a file written with pwrite, say); see EncodeStream. WriteUnit is called
// concurrently, in any stripe order, and must not retain unit.
type UnitWriter = pipeline.UnitWriter

// UnitVerifier checks one shard unit as the decode reader gathers it; see
// WithStreamVerifier. Returning a non-nil error demotes the shard to
// erased from that stripe on.
type UnitVerifier = pipeline.UnitVerifier

// streamConfig collects StreamOption state.
type streamConfig struct {
	sched  *Scheduler
	pool   *StripePool
	stats  *StreamStats
	verify UnitVerifier
	ctx    context.Context
}

var errNilScheduler = fmt.Errorf("gemmec: stream scheduler is nil")

// StreamOption configures EncodeStream and DecodeStream. The zero-option
// call form uses the defaults documented on each option.
type StreamOption func(*streamConfig) error

// WithStreamPool supplies the stripe-buffer pool the pipeline draws its
// ring from. The pool must come from NewStreamPool (geometry (k+r) x
// UnitSize). Sharing one pool across repeated or concurrent stream calls
// on the same code makes steady-state streaming allocation-free. By
// default each call uses a private pool.
func WithStreamPool(p *StripePool) StreamOption {
	return func(c *streamConfig) error {
		if p == nil {
			return fmt.Errorf("gemmec: stream pool is nil")
		}
		c.pool = p
		return nil
	}
}

// WithStreamStats records the call's pipeline statistics into *dst before
// returning (on success and on error alike).
func WithStreamStats(dst *StreamStats) StreamOption {
	return func(c *streamConfig) error {
		if dst == nil {
			return fmt.Errorf("gemmec: stream stats destination is nil")
		}
		c.stats = dst
		return nil
	}
}

// WithStreamVerifier makes DecodeStream verify every shard unit against v
// as the reader gathers it — integrity checking folded into the single
// decode pass, instead of a separate whole-shard hashing pass up front. A
// unit that fails is not served: its shard is demoted to erased from that
// stripe on and reconstructed around for the rest of the stream (the
// stream only fails, wrapping ErrShardDemoted and ErrTooFewShards, when
// fewer than k trusted shards remain). Demotions are reported in
// StreamStats.Demoted. EncodeStream ignores the option.
func WithStreamVerifier(v UnitVerifier) StreamOption {
	return func(c *streamConfig) error {
		if v == nil {
			return fmt.Errorf("gemmec: stream verifier is nil")
		}
		c.verify = v
		return nil
	}
}

// WithStreamContext cancels the stream when ctx does. The pipeline
// observes the context between stripes: a canceled encode stops reading
// and writing, a canceled decode stops reconstructing, all stage
// goroutines return, and the call fails with an error wrapping
// context.Cause(ctx) (so errors.Is against context.Canceled or
// context.DeadlineExceeded works). This is how a server threads a
// request's lifetime — client disconnect, per-request deadline, drain —
// down into the coding engine instead of letting abandoned streams run to
// completion. The default is context.Background(): never canceled.
func WithStreamContext(ctx context.Context) StreamOption {
	return func(c *streamConfig) error {
		if ctx == nil {
			return fmt.Errorf("gemmec: stream context is nil")
		}
		c.ctx = ctx
		return nil
	}
}

// NewStreamPool returns a stripe-buffer pool sized for this code's
// streaming pipeline: each buffer holds a full stripe, the k data units
// followed by the r parity units. Pass it to WithStreamPool.
func (c *Code) NewStreamPool() (*StripePool, error) {
	return stripe.NewPool(c.K()+c.R(), c.UnitSize())
}

func (c *Code) streamConfig(opts []StreamOption) (streamConfig, error) {
	cfg := streamConfig{}
	for _, o := range opts {
		if err := o(&cfg); err != nil {
			return cfg, err
		}
	}
	return cfg, nil
}

func (cfg streamConfig) pipeline() pipeline.Config {
	pc := pipeline.Config{Pool: cfg.pool, Verify: cfg.verify, Ctx: cfg.ctx}
	if cfg.sched != nil {
		pc.Sched = cfg.sched.s
	}
	return pc
}

// EncodeStream reads src until EOF, erasure-codes it stripe by stripe, and
// writes unit i of every stripe to shards[i]. shards must hold exactly k+r
// writers, none nil. The final stripe is zero-padded; callers must record
// the true length (the returned byte count) to trim on decode.
//
// With no options the call runs inline: every stripe is read, encoded and
// written on the caller's goroutine. WithStreamScheduler runs the kernel
// on a shared worker pool and overlaps it with the I/O on either side;
// shard output is byte-identical to the inline path. Share ring buffers
// across calls with WithStreamPool, bound the call with WithStreamContext,
// and observe it with WithStreamStats.
//
// Shard writers are written in stripe order, one stripe at a time, by one
// goroutine — unless every one of them is a UnitWriter. Then the kernel
// task that coded stripe s calls WriteUnit(s, unit) on each shard — on
// the scheduler's workers, in any stripe order, or on the caller's
// goroutine when the call runs inline — and nothing is written in order;
// the shard contents are the same. The write time then lands in
// StreamStats.EncodeStall, and WriteStall is close to zero. A plain
// *os.File is written in order: it has no WriteUnit, and one opened with
// O_APPEND or positioned past a header could not honor a stripe's offset.
func (c *Code) EncodeStream(src io.Reader, shards []io.Writer, opts ...StreamOption) (int64, error) {
	k, r := c.K(), c.R()
	if len(shards) != k+r {
		return 0, fmt.Errorf("%w: have %d writers, want k+r=%d", ErrShardStreams, len(shards), k+r)
	}
	for i, w := range shards {
		if w == nil {
			return 0, fmt.Errorf("%w: writer %d is nil", ErrShardStreams, i)
		}
	}
	cfg, err := c.streamConfig(opts)
	if err != nil {
		return 0, err
	}
	n, st, err := pipeline.Encode(c, src, shards, cfg.pipeline())
	if cfg.stats != nil {
		*cfg.stats = st
	}
	return n, err
}

// DecodeStream reads shard streams and writes the original data to dst,
// stopping after size bytes (the length EncodeStream returned). shards must
// hold k+r readers; nil entries mark lost shards. At least k readers must
// be non-nil. Lost data shards are reconstructed stripe by stripe from the
// surviving streams.
//
// A shard stream that fails mid-decode — read error, truncation, or (with
// WithStreamVerifier) a unit checksum mismatch — is demoted to erased from
// that stripe on and reconstructed around, so the decode survives anything
// an up-front verification pass would have caught, without the extra pass
// or the whole-object latency barrier. Demotions are reported in
// StreamStats.Demoted; the stream fails (wrapping ErrShardDemoted and
// ErrTooFewShards) only when fewer than k trusted streams remain.
//
// Decoding runs through the same loop as encoding (see EncodeStream); the
// same StreamOptions apply.
func (c *Code) DecodeStream(shards []io.Reader, dst io.Writer, size int64, opts ...StreamOption) error {
	k, r := c.K(), c.R()
	if len(shards) != k+r {
		return fmt.Errorf("%w: have %d readers, want k+r=%d", ErrShardStreams, len(shards), k+r)
	}
	present := 0
	for _, rd := range shards {
		if rd != nil {
			present++
		}
	}
	if present < k {
		return fmt.Errorf("%w: only %d of %d shard streams present (need k=%d): %w",
			ErrShardStreams, present, k+r, k, ErrTooFewShards)
	}
	if size < 0 {
		return fmt.Errorf("gemmec: negative stream size %d", size)
	}
	return c.DecodeShards(pipeline.Readers(c, shards, size), dst, opts...)
}

// DecodeShards is DecodeStream over a read plan: instead of k+r open
// streams read end to end, in names the units a clean decode of one
// payload window reads, says which shards are already known lost, and
// opens a shard only when the plan first reads it (see pipeline.Shards
// for the plan and how a fault widens it). It is the entry point of this
// module's own storage layers — internal/shardfile builds the plan from a
// manifest and a byte range — and DecodeStream is the special case "every
// stream handed in, every stripe". The same StreamOptions apply.
func (c *Code) DecodeShards(in pipeline.Shards, dst io.Writer, opts ...StreamOption) error {
	cfg, err := c.streamConfig(opts)
	if err != nil {
		return err
	}
	st, err := pipeline.Decode(c, in, dst, cfg.pipeline())
	if cfg.stats != nil {
		*cfg.stats = st
	}
	return err
}
