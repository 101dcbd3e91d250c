// Package trace synthesizes storage workloads and replays them against
// the object backends that ship — the "measure the performance on real
// storage workloads" leg of §8's future-work plan. A workload is a
// sequence of puts, gets, range reads, deletes, member failures and
// rebuilds; the replayer drives a server.Backend (the cluster Gateway or
// the single-node Store) and keeps a shadow copy of every object, so it
// is a reference model as much as a load generator: every byte a read
// returns is checked, a deleted name must stay deleted, and a failure
// names the seed and op index that replay it.
//
// Despite the name, this package is workload *replay*, not request
// tracing: per-request span tracing (the /tracez flight recorder and the
// X-Gemmec-Trace wire headers) lives in internal/obs.
package trace

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"gemmec/internal/server"
)

// OpKind enumerates workload operations.
type OpKind int

const (
	// OpPut writes an object.
	OpPut OpKind = iota
	// OpGet reads an object back and verifies it — or, for a deleted
	// name, verifies that it is gone.
	OpGet
	// OpFail takes a member down.
	OpFail
	// OpRebuild replaces a down member and rebuilds what it held.
	OpRebuild
	// OpRange reads a byte window of an object and verifies it.
	OpRange
	// OpDelete deletes an object.
	OpDelete
)

func (k OpKind) String() string {
	switch k {
	case OpPut:
		return "put"
	case OpGet:
		return "get"
	case OpFail:
		return "fail"
	case OpRebuild:
		return "rebuild"
	case OpRange:
		return "range"
	case OpDelete:
		return "delete"
	default:
		return fmt.Sprintf("op(%d)", int(k))
	}
}

// Op is one workload event.
type Op struct {
	Kind   OpKind
	Object string
	Size   int // for OpPut
	// Off and Len are OpRange's window, inside the object as last put.
	Off, Len int
	Node     int // for OpFail / OpRebuild
}

// Workload is an ordered op sequence.
type Workload struct {
	Ops []Op
}

// SynthConfig shapes Synthesize's output.
type SynthConfig struct {
	// Objects is the object-name population size.
	Objects int
	// MinSize and MaxSize bound object sizes (log-uniformly distributed,
	// matching the heavy-tailed size distributions of object stores).
	MinSize, MaxSize int
	// ReadFraction of ops on a written name are reads (default 0.7; one
	// in four of them a range read); of the rest, most are puts, some
	// deletes, with occasional failure/rebuild pairs.
	ReadFraction float64
	// FailureEvery inserts a fail+rebuild pair roughly every N ops
	// (0 disables failures).
	FailureEvery int
	// Nodes in the target cluster (for failure targeting).
	Nodes int
}

// DefaultSynthConfig returns a read-mostly object-store mix.
func DefaultSynthConfig(nodes int) SynthConfig {
	return SynthConfig{
		Objects:      16,
		MinSize:      4 << 10,
		MaxSize:      4 << 20,
		ReadFraction: 0.7,
		FailureEvery: 40,
		Nodes:        nodes,
	}
}

// Synthesize generates a deterministic workload of n ops. Every object is
// put before it is first read; a read of a name that has since been
// deleted stays in the mix (it must fail as not found); failures are
// always repaired before the next failure, so the cluster never exceeds
// single-failure degradation (multi-failure patterns are exercised
// directly by the server tests); and every name deleted while a member
// was down is read once right after that member's rebuild — the
// tombstone contract: a returning member must not resurrect it.
func Synthesize(seed int64, n int, cfg SynthConfig) Workload {
	rng := rand.New(rand.NewSource(seed))
	if cfg.Objects <= 0 {
		cfg.Objects = 16
	}
	if cfg.MinSize <= 0 {
		cfg.MinSize = 4 << 10
	}
	if cfg.MaxSize < cfg.MinSize {
		cfg.MaxSize = cfg.MinSize
	}
	if cfg.ReadFraction <= 0 || cfg.ReadFraction >= 1 {
		cfg.ReadFraction = 0.7
	}

	var w Workload
	written := map[string]bool{} // ever put
	size := map[string]int{}     // live objects' sizes; absent once deleted
	downNode := -1
	var deletedWhileDown []string
	name := func(i int) string { return fmt.Sprintf("obj-%03d", i) }
	sizeFor := func() int {
		lo, hi := float64(cfg.MinSize), float64(cfg.MaxSize)
		// log-uniform in [lo, hi]
		return int(lo * math.Pow(hi/lo, rng.Float64()))
	}
	rebuild := func() {
		w.Ops = append(w.Ops, Op{Kind: OpRebuild, Node: downNode})
		downNode = -1
		for _, obj := range deletedWhileDown {
			w.Ops = append(w.Ops, Op{Kind: OpGet, Object: obj})
		}
		deletedWhileDown = nil
	}

	// nextChurn is the op index of the next fail or rebuild.
	nextChurn := cfg.FailureEvery
	for len(w.Ops) < n {
		if cfg.FailureEvery > 0 && cfg.Nodes > 0 && len(w.Ops) >= nextChurn {
			if downNode < 0 {
				downNode = rng.Intn(cfg.Nodes)
				w.Ops = append(w.Ops, Op{Kind: OpFail, Node: downNode})
			} else {
				rebuild()
			}
			nextChurn = len(w.Ops) - 1 + cfg.FailureEvery
			continue
		}
		obj := name(rng.Intn(cfg.Objects))
		sz, live := size[obj]
		switch p := rng.Float64(); {
		case written[obj] && p < cfg.ReadFraction*0.75:
			w.Ops = append(w.Ops, Op{Kind: OpGet, Object: obj})
		case live && p < cfg.ReadFraction:
			off := rng.Intn(sz)
			w.Ops = append(w.Ops, Op{Kind: OpRange, Object: obj, Off: off, Len: 1 + rng.Intn(sz-off)})
		case live && p < cfg.ReadFraction+(1-cfg.ReadFraction)/4:
			w.Ops = append(w.Ops, Op{Kind: OpDelete, Object: obj})
			delete(size, obj)
			if downNode >= 0 {
				deletedWhileDown = append(deletedWhileDown, obj)
			}
		default:
			sz = sizeFor()
			w.Ops = append(w.Ops, Op{Kind: OpPut, Object: obj, Size: sz})
			written[obj], size[obj] = true, sz
		}
	}
	// Leave the cluster healthy.
	if downNode >= 0 {
		rebuild()
	}
	return w
}

// Target is the object surface a replay drives; *server.Gateway and
// *server.Store both are one.
type Target interface {
	server.Backend
	server.RangeOpener
}

// Churn is the failure side of a replay target.
type Churn interface {
	// Fail takes member id out of service, keeping what it stores.
	Fail(id int) error
	// Rebuild replaces member id with an empty one and restores what it
	// held, reporting the repair traffic.
	Rebuild(ctx context.Context, id int) (server.RebuildStats, error)
}

// Stats aggregates a replay.
type Stats struct {
	Puts, Gets, Ranges, Deletes int
	// NotFoundGets counts reads of deleted names that correctly failed.
	NotFoundGets  int
	DegradedGets  int
	Fails         int
	Rebuilds      int
	BytesWritten  int64
	BytesRead     int64
	RepairedBytes int64
	RepairTraffic int64
	Elapsed       time.Duration
}

// Replay executes the workload against b, failing and rebuilding members
// through churn, and verifies every read against a shadow copy: returned
// bytes must equal what was last put, a range must equal that window of
// it, and a deleted name must read as server.ErrObjectNotFound — also
// after a member that missed the delete was rebuilt. It fails fast on any
// divergence, naming the seed and op index; seed also draws the payloads.
func Replay(ctx context.Context, b Target, churn Churn, w Workload, seed int64) (Stats, error) {
	var st Stats
	rng := rand.New(rand.NewSource(seed))
	// shadow maps every name ever put to its current bytes; nil = deleted.
	shadow := map[string][]byte{}
	var got bytes.Buffer
	start := time.Now()
	for i, op := range w.Ops {
		fail := func(format string, args ...any) (Stats, error) {
			return st, fmt.Errorf("trace: seed %d op %d (%s %s): %w", seed, i, op.Kind, op.Object, fmt.Errorf(format, args...))
		}
		want, known := shadow[op.Object]
		switch op.Kind {
		case OpPut:
			data := make([]byte, op.Size)
			rng.Read(data)
			if _, _, err := b.Put(ctx, op.Object, bytes.NewReader(data), int64(op.Size)); err != nil {
				return fail("%w", err)
			}
			shadow[op.Object] = data
			st.Puts++
			st.BytesWritten += int64(op.Size)
		case OpGet, OpRange:
			if !known {
				return fail("reads an object never written")
			}
			var o server.ObjectStream
			var err error
			if op.Kind == OpRange {
				if want != nil {
					if op.Off < 0 || op.Len <= 0 || op.Off+op.Len > len(want) {
						return fail("window [%d,+%d) outside the %d-byte object", op.Off, op.Len, len(want))
					}
					want = want[op.Off : op.Off+op.Len]
				}
				o, err = b.OpenRange(ctx, op.Object, int64(op.Off), int64(op.Len))
			} else {
				o, err = b.Open(ctx, op.Object)
			}
			if want == nil {
				if !errors.Is(err, server.ErrObjectNotFound) {
					if err == nil {
						o.Close()
					}
					return fail("deleted object read back: err = %v, want ErrObjectNotFound", err)
				}
				st.NotFoundGets++
				continue
			}
			if err != nil {
				return fail("%w", err)
			}
			got.Reset()
			_, err = o.Stream(&got)
			degraded := o.Degraded()
			o.Close()
			if err != nil {
				return fail("%w", err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				return fail("returned %d bytes that differ from the %d last written", got.Len(), len(want))
			}
			if op.Kind == OpRange {
				st.Ranges++
			} else {
				st.Gets++
			}
			if degraded {
				st.DegradedGets++
			}
			st.BytesRead += int64(got.Len())
		case OpDelete:
			if want == nil {
				return fail("deletes an object that is not there")
			}
			if err := b.Delete(ctx, op.Object); err != nil {
				return fail("%w", err)
			}
			shadow[op.Object] = nil
			st.Deletes++
		case OpFail:
			if err := churn.Fail(op.Node); err != nil {
				return fail("member %d: %w", op.Node, err)
			}
			st.Fails++
		case OpRebuild:
			rst, err := churn.Rebuild(ctx, op.Node)
			if err != nil {
				return fail("member %d: %w", op.Node, err)
			}
			if len(rst.Errors) > 0 {
				return fail("member %d: rebuild left objects unrepaired: %v", op.Node, rst.Errors)
			}
			st.Rebuilds++
			st.RepairedBytes += rst.BytesWritten
			st.RepairTraffic += rst.BytesRead
		default:
			return fail("unknown kind %d", int(op.Kind))
		}
	}
	st.Elapsed = time.Since(start)
	return st, nil
}
