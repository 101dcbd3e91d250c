package server

import (
	"context"
	"io"

	"gemmec"
)

// Backend is the object surface the HTTP layer serves: the local Store
// and the cluster Gateway both implement it through the object front they
// embed, so one handler — with its admission control, instrumentation,
// and error taxonomy — fronts either a single node's disks or a ring of
// networked peers.
type Backend interface {
	// Scheduler exposes the backend's shared encode/decode pool; the
	// handler's admission gate rides its Admit/Release slots.
	Scheduler() *gemmec.Scheduler
	// Put stores src as object name. size is the declared length (-1
	// unknown); the returned meta describes the committed object.
	Put(ctx context.Context, name string, src io.Reader, size int64) (ObjectMeta, gemmec.StreamStats, error)
	// Open opens object name for reading (possibly degraded).
	Open(ctx context.Context, name string) (ObjectStream, error)
	RangeOpener
	Patcher
	// Delete removes object name.
	Delete(ctx context.Context, name string) error
	// StatAll lists every object's metadata.
	StatAll() ([]ObjectMeta, error)
	// ScrubAll sweeps the catalog once, healing what it can.
	ScrubAll(ctx context.Context) ScrubReport
	// StatusSnapshot returns the backend's /statusz document, a Stats.
	StatusSnapshot() any
}

// ObjectStream is one opened object mid-read: metadata plus the decode.
type ObjectStream interface {
	// Name is the object's client-visible name.
	Name() string
	// Size is the payload size in bytes.
	Size() int64
	// Degraded reports whether any shard was unusable at open time or has
	// been demoted since.
	Degraded() bool
	// Unusable lists the shard indices being reconstructed around.
	Unusable() []int
	// Demoted lists mid-stream demotions recorded so far.
	Demoted() []gemmec.Demotion
	// Stream decodes the payload to dst.
	Stream(dst io.Writer) (gemmec.StreamStats, error)
	// Close releases the underlying readers and locks. Idempotent.
	Close() error
}

// Rebuilder is implemented by backends that can rebuild a lost cluster
// member; the handler mounts POST /rebuild/{id} when it sees one.
type Rebuilder interface {
	RebuildNode(ctx context.Context, memberID int) (RebuildStats, error)
}

// RangedStream is an ObjectStream opened over a byte window: Stream
// serves only that window, and Range reports it resolved (the HTTP
// layer's Content-Range). Size still reports the whole object.
type RangedStream interface {
	ObjectStream
	Range() (off, length int64)
}

// RangeOpener opens a byte window of an object without decoding the rest;
// the handler serves HTTP Range requests through it. off == -1 requests
// the final length bytes (suffix range); length == -1 requests from off
// to the end. An unsatisfiable window fails with a *RangeError (HTTP
// 416).
type RangeOpener interface {
	OpenRange(ctx context.Context, name string, off, length int64) (RangedStream, error)
}

// Patcher splices bytes into a stored object; the handler serves PATCH
// /o/{name} through it. off == -1 appends. The backend decides per object
// whether the write lands stripe-granularly in place or as a
// read-modify-write (PatchStats says which).
type Patcher interface {
	Patch(ctx context.Context, name string, data []byte, off int64) (ObjectMeta, PatchStats, error)
}

var (
	_ Backend   = (*Store)(nil)
	_ Backend   = (*Gateway)(nil)
	_ Rebuilder = (*Gateway)(nil)

	_ RangedStream = (*Object)(nil)
)
