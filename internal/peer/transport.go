package peer

import (
	"context"
	"errors"
	"io"
)

// Sentinel errors for the transport seam. The HTTP client maps status
// codes onto these; the gateway branches on them (a missing shard is a
// degraded-read candidate, an unreachable peer is a health event, an auth
// failure is a deployment bug worth failing loudly on).
var (
	// ErrShardNotFound reports that the peer is reachable but does not
	// hold the requested shard (generation).
	ErrShardNotFound = errors.New("peer: shard not found")
	// ErrShardExists reports that the peer already holds a shard at the
	// requested (key, generation, index). Shard writes are first-writer-
	// wins: two gateways racing the same generation cannot interleave
	// bytes, the loser's upload is rejected whole.
	ErrShardExists = errors.New("peer: shard already exists")
	// ErrMetaNotFound reports that the peer holds no metadata replica for
	// the key.
	ErrMetaNotFound = errors.New("peer: metadata not found")
	// ErrUnavailable reports that the peer could not be reached or did not
	// answer in time (dial failure, timeout, 5xx).
	ErrUnavailable = errors.New("peer: unavailable")
	// ErrUnauthorized reports a cluster-secret mismatch.
	ErrUnauthorized = errors.New("peer: unauthorized")
)

// Transport is the shard-transfer seam between a gateway and one peer.
// It is the wire analogue of internal/vfs: internal/server implements it
// over HTTP (Client), over the local PeerStore directly (no loopback
// socket for a gateway's own shards), and tests wrap either in a
// FaultTransport to inject partitions, slow links and torn transfers
// deterministically.
//
// Keys are store-level object keys (hex-encoded names or reserved slab
// keys); gen is the store's crash-atomicity generation; idx is the shard
// index within the stripe. All streaming bodies are verified end-to-end
// by the manifest's checksums, so the transport itself carries no
// integrity metadata.
type Transport interface {
	// PutShard streams one shard body to the peer. The write is atomic on
	// the peer — a torn upload leaves nothing behind — and first-writer-
	// wins: if the (key, gen, idx) shard already exists the call fails
	// with ErrShardExists instead of overwriting, so two writers racing
	// the same generation cannot mix bodies. Repairs, which must overwrite
	// a damaged shard, use Replacer instead.
	PutShard(ctx context.Context, key string, gen uint64, idx int, size int64, body io.Reader) error
	// GetShard opens one shard for reading. The caller must close the
	// returned reader. size is the shard's on-disk length.
	GetShard(ctx context.Context, key string, gen uint64, idx int) (body io.ReadCloser, size int64, err error)
	// GetShardRange opens bytes [off, off+length) of one shard — the
	// transfer behind ranged object reads, where each peer ships only the
	// stripes covering the requested window. size is the byte count the
	// body will actually carry; a shard shorter than off+length serves
	// what exists (possibly zero bytes), and the caller — which computed
	// the window from the manifest — treats a short answer as a damaged
	// shard. The caller must close the returned reader.
	GetShardRange(ctx context.Context, key string, gen uint64, idx int, off, length int64) (body io.ReadCloser, size int64, err error)
	// StatShard reports a shard's size without transferring it.
	StatShard(ctx context.Context, key string, gen uint64, idx int) (size int64, err error)
	// DeleteShard removes one shard generation. Missing shards are not an
	// error — deletes are the rollback path and must be idempotent.
	DeleteShard(ctx context.Context, key string, gen uint64, idx int) error
	// DeleteObject removes every shard of every generation of key plus
	// the peer's metadata replica.
	DeleteObject(ctx context.Context, key string) error
	// PutMeta atomically replaces the peer's metadata replica for key.
	PutMeta(ctx context.Context, key string, meta []byte) error
	// GetMeta fetches the peer's metadata replica for key.
	GetMeta(ctx context.Context, key string) ([]byte, error)
	// ListMeta returns the keys of every metadata replica the peer holds.
	ListMeta(ctx context.Context) ([]string, error)
	// Ping checks liveness and secret agreement.
	Ping(ctx context.Context) error
}

// Replacer is the optional Transport method repairs write through.
// ReplaceShard stores body as shard (key, gen, idx) whether or not the peer
// already holds one: the body streams to a temporary file that is renamed
// over the old shard only once it is whole, so until then readers keep the
// old shard — and every stripe of it that still verifies — and a torn or
// canceled replace leaves it exactly as it was.
type Replacer interface {
	ReplaceShard(ctx context.Context, key string, gen uint64, idx int, size int64, body io.Reader) error
}
