package peer

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"gemmec/internal/obs"
)

// Operation names for metrics and trace spans — one per Transport method.
const (
	opPutShard  = "put_shard"
	opGetShard  = "get_shard"
	opStatShard = "stat_shard"
	opDelete    = "delete"
	opPutMeta   = "put_meta"
	opGetMeta   = "get_meta"
	opListMeta  = "list_meta"
	opPing      = "ping"
)

// spanName maps an op to its trace-span name. Returning interned
// constants (not "peer."+op) keeps the traced hot path allocation-free.
func spanName(op string) string {
	switch op {
	case opPutShard:
		return "peer.put_shard"
	case opGetShard:
		return "peer.get_shard"
	case opStatShard:
		return "peer.stat_shard"
	case opDelete:
		return "peer.delete"
	case opPutMeta:
		return "peer.put_meta"
	case opListMeta:
		return "peer.list_meta"
	case opPing:
		return "peer.ping"
	default:
		return "peer.op"
	}
}

// Observer receives per-request and health-transition events from a
// Client — the hook the gateway uses to feed peer metrics without the
// peer package importing the metrics registry. Both callbacks must be
// safe for concurrent use; either may be nil.
type Observer struct {
	// OnRequest fires once per HTTP attempt with the operation, the
	// response status (0 for a transport-level failure) and the attempt
	// latency.
	OnRequest func(member Member, op string, code int, d time.Duration)
	// OnDown fires on each healthy→down transition (not on every failure
	// while already down).
	OnDown func(member Member)
}

// SecretHeader carries the shared cluster secret on every internal
// request. Peers with an empty secret accept any value (auth disabled —
// test rigs and single-host demos); peers with a secret reject mismatches
// with 403 before touching disk.
const SecretHeader = "X-Gemmec-Cluster-Key"

// ClientConfig tunes one peer's HTTP transport.
type ClientConfig struct {
	// Secret is the shared cluster secret sent in SecretHeader.
	Secret string
	// OpTimeout bounds small control operations (stat, delete, meta, ping).
	// Shard bodies stream under the caller's context instead — a 64 MiB
	// shard transfer must not be killed by a control-plane deadline — but
	// their response headers must arrive within OpTimeout. Default 5s.
	OpTimeout time.Duration
	// Retries is the number of extra attempts for idempotent control
	// operations after a transport failure. Default 2. Shard bodies are
	// never retried here; the gateway retries at stripe granularity where
	// it can account for quorum.
	Retries int
	// DownCooldown is how long a peer is considered unhealthy after a
	// transport-level failure before traffic is attempted again. Health is
	// advisory — the gateway uses it to order repair sources, not to
	// refuse writes. Default 2s.
	DownCooldown time.Duration
	// MaxIdleConns bounds pooled idle connections to this peer. Default 8.
	MaxIdleConns int
}

func (c *ClientConfig) withDefaults() ClientConfig {
	out := *c
	if out.OpTimeout <= 0 {
		out.OpTimeout = 5 * time.Second
	}
	if out.Retries < 0 {
		out.Retries = 0
	} else if out.Retries == 0 {
		out.Retries = 2
	}
	if out.DownCooldown <= 0 {
		out.DownCooldown = 2 * time.Second
	}
	if out.MaxIdleConns <= 0 {
		out.MaxIdleConns = 8
	}
	return out
}

// Client speaks the internal shard-transfer API to one peer. It owns a
// pooled http.Transport (connections are reused across shard transfers),
// applies the cluster secret, bounds control operations with OpTimeout +
// bounded backoff retries, and tracks coarse health so gateways can rank
// repair sources without waiting for a fresh timeout on every request.
type Client struct {
	member Member
	cfg    ClientConfig
	httpc  *http.Client
	// downUntil is a unix-nano deadline before which the peer is presumed
	// unhealthy. 0 = healthy.
	downUntil atomic.Int64
	// obsv is the installed Observer (nil until SetObserver).
	obsv atomic.Pointer[Observer]
	// Coarse lifetime counters, exported for /statusz.
	requests atomic.Int64
	failures atomic.Int64
	downs    atomic.Int64
}

var (
	_ Transport = (*Client)(nil)
	_ Replacer  = (*Client)(nil)
)

// NewClient builds a Transport for one member.
func NewClient(m Member, cfg ClientConfig) *Client {
	cfg = cfg.withDefaults()
	tr := &http.Transport{
		MaxIdleConns:          cfg.MaxIdleConns,
		MaxIdleConnsPerHost:   cfg.MaxIdleConns,
		IdleConnTimeout:       90 * time.Second,
		ResponseHeaderTimeout: cfg.OpTimeout,
	}
	return &Client{member: m, cfg: cfg, httpc: &http.Client{Transport: tr}}
}

// Member returns the peer this client talks to.
func (c *Client) Member() Member { return c.member }

// Close releases pooled connections.
func (c *Client) Close() {
	if tr, ok := c.httpc.Transport.(*http.Transport); ok {
		tr.CloseIdleConnections()
	}
}

// Healthy reports whether the peer is past its failure cooldown. A true
// result is a hint, not a guarantee; a false result means a recent
// transport failure and the cooldown has not elapsed.
func (c *Client) Healthy() bool {
	return c.downUntil.Load() <= time.Now().UnixNano()
}

func (c *Client) markDown() {
	now := time.Now()
	was := c.downUntil.Swap(now.Add(c.cfg.DownCooldown).UnixNano())
	if was <= now.UnixNano() {
		// healthy → down transition (not a repeat failure inside an
		// existing cooldown): count it and tell the observer.
		c.downs.Add(1)
		if o := c.obsv.Load(); o != nil && o.OnDown != nil {
			o.OnDown(c.member)
		}
	}
}

func (c *Client) markUp() { c.downUntil.Store(0) }

// SetObserver installs the event hook (nil uninstalls). Safe to call
// concurrently with in-flight requests.
func (c *Client) SetObserver(o *Observer) { c.obsv.Store(o) }

// Requests returns the lifetime HTTP attempt count to this peer.
func (c *Client) Requests() int64 { return c.requests.Load() }

// Failures returns lifetime attempts that failed at the transport or
// with a 5xx — the "this peer is hurting" counter for /statusz.
func (c *Client) Failures() int64 { return c.failures.Load() }

// DownTransitions returns lifetime healthy→down transitions.
func (c *Client) DownTransitions() int64 { return c.downs.Load() }

// observe records one attempt's outcome locally and to the Observer;
// failed says whether it counts against the peer.
func (c *Client) observe(op string, code int, d time.Duration, failed bool) {
	c.requests.Add(1)
	if failed {
		c.failures.Add(1)
	}
	if o := c.obsv.Load(); o != nil && o.OnRequest != nil {
		o.OnRequest(c.member, op, code, d)
	}
}

func (c *Client) shardURL(key string, gen uint64, idx int) string {
	return fmt.Sprintf("%s/internal/shard/%s/%d/%d", c.member.Addr, url.PathEscape(key), gen, idx)
}

func (c *Client) metaURL(key string) string {
	return c.member.Addr + "/internal/meta/" + url.PathEscape(key)
}

// do issues one request, classifying transport failures as
// ErrUnavailable and updating health. The response is returned with a
// non-error status only; error statuses are drained, closed and mapped.
//
// This is the single choke point for peer observability: every attempt
// records a member-tagged trace span (injecting the trace header so the
// remote PeerAPI can attach its own child spans, merged back here from
// the response) and reports (op, status, latency) to the Observer.
//
// Exception: get_meta records no span. The gateway wraps its whole
// majority metadata read in one span instead, so a trace shows the
// metadata phase as one bar however many members the read asked.
func (c *Client) do(req *http.Request, op string) (*http.Response, error) {
	req.Header.Set(SecretHeader, c.cfg.Secret)
	var sp obs.Span
	tr := obs.TraceFromContext(req.Context())
	if tr != nil && op != opGetMeta {
		sp = tr.StartSpan(spanName(op))
		sp.SetMember(c.member.ID)
		req.Header.Set(obs.TraceHeader, tr.WireHeader(sp))
	}
	start := time.Now()
	resp, err := c.httpc.Do(req)
	if err != nil {
		// A caller that hung up — a client disconnect, a request canceled
		// by its owner — says nothing about the peer. Only cancellation is
		// excused: an expired deadline (doRetry's per-attempt OpTimeout
		// included) is the peer being too slow.
		callerGone := errors.Is(req.Context().Err(), context.Canceled)
		if !callerGone {
			c.markDown()
		}
		c.observe(op, 0, time.Since(start), !callerGone)
		sp.End(err)
		return nil, fmt.Errorf("%w: %s: %v", ErrUnavailable, c.member.Addr, err)
	}
	c.observe(op, resp.StatusCode, time.Since(start), resp.StatusCode >= 500)
	if tr != nil && op != opGetMeta {
		tr.AddRemoteSpans(c.member.ID, sp, resp.Header.Get(obs.TraceSpansHeader))
	}
	switch {
	case resp.StatusCode < 300:
		c.markUp()
		sp.End(nil)
		return resp, nil
	case resp.StatusCode == http.StatusNotFound:
		err = ErrShardNotFound
		if strings.Contains(req.URL.Path, "/internal/meta/") {
			err = ErrMetaNotFound
		}
	case resp.StatusCode == http.StatusConflict:
		err = ErrShardExists
	case resp.StatusCode == http.StatusForbidden || resp.StatusCode == http.StatusUnauthorized:
		err = ErrUnauthorized
	default:
		c.markDown()
		err = fmt.Errorf("%w: %s: http %d", ErrUnavailable, c.member.Addr, resp.StatusCode)
	}
	sp.End(err)
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
	resp.Body.Close()
	return nil, err
}

// doRetry runs an idempotent control operation with OpTimeout per attempt
// and bounded backoff across attempts. Only ErrUnavailable is retried:
// not-found and unauthorized are definitive answers.
func (c *Client) doRetry(ctx context.Context, op string, build func(ctx context.Context) (*http.Request, error), handle func(*http.Response) error) error {
	var last error
	for attempt := 0; attempt <= c.cfg.Retries; attempt++ {
		if attempt > 0 {
			// 25ms, 50ms, 100ms... capped; cheap enough that a blip heals
			// within one stripe, short enough that a dead peer doesn't
			// stall a quorum decision.
			backoff := 25 * time.Millisecond << (attempt - 1)
			if backoff > 400*time.Millisecond {
				backoff = 400 * time.Millisecond
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(backoff):
			}
		}
		err := func() error {
			opCtx, cancel := context.WithTimeout(ctx, c.cfg.OpTimeout)
			defer cancel()
			req, err := build(opCtx)
			if err != nil {
				return err
			}
			resp, err := c.do(req, op)
			if err != nil {
				return err
			}
			defer func() {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}()
			return handle(resp)
		}()
		if err == nil || !isRetryable(err) || ctx.Err() != nil {
			return err
		}
		last = err
	}
	return last
}

func isRetryable(err error) bool {
	return errors.Is(err, ErrUnavailable)
}

// PutShard streams a shard body to the peer. Not retried: the body is a
// one-shot stream fed by the encode pipeline, and the gateway owns the
// quorum decision for failed shards.
func (c *Client) PutShard(ctx context.Context, key string, gen uint64, idx int, size int64, body io.Reader) error {
	return c.putShard(ctx, c.shardURL(key, gen, idx), size, body)
}

// ReplaceShard implements Replacer: PutShard's request with ?replace=1,
// which the peer commits by rename instead of first-writer-wins.
func (c *Client) ReplaceShard(ctx context.Context, key string, gen uint64, idx int, size int64, body io.Reader) error {
	return c.putShard(ctx, c.shardURL(key, gen, idx)+"?replace=1", size, body)
}

func (c *Client) putShard(ctx context.Context, target string, size int64, body io.Reader) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, target, body)
	if err != nil {
		return err
	}
	if size >= 0 {
		req.ContentLength = size
	}
	resp, err := c.do(req, opPutShard)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return nil
}

// GetShard opens a shard body. Not retried as a whole (the caller may
// have consumed part of the stream); gateways treat a failed source as a
// demoted shard and reconstruct instead.
func (c *Client) GetShard(ctx context.Context, key string, gen uint64, idx int) (io.ReadCloser, int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.shardURL(key, gen, idx), nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := c.do(req, opGetShard)
	if err != nil {
		return nil, 0, err
	}
	return resp.Body, resp.ContentLength, nil
}

// GetShardRange opens bytes [off, off+length) of a shard via an HTTP
// Range request. The peer answers 206 with exactly the window it serves;
// any other success — a 200 shipping the whole shard — fails the fetch,
// so the caller demotes the shard like any other it could not fetch. Not
// retried, for the same reason as GetShard.
func (c *Client) GetShardRange(ctx context.Context, key string, gen uint64, idx int, off, length int64) (io.ReadCloser, int64, error) {
	if off < 0 || length <= 0 {
		return nil, 0, fmt.Errorf("peer: bad shard range [off=%d,len=%d)", off, length)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.shardURL(key, gen, idx), nil)
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", off, off+length-1))
	resp, err := c.do(req, opGetShard)
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusPartialContent {
		resp.Body.Close()
		return nil, 0, fmt.Errorf("peer: %s answered a shard range request with http %d, not 206", c.member.Addr, resp.StatusCode)
	}
	return resp.Body, resp.ContentLength, nil
}

// StatShard reports a shard's size via HEAD.
func (c *Client) StatShard(ctx context.Context, key string, gen uint64, idx int) (int64, error) {
	var size int64
	err := c.doRetry(ctx, opStatShard,
		func(ctx context.Context) (*http.Request, error) {
			return http.NewRequestWithContext(ctx, http.MethodHead, c.shardURL(key, gen, idx), nil)
		},
		func(resp *http.Response) error {
			n, err := strconv.ParseInt(resp.Header.Get("X-Gemmec-Shard-Size"), 10, 64)
			if err != nil {
				n = resp.ContentLength
			}
			size = n
			return nil
		})
	return size, err
}

// DeleteShard removes one shard generation (idempotent).
func (c *Client) DeleteShard(ctx context.Context, key string, gen uint64, idx int) error {
	return c.deleteURL(ctx, c.shardURL(key, gen, idx))
}

// DeleteObject removes all shards and the metadata replica for key.
func (c *Client) DeleteObject(ctx context.Context, key string) error {
	return c.deleteURL(ctx, c.member.Addr+"/internal/object/"+url.PathEscape(key))
}

func (c *Client) deleteURL(ctx context.Context, u string) error {
	err := c.doRetry(ctx, opDelete,
		func(ctx context.Context) (*http.Request, error) {
			return http.NewRequestWithContext(ctx, http.MethodDelete, u, nil)
		},
		func(*http.Response) error { return nil })
	if errors.Is(err, ErrShardNotFound) || errors.Is(err, ErrMetaNotFound) {
		return nil // idempotent
	}
	return err
}

// PutMeta atomically replaces the metadata replica for key.
func (c *Client) PutMeta(ctx context.Context, key string, meta []byte) error {
	return c.doRetry(ctx, opPutMeta,
		func(ctx context.Context) (*http.Request, error) {
			req, err := http.NewRequestWithContext(ctx, http.MethodPut, c.metaURL(key), strings.NewReader(string(meta)))
			if err != nil {
				return nil, err
			}
			req.ContentLength = int64(len(meta))
			return req, nil
		},
		func(*http.Response) error { return nil })
}

// GetMeta fetches the metadata replica for key.
func (c *Client) GetMeta(ctx context.Context, key string) ([]byte, error) {
	var out []byte
	err := c.doRetry(ctx, opGetMeta,
		func(ctx context.Context) (*http.Request, error) {
			return http.NewRequestWithContext(ctx, http.MethodGet, c.metaURL(key), nil)
		},
		func(resp *http.Response) error {
			b, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
			if err != nil {
				return fmt.Errorf("%w: %s: reading meta: %v", ErrUnavailable, c.member.Addr, err)
			}
			out = b
			return nil
		})
	return out, err
}

// ListMeta returns every metadata key the peer holds, one per line.
func (c *Client) ListMeta(ctx context.Context) ([]string, error) {
	var keys []string
	err := c.doRetry(ctx, opListMeta,
		func(ctx context.Context) (*http.Request, error) {
			return http.NewRequestWithContext(ctx, http.MethodGet, c.member.Addr+"/internal/meta", nil)
		},
		func(resp *http.Response) error {
			b, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
			if err != nil {
				return fmt.Errorf("%w: %s: reading meta list: %v", ErrUnavailable, c.member.Addr, err)
			}
			keys = keys[:0]
			for _, line := range strings.Split(string(b), "\n") {
				if line = strings.TrimSpace(line); line != "" {
					keys = append(keys, line)
				}
			}
			return nil
		})
	return keys, err
}

// Ping checks liveness and secret agreement.
func (c *Client) Ping(ctx context.Context) error {
	return c.doRetry(ctx, opPing,
		func(ctx context.Context) (*http.Request, error) {
			return http.NewRequestWithContext(ctx, http.MethodGet, c.member.Addr+"/internal/ping", nil)
		},
		func(*http.Response) error { return nil })
}
