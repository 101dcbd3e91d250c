// Command eccli erasure-codes files on disk through the public gemmec API
// and the internal/shardfile shard-set layout: encode splits a file into k
// data shards plus r parity shards, repair (or its synonym scrub) rebuilds
// shard files that are missing or fail their manifest checksums, verify
// checks stripe consistency, and decode reassembles the file
// (reconstructing on the fly around missing or rotten shards).
//
// Usage:
//
//	eccli encode -in big.bin -dir shards/ -k 10 -r 4
//	rm shards/shard_003 shards/shard_007          # simulate disk failures
//	eccli repair -dir shards/
//	eccli verify -dir shards/
//	eccli decode -dir shards/ -out restored.bin
//
// Every command streams: files of any size run through the pipelined
// engine in bounded memory, every shard unit is checked against the
// manifest's CRC32C as it is read, and encode/decode print the pipeline's
// stall breakdown. encode and decode run their kernel stage on one
// gemmec.NewScheduler pool per process; -stream-workers N sizes it (0, the
// default, is NewScheduler's default).
//
// eccli is also the client for the ecserver daemon (cmd/ecserver): put
// uploads a file as a named object and get streams it back, reporting when
// the server had to serve a degraded read:
//
//	eccli put -server http://localhost:8080 -name big.bin -in big.bin
//	eccli get -server http://localhost:8080 -name big.bin -out restored.bin
//
// Every failure — including a stream decode failing mid-file — exits
// non-zero with a wrapped, classifiable error on stderr, so all commands
// are scriptable.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"gemmec"
	"gemmec/internal/obs"
	"gemmec/internal/shardfile"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "encode":
		err = cmdEncode(os.Args[2:])
	case "repair", "scrub":
		err = cmdScrub(os.Args[1], os.Args[2:])
	case "verify":
		err = cmdVerify(os.Args[2:])
	case "decode":
		err = cmdDecode(os.Args[2:])
	case "put":
		err = cmdPut(os.Args[2:])
	case "get":
		err = cmdGet(os.Args[2:])
	case "patch":
		err = cmdPatch(os.Args[2:], false)
	case "append":
		err = cmdPatch(os.Args[2:], true)
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "eccli:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: eccli {encode|repair|verify|scrub|decode|put|get|patch|append} [flags]")
	os.Exit(2)
}

// cmdScrub implements both scrub and repair: every shard file that is
// missing, truncated or fails its manifest checksum is rebuilt from the
// survivors and rewritten.
func cmdScrub(verb string, args []string) error {
	fs := flag.NewFlagSet(verb, flag.ExitOnError)
	dir := fs.String("dir", "", "shard directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("%s: -dir required", verb)
	}
	m, err := shardfile.LoadManifest(*dir)
	if err != nil {
		return err
	}
	healed, err := shardfile.ScrubPaths(shardfile.DirPaths(*dir, m.K+m.R), m, shardfile.Opts{})
	if err != nil {
		return err
	}
	if len(healed) == 0 {
		fmt.Println("all shards present and intact; nothing to repair")
		return nil
	}
	fmt.Printf("repaired %d shard(s): %v\n", len(healed), healed)
	return nil
}

func cmdEncode(args []string) error {
	fs := flag.NewFlagSet("encode", flag.ExitOnError)
	in := fs.String("in", "", "input file")
	dir := fs.String("dir", "", "output shard directory")
	k := fs.Int("k", 10, "data shards")
	r := fs.Int("r", 4, "parity shards")
	unit := fs.Int("unit", 128<<10, "unit size in bytes")
	workers := fs.Int("stream-workers", 0, "size of the encode worker pool (0 = default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *dir == "" {
		return fmt.Errorf("encode: -in and -dir required")
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}
	sched := gemmec.NewScheduler(gemmec.SchedulerConfig{Workers: *workers})
	defer sched.Close()
	m, st, err := shardfile.WriteStreamPaths(shardfile.DirPaths(*dir, *k+*r), f, fi.Size(),
		*k, *r, *unit, 0, shardfile.Opts{Sched: sched})
	if err != nil {
		return err
	}
	if err := shardfile.SaveManifest(*dir, m); err != nil {
		return err
	}
	fmt.Printf("encoded %d bytes into %d+%d shards x %d stripes under %s\n",
		m.FileSize, m.K, m.R, m.Stripes, *dir)
	printStats(st)
	return nil
}

// printStats summarizes a streaming run's pipeline statistics: how it ran
// (pool size and ring depth, or 1/1 for a run short enough to stay on the
// caller's goroutine) and where the time went — kernel vs I/O tells the
// operator whether more -stream-workers would help.
func printStats(st gemmec.StreamStats) {
	fmt.Printf("pipeline: %d workers depth %d, %d stripes in %v (read stall %v, encode stall %v, write stall %v)\n",
		st.Workers, st.Depth, st.Stripes, st.Elapsed, st.ReadStall, st.EncodeStall, st.WriteStall)
}

func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	dir := fs.String("dir", "", "shard directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("verify: -dir required")
	}
	if err := shardfile.Verify(*dir); err != nil {
		return err
	}
	m, err := shardfile.LoadManifest(*dir)
	if err != nil {
		return err
	}
	fmt.Printf("verified %d stripes: OK\n", m.Stripes)
	return nil
}

func cmdDecode(args []string) error {
	fs := flag.NewFlagSet("decode", flag.ExitOnError)
	dir := fs.String("dir", "", "shard directory")
	out := fs.String("out", "", "output file")
	workers := fs.Int("stream-workers", 0, "size of the reconstruction worker pool (0 = default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" || *out == "" {
		return fmt.Errorf("decode: -dir and -out required")
	}
	m, err := shardfile.LoadManifest(*dir)
	if err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	sched := gemmec.NewScheduler(gemmec.SchedulerConfig{Workers: *workers})
	defer sched.Close()
	sr, err := shardfile.OpenStreamPaths(shardfile.DirPaths(*dir, m.K+m.R), m, shardfile.Opts{Sched: sched})
	if err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	defer sr.Close()
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := sr.Decode(f, 0)
	if err != nil {
		// The output file holds a partial, useless prefix; remove it so
		// scripts cannot mistake it for a successful decode, and wrap the
		// cause so errors.Is classification (ErrTooFewShards,
		// ErrCorruptShard, ...) survives to the caller.
		f.Close()
		os.Remove(*out)
		return fmt.Errorf("decode: stream decode of %s failed mid-file: %w", *dir, err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("decoded %d bytes to %s (reconstructed shards: %v)\n", m.FileSize, *out, sr.Unusable())
	printStats(st)
	return nil
}

// cliContext is the lifetime of one server-talking command: Ctrl-C (or
// SIGTERM) cancels it, and -timeout (when positive) bounds it. The
// returned context rides the HTTP request, so canceling mid-transfer
// tears the connection down and the server abandons the request's
// pipeline instead of encoding for a client that left.
func cliContext(timeout time.Duration) (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	if timeout <= 0 {
		return ctx, stop
	}
	tctx, cancel := context.WithTimeout(ctx, timeout)
	return tctx, func() { cancel(); stop() }
}

// objectURL joins the server base URL and the object name.
func objectURL(server, name string) (string, error) {
	if server == "" {
		return "", fmt.Errorf("-server required (e.g. http://localhost:8080)")
	}
	if name == "" {
		return "", fmt.Errorf("-name required")
	}
	return strings.TrimSuffix(server, "/") + "/o/" + url.PathEscape(name), nil
}

// httpError turns a non-2xx response into an error carrying the server's
// message.
func httpError(op string, resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	return fmt.Errorf("%s: server returned %s: %s", op, resp.Status, strings.TrimSpace(string(body)))
}

// doRetry429 runs build to make a fresh request and sends it, honoring
// admission-control shedding: a 429 response is retried up to retries
// times, sleeping whatever the server's Retry-After header asks (default
// 1s) between attempts. Only 429 is retried here — transport errors and
// other statuses keep their original fail-fast behavior — and build runs
// once per attempt so a retried PUT re-reads its (rewound) body.
func doRetry429(ctx context.Context, retries int, build func() (*http.Request, error)) (*http.Response, error) {
	for attempt := 0; ; attempt++ {
		req, err := build()
		if err != nil {
			return nil, err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusTooManyRequests || attempt >= retries {
			return resp, nil
		}
		delay := time.Second
		if s := resp.Header.Get("Retry-After"); s != "" {
			if secs, err := strconv.Atoi(s); err == nil && secs > 0 {
				delay = time.Duration(secs) * time.Second
			}
		}
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096)) //nolint:errcheck
		resp.Body.Close()
		fmt.Fprintf(os.Stderr, "eccli: server overloaded (429), retrying in %v (attempt %d of %d)\n",
			delay, attempt+1, retries)
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(delay):
		}
	}
}

// putResponse mirrors the server's PUT reply; Stats carries the encode
// pipeline's accounting for -v.
type putResponse struct {
	Name    string `json:"name"`
	Size    int64  `json:"size"`
	Stripes int    `json:"stripes"`
	Stats   *struct {
		Stripes     int64  `json:"stripes"`
		ReadStall   string `json:"read_stall"`
		EncodeStall string `json:"encode_stall"`
		WriteStall  string `json:"write_stall"`
		Elapsed     string `json:"elapsed"`
		Demoted     int    `json:"demoted"`
	} `json:"stats"`
}

func cmdPut(args []string) error {
	fs := flag.NewFlagSet("put", flag.ExitOnError)
	server := fs.String("server", "", "ecserver base URL")
	name := fs.String("name", "", "object name")
	in := fs.String("in", "", "input file (default: stdin)")
	verbose := fs.Bool("v", false, "print the server's stream statistics to stderr")
	timeout := fs.Duration("timeout", 0, "abort the upload after this long (0 = no deadline; Ctrl-C always cancels)")
	retries := fs.Int("retries", 3,
		"retry a 429-shed request this many times, honoring the server's Retry-After (stdin uploads never retry: the body cannot be replayed)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	u, err := objectURL(*server, *name)
	if err != nil {
		return fmt.Errorf("put: %w", err)
	}
	ctx, cancel := cliContext(*timeout)
	defer cancel()
	var f *os.File
	size := int64(-1)
	if *in != "" {
		f, err = os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		fi, err := f.Stat()
		if err != nil {
			return err
		}
		size = fi.Size()
	} else {
		// A stdin body cannot be rewound for a second attempt.
		*retries = 0
	}
	resp, err := doRetry429(ctx, *retries, func() (*http.Request, error) {
		src := io.Reader(os.Stdin)
		if f != nil {
			if _, err := f.Seek(0, io.SeekStart); err != nil {
				return nil, err
			}
			src = f
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPut, u, src)
		if err != nil {
			return nil, err
		}
		req.ContentLength = size
		return req, nil
	})
	if err != nil {
		return fmt.Errorf("put: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return httpError("put", resp)
	}
	var pr putResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil && *verbose {
		fmt.Fprintf(os.Stderr, "eccli: cannot parse put response: %v\n", err)
	}
	io.Copy(io.Discard, resp.Body)
	fmt.Printf("put %q to %s\n", *name, *server)
	if *verbose {
		if id := resp.Header.Get("X-Gemmec-Request-Id"); id != "" {
			fmt.Fprintf(os.Stderr, "eccli: request id %s\n", id)
		}
		printTraceURL(*server, resp)
		if st := pr.Stats; st != nil {
			fmt.Fprintf(os.Stderr,
				"eccli: server encode: %d stripes in %s (read stall %s, encode stall %s, write stall %s)\n",
				st.Stripes, st.Elapsed, st.ReadStall, st.EncodeStall, st.WriteStall)
		}
	}
	return nil
}

func cmdGet(args []string) error {
	fs := flag.NewFlagSet("get", flag.ExitOnError)
	server := fs.String("server", "", "ecserver base URL")
	name := fs.String("name", "", "object name")
	out := fs.String("out", "", "output file (default: stdout)")
	verbose := fs.Bool("v", false, "print the stream's trailer statistics (stalls, demotions) to stderr")
	rng := fs.String("range", "",
		"byte range to fetch: \"a-b\" (inclusive), \"a-\" (from a to end) or \"-n\" (final n bytes); sent as an HTTP Range request")
	timeout := fs.Duration("timeout", 0, "abort the download after this long (0 = no deadline; Ctrl-C always cancels)")
	retries := fs.Int("retries", 3,
		"retry a 429-shed request this many times, honoring the server's Retry-After")
	if err := fs.Parse(args); err != nil {
		return err
	}
	u, err := objectURL(*server, *name)
	if err != nil {
		return fmt.Errorf("get: %w", err)
	}
	ctx, cancel := cliContext(*timeout)
	defer cancel()
	resp, err := doRetry429(ctx, *retries, func() (*http.Request, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
		if err != nil {
			return nil, err
		}
		if *rng != "" {
			req.Header.Set("Range", "bytes="+*rng)
		}
		return req, nil
	})
	if err != nil {
		return fmt.Errorf("get: %w", err)
	}
	defer resp.Body.Close()
	// A ranged request normally answers 206; a server without range
	// support answers 200 with the full body, which is still a correct
	// (if bigger) response, so both are accepted.
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusPartialContent {
		return httpError("get", resp)
	}
	if *rng != "" && resp.StatusCode == http.StatusOK {
		fmt.Fprintln(os.Stderr, "eccli: server ignored the range request; fetching the whole object")
	}
	dst := io.Writer(os.Stdout)
	var f *os.File
	if *out != "" {
		f, err = os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		dst = f
	}
	n, err := io.Copy(dst, resp.Body)
	if err != nil {
		// Mid-body failure: the server hit an unrecoverable decode (or the
		// connection died) after the headers. Never leave a partial file
		// behind looking like a success.
		if f != nil {
			f.Close()
			os.Remove(*out)
		}
		return fmt.Errorf("get: stream decode of %q failed mid-file after %d bytes: %w", *name, n, err)
	}
	if f != nil {
		if err := f.Close(); err != nil {
			return err
		}
	}
	// The headers carry the open-time state; the trailers (available only
	// now, after the body) carry the final truth, including shards the
	// server demoted mid-stream while verifying units inside the decode.
	degraded := resp.Header.Get("X-Gemmec-Degraded") == "true"
	reconstructed := resp.Header.Get("X-Gemmec-Reconstructed")
	if v := resp.Trailer.Get("X-Gemmec-Degraded"); v != "" {
		degraded = v == "true"
	}
	if v := resp.Trailer.Get("X-Gemmec-Reconstructed"); v != "" {
		reconstructed = v
	}
	if degraded {
		fmt.Fprintf(os.Stderr, "eccli: degraded read: server reconstructed shard(s) %s\n", reconstructed)
	}
	if *verbose {
		if id := resp.Header.Get("X-Gemmec-Request-Id"); id != "" {
			fmt.Fprintf(os.Stderr, "eccli: request id %s\n", id)
		}
		printTraceURL(*server, resp)
		if cr := resp.Header.Get("Content-Range"); cr != "" {
			fmt.Fprintf(os.Stderr, "eccli: served %s\n", cr)
		}
		fmt.Fprintf(os.Stderr,
			"eccli: server decode: %s stripes (read stall %s, decode stall %s, write stall %s)\n",
			orDash(resp.Trailer.Get("X-Gemmec-Stripes")),
			orDash(resp.Trailer.Get("X-Gemmec-Stall-Read")),
			orDash(resp.Trailer.Get("X-Gemmec-Stall-Encode")),
			orDash(resp.Trailer.Get("X-Gemmec-Stall-Write")))
		if d := resp.Trailer.Get("X-Gemmec-Demoted"); d != "" {
			fmt.Fprintf(os.Stderr, "eccli: server demoted %s shard(s) mid-stream\n", d)
		}
	}
	if *out != "" {
		fmt.Fprintf(os.Stderr, "got %d bytes to %s\n", n, *out)
	}
	return nil
}

// patchResponse mirrors the server's PATCH reply.
type patchResponse struct {
	Name           string `json:"name"`
	Size           int64  `json:"size"`
	Length         int    `json:"length"`
	Stripes        int    `json:"stripes"`
	Offset         int64  `json:"offset"`
	InPlace        bool   `json:"in_place"`
	TouchedStripes int    `json:"touched_stripes"`
	DataBytes      int64  `json:"data_bytes"`
	ParityBytes    int64  `json:"parity_bytes"`
	Fallback       string `json:"fallback"`
}

// cmdPatch implements both the patch verb (splice bytes at -at) and the
// append verb (add bytes at the end). The body is read fully up front:
// PATCH bodies are small writes by design (the server bounds them), and
// the length is needed for the Content-Range header anyway.
func cmdPatch(args []string, appendMode bool) error {
	verb := "patch"
	if appendMode {
		verb = "append"
	}
	fs := flag.NewFlagSet(verb, flag.ExitOnError)
	server := fs.String("server", "", "ecserver base URL")
	name := fs.String("name", "", "object name")
	in := fs.String("in", "", "input file (default: stdin)")
	var at *int64
	if !appendMode {
		at = fs.Int64("at", -1, "byte offset to splice the body at (required; may not exceed the object's size)")
	}
	verbose := fs.Bool("v", false, "print the server's patch accounting to stderr")
	timeout := fs.Duration("timeout", 0, "abort after this long (0 = no deadline; Ctrl-C always cancels)")
	retries := fs.Int("retries", 3,
		"retry a 429-shed request this many times, honoring the server's Retry-After")
	if err := fs.Parse(args); err != nil {
		return err
	}
	u, err := objectURL(*server, *name)
	if err != nil {
		return fmt.Errorf("%s: %w", verb, err)
	}
	if !appendMode && *at < 0 {
		return fmt.Errorf("patch: -at required (use the append verb to write at the end)")
	}
	src := io.Reader(os.Stdin)
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		src = f
	}
	data, err := io.ReadAll(src)
	if err != nil {
		return fmt.Errorf("%s: reading input: %w", verb, err)
	}
	if len(data) == 0 && !appendMode {
		return fmt.Errorf("patch: empty input")
	}
	ctx, cancel := cliContext(*timeout)
	defer cancel()
	resp, err := doRetry429(ctx, *retries, func() (*http.Request, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPatch, u, bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		req.ContentLength = int64(len(data))
		if appendMode {
			req.Header.Set("X-Gemmec-Append", "true")
		} else {
			req.Header.Set("Content-Range", fmt.Sprintf("bytes %d-%d/*", *at, *at+int64(len(data))-1))
		}
		return req, nil
	})
	if err != nil {
		return fmt.Errorf("%s: %w", verb, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return httpError(verb, resp)
	}
	var pr patchResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		return fmt.Errorf("%s: cannot parse response: %w", verb, err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	switch {
	case pr.Fallback != "":
		fmt.Printf("%sed %q: %d bytes at offset %d (object re-encoded: %s fallback), now %d bytes\n",
			verb, *name, pr.Length, pr.Offset, pr.Fallback, pr.Size)
	default:
		fmt.Printf("%sed %q: %d bytes at offset %d in place (%d of %d stripes touched), now %d bytes\n",
			verb, *name, pr.Length, pr.Offset, pr.TouchedStripes, pr.Stripes, pr.Size)
	}
	if *verbose {
		if id := resp.Header.Get("X-Gemmec-Request-Id"); id != "" {
			fmt.Fprintf(os.Stderr, "eccli: request id %s\n", id)
		}
		printTraceURL(*server, resp)
		fmt.Fprintf(os.Stderr, "eccli: server wrote %d data + %d parity bytes\n",
			pr.DataBytes, pr.ParityBytes)
	}
	return nil
}

// printTraceURL points -v output at the server's recorded span waterfall
// when this request was traced (the server sets X-Gemmec-Trace only on
// requests it head-sampled into the /tracez flight recorder).
func printTraceURL(server string, resp *http.Response) {
	id := resp.Header.Get(obs.TraceHeader)
	if id == "" {
		return
	}
	fmt.Fprintf(os.Stderr, "eccli: trace %s/tracez?trace=%s\n",
		strings.TrimRight(server, "/"), id)
}

// orDash substitutes "-" for trailer values an older server did not send.
func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
