package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"gemmec/internal/obs"
	"gemmec/internal/shardfile"
)

// Ranged reads and stripe-granular small writes.
//
// OpenRange serves an HTTP Range request by reading only the data units
// inside the window (the shardfile read plan), so a 64 KiB tail read of a
// gigabyte object costs 64 KiB of shard I/O, not the whole object and not
// its parity.
//
// Patch is the write-side dual. On a Store a small overwrite or append
// re-encodes only the touched stripes, XOR-patching their parity units
// from the data delta (shardfile.PlanPatch / core.Engine.UpdateParity)
// instead of re-encoding the object. The commit protocol keeps the object
// crash-atomic without a new shard generation:
//
//  1. plan     — pure read: verified old units -> writes + new manifest
//  2. journal  — the plan is persisted at meta/<key>.patch (tmp + rename,
//     the durability point; failure before it aborts with the old object
//     fully intact)
//  3. apply    — in-place idempotent shard-file writes
//  4. commit   — the metadata rename publishes the new manifest
//  5. clear    — the journal is removed
//
// A crash between 2 and 5 leaves the journal behind; recoverPatches
// (store open and every scrub sweep) replays it — apply is idempotent and
// the journal carries the full write list — rolling the patch forward.
// Journals are generation-guarded: one that no longer matches the live
// object (overwritten, deleted, repacked) is discarded instead.
//
// Shard sets that cannot be patched in place — packed slab members, sets
// with missing, short or rotten units, and every cluster object — fall
// back to the front's read-modify-write through the
// regular commit (new generation, metadata commit, old shards removed
// after it).

// ErrRangeNotSatisfiable reports a requested byte range no part of which
// exists — the HTTP layer's 416.
var ErrRangeNotSatisfiable = errors.New("server: requested range not satisfiable")

// RangeError is an unsatisfiable range carrying the object's size, so the
// HTTP layer can answer with "Content-Range: bytes */<size>" per RFC 9110.
type RangeError struct{ Size int64 }

func (e *RangeError) Error() string {
	return fmt.Sprintf("server: requested range not satisfiable (object is %d bytes)", e.Size)
}

func (e *RangeError) Unwrap() error { return ErrRangeNotSatisfiable }

// resolveRange resolves an (off, length) range request against an object
// of size bytes, in the OpenRange convention: off == -1 requests the
// final length bytes (an RFC 9110 suffix range), length == -1 requests
// everything from off to the end, and a length overshooting the end is
// clamped. The resolved window is never empty; a request no byte of which
// exists fails with a *RangeError.
func resolveRange(off, length, size int64) (int64, int64, error) {
	switch {
	case size == 0:
		// No bytes exist, so no range over them is satisfiable.
		return 0, 0, &RangeError{Size: size}
	case off < 0: // suffix: the final length bytes
		if length <= 0 {
			return 0, 0, &RangeError{Size: size}
		}
		if length > size {
			length = size
		}
		return size - length, length, nil
	case off >= size:
		return 0, 0, &RangeError{Size: size}
	case length < 0 || length > size-off:
		return off, size - off, nil
	default:
		if length == 0 {
			return 0, 0, &RangeError{Size: size}
		}
		return off, length, nil
	}
}

// PatchStats describes how a Patch landed.
type PatchStats struct {
	// Offset is the resolved payload offset the patch was applied at
	// (appends resolve to the pre-patch size).
	Offset int64 `json:"offset"`
	// InPlace reports the stripe-granular path: only the touched stripes'
	// data units and their XOR-patched parity units were rewritten.
	InPlace bool `json:"in_place"`
	// TouchedStripes / DataBytes / ParityBytes account the in-place write
	// set (zero for fallbacks).
	TouchedStripes int   `json:"touched_stripes,omitempty"`
	DataBytes      int64 `json:"data_bytes,omitempty"`
	ParityBytes    int64 `json:"parity_bytes,omitempty"`
	// Fallback names why the patch fell back to read-modify-write:
	// "slab" (packed member), "degraded" (a missing, short or rotten unit
	// the patch needed) or "rmw" (a cluster object, never patched in
	// place). Empty when InPlace.
	Fallback string `json:"fallback,omitempty"`
}

// WriteBytes is the shard bytes the in-place patch wrote.
func (ps PatchStats) WriteBytes() int64 { return ps.DataBytes + ps.ParityBytes }

// patchJournal is the durable redo record of an in-place patch: the
// post-patch metadata and the exact shard-file writes. Written to
// meta/<key>.patch before any shard byte changes; replayed by
// recoverPatches when a crash strands it.
type patchJournal struct {
	Key string `json:"key"`
	// Gen is the generation the writes target. The patch commits in
	// place — same generation, same shard paths — so a journal is valid
	// exactly while the live object still sits at this generation.
	Gen    int64                  `json:"gen"`
	Meta   ObjectMeta             `json:"meta"`
	Writes []shardfile.ShardWrite `json:"writes"`
}

func (s *Store) patchJournalPath(key string) string {
	return filepath.Join(s.metaDir(), key+".patch")
}

// clearPatchJournal best-effort removes key's patch journal. Called
// wherever the object moves past the generation a stranded journal could
// target — successful patch commit, overwrite, delete — so stale
// journals cannot outlive the state they describe.
func (s *Store) clearPatchJournal(key string) {
	os.Remove(s.patchJournalPath(key))
	os.Remove(s.patchJournalPath(key) + ".tmp")
}

// patchInPlace implements storage: a dedicated shard set is patched
// stripe-granularly in place — only the touched data units and their
// XOR-patched parity units are rewritten, journaled first so a crash
// mid-apply rolls forward, and the metadata rename commits. Slab members
// and sets PlanPatch refuses (missing, short or rotten units) are
// declined for the read-modify-write.
func (s *Store) patchInPlace(ctx context.Context, key string, old ObjectMeta, off int64, data []byte) (ObjectMeta, PatchStats, error) {
	if old.Slab != nil {
		return ObjectMeta{}, PatchStats{Fallback: "slab"}, nil
	}
	paths := s.shardPaths(key, old)
	psp := obs.StartSpan(ctx, "patch.plan")
	plan, err := shardfile.PlanPatch(paths, old.Manifest, off, data, s.fileOpts(ctx))
	psp.End(err)
	if errors.Is(err, shardfile.ErrPatchUnsupported) {
		return ObjectMeta{}, PatchStats{Fallback: "degraded"}, nil
	}
	if err != nil {
		return ObjectMeta{}, PatchStats{}, err
	}
	meta := old
	meta.Manifest = plan.Manifest
	if err := s.commitPatch(ctx, key, meta, paths, plan); err != nil {
		return ObjectMeta{}, PatchStats{}, err
	}
	return meta, PatchStats{InPlace: true, TouchedStripes: plan.TouchedStripes,
		DataBytes: plan.DataBytes, ParityBytes: plan.ParityBytes}, nil
}

// applyOpts is fileOpts without the request context: once a patch is
// journaled it must roll forward — a client disconnect mid-apply must not
// strand half-applied stripes for recovery to redo later when redoing
// them now is cheaper and keeps the object readable.
func (s *Store) applyOpts() shardfile.Opts {
	return shardfile.Opts{FS: s.cfg.FS, Sched: s.sched, Source: s.codes}
}

// commitPatch runs steps 2–5 of the patch protocol: journal the plan
// durably, apply it in place, commit the metadata, clear the journal. A
// failure before the journal rename aborts cleanly (nothing on disk
// changed); after it, the patch is retried once and otherwise left for
// recoverPatches to roll forward.
func (s *Store) commitPatch(ctx context.Context, key string, meta ObjectMeta, paths []string, plan *shardfile.Patch) error {
	rec := patchJournal{Key: key, Gen: meta.Gen, Meta: meta, Writes: plan.Writes}
	b, err := json.Marshal(&rec)
	if err != nil {
		return err
	}
	jp := s.patchJournalPath(key)
	if err := os.WriteFile(jp+".tmp", b, 0o644); err != nil {
		return err
	}
	jsp := obs.StartSpan(ctx, "patch.journal")
	err = os.Rename(jp+".tmp", jp)
	jsp.End(err)
	if err != nil {
		os.Remove(jp + ".tmp")
		return err
	}
	asp := obs.StartSpan(ctx, "patch.apply")
	err = shardfile.ApplyPatch(paths, plan, s.applyOpts())
	asp.End(err)
	if err == nil {
		csp := obs.StartSpan(ctx, "meta.commit")
		err = s.saveMeta(key, meta)
		csp.End(err)
	}
	if err != nil {
		// The journal is durable, so roll forward: one immediate replay;
		// a persistent failure leaves the journal for recovery (store
		// open or the next scrub sweep) and reports the original error.
		if rerr := s.replayPatch(key, rec); rerr != nil {
			return fmt.Errorf("server: patch of %s journaled but not applied (recovery will replay): %w", key, err)
		}
		return nil
	}
	os.Remove(jp)
	return nil
}

// replayPatch re-applies a journaled patch and commits its metadata,
// clearing the journal on success. ApplyPatch is idempotent, so replaying
// over fully- or partially-applied shards converges.
func (s *Store) replayPatch(key string, rec patchJournal) error {
	plan := &shardfile.Patch{Manifest: rec.Meta.Manifest, Writes: rec.Writes}
	if err := shardfile.ApplyPatch(s.shardPaths(key, rec.Meta), plan, s.applyOpts()); err != nil {
		return err
	}
	if err := s.saveMeta(key, rec.Meta); err != nil {
		return err
	}
	os.Remove(s.patchJournalPath(key))
	return nil
}

// recoverPatches rolls forward (or discards, when stale) every patch
// journal in cat, and removes cat's temp files: a metadata or journal
// temp file that was never renamed was never durable, so the write that
// left it failed before its commit point. Each key is handled under its
// write lock, which every writer of its metadata holds, so no write in
// flight loses its temp file. Runs at store open — before any request can
// observe a half-applied patch — and at the start of every scrub sweep.
// Returns how many journals were replayed.
func (s *Store) recoverPatches(ctx context.Context, cat catalog) int {
	for _, file := range cat.tmps {
		key, _, _ := strings.Cut(file, ".")
		l := s.lockKey(key)
		os.Remove(filepath.Join(s.metaDir(), file))
		l.Unlock()
	}
	replayed := 0
	for _, key := range cat.journals {
		if ctx.Err() != nil {
			break
		}
		l := s.lockKey(key)
		if s.replayJournal(key) {
			replayed++
		}
		l.Unlock()
	}
	return replayed
}

// replayJournal loads key's journal and replays it when it still applies:
// the object exists, is not a tombstone or slab member, and sits at the
// generation the journal targets. Anything else means the journal lost a
// race it cannot win (the object was overwritten, deleted or repacked
// after the journal landed), so it is discarded. Caller holds the
// object's exclusive lock.
func (s *Store) replayJournal(key string) bool {
	jp := s.patchJournalPath(key)
	b, err := os.ReadFile(jp)
	if err != nil {
		return false
	}
	var rec patchJournal
	if err := json.Unmarshal(b, &rec); err != nil || rec.Meta.validate() != nil {
		os.Remove(jp)
		return false
	}
	cur, err := s.loadMeta(key)
	if err != nil || cur.Deleted || cur.Slab != nil || cur.Gen != rec.Gen {
		os.Remove(jp)
		return false
	}
	if err := s.replayPatch(key, rec); err != nil {
		s.scrubErrors.Add(1)
		return false
	}
	return true
}

// patchWindow resolves a patch of n bytes at off (off < 0 appends)
// against an object of size bytes: the resolved offset and the post-patch
// size (objects grow, never shrink). An offset past the end fails with a
// *RangeError.
func patchWindow(size, off int64, n int) (resolved, newSize int64, err error) {
	if off < 0 {
		off = size
	}
	if off > size {
		return 0, 0, fmt.Errorf("server: patch at offset %d beyond object of %d bytes: %w",
			off, size, &RangeError{Size: size})
	}
	return off, max(size, off+int64(n)), nil
}

// spliceOld is the read half of a read-modify-write patch: it returns a
// reader of old[0:off] ++ data ++ old[off+len(data):], where old is the
// payload decode streams — on its own goroutine, through a pipe, so the
// caller's re-encode consumes it as it is produced. The caller must call
// stop once the encode returns: it unblocks the producer if the encode
// quit early and waits for it to finish.
func spliceOld(off int64, data []byte, decode func(io.Writer) error) (src io.Reader, stop func()) {
	pr, pw := io.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		pw.CloseWithError(decode(pw))
	}()
	src = io.MultiReader(
		io.LimitReader(pr, off),
		bytes.NewReader(data),
		&skipReader{r: pr, skip: int64(len(data))},
	)
	return src, func() { pr.Close(); <-done }
}

// skipReader discards the first skip bytes of r — the old bytes the patch
// overwrote — and passes the rest through. EOF inside the skip window is
// clean: the patch grew the object past the old end.
type skipReader struct {
	r    io.Reader
	skip int64
}

func (d *skipReader) Read(p []byte) (int, error) {
	for d.skip > 0 {
		n := int64(len(p))
		if n > d.skip {
			n = d.skip
		}
		m, err := d.r.Read(p[:n])
		d.skip -= int64(m)
		if err != nil {
			if errors.Is(err, io.EOF) {
				d.skip = 0
			}
			return 0, err
		}
	}
	return d.r.Read(p)
}
