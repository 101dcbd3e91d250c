package shardfile

import (
	"bufio"
	"errors"
	"fmt"
	"io"

	"gemmec"
	"gemmec/internal/vfs"
)

// walk is the repair core: it visits every stripe of the set in order,
// reading every shard the open-time probe found usable — the full plan.
// Per stripe it reads one unit from each usable source into a stripe
// buffer (pooled when opt.Source is set), checks it against the manifest's
// CRC32C (Manifest.VerifyUnit), and hands visit the k+r cells: cells[i]
// is shard i's unit, a slice of raw (the whole stripe, data units first),
// emptied — length 0, capacity kept, which tells Reconstruct to rebuild it
// in place — where it cannot be trusted. A unit failing its checksum empties that cell
// only; a read error or short read drops the shard for the rest of the
// walk, as decode's demotion does; either marks the shard unusable. A
// stripe with more than r empty cells fails the walk (see tooFew), and
// opt.Ctx is observed between stripes. A reader walks at most once.
func (sr *StreamReader) walk(visit func(stripe int, raw []byte, cells [][]byte) error) error {
	m, unit := sr.m, sr.m.UnitSize
	raw, release := sr.opt.stripeBuf(m.K, m.R, unit)
	defer release()
	cells := make([][]byte, m.K+m.R)
	readers := make([]io.Reader, m.K+m.R)
	for i := range readers {
		if sr.lost[i] {
			continue
		}
		rd, err := sr.source(i, 0, int64(m.Stripes))
		if err != nil {
			sr.unusable = appendShard(sr.unusable, i) // present at the probe, gone now
			continue
		}
		readers[i] = rd
	}
	for s := 0; s < m.Stripes; s++ {
		if err := sr.opt.ctxErr(); err != nil {
			return err
		}
		usable := 0
		for i := range cells {
			cell := raw[i*unit : (i+1)*unit]
			cells[i] = cell[:0]
			if readers[i] == nil {
				continue
			}
			if _, err := io.ReadFull(readers[i], cell); err != nil {
				readers[i] = nil
				sr.unusable = appendShard(sr.unusable, i)
				if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
					sr.corrupt = appendShard(sr.corrupt, i) // shorter than the manifest promises
				}
			} else if m.VerifyUnit(i, int64(s), cell) != nil {
				sr.unusable = appendShard(sr.unusable, i)
				sr.corrupt = appendShard(sr.corrupt, i)
			} else {
				cells[i] = cell
				usable++
			}
		}
		if usable < m.K {
			return fmt.Errorf("stripe %d: %w", s, sr.tooFew(usable))
		}
		if err := visit(s, raw, cells); err != nil {
			return err
		}
	}
	return nil
}

// tooFew is the error for a shard set — or one stripe of it — left with
// fewer than k usable shards: it wraps gemmec.ErrTooFewShards, and
// gemmec.ErrCorruptShard when verification failures contributed.
func (sr *StreamReader) tooFew(usable int) error {
	n := sr.m.K + sr.m.R
	if len(sr.corrupt) > 0 {
		return fmt.Errorf("shardfile: shards %v failed verification (%w); only %d of %d usable, need k=%d: %w",
			sr.corrupt, gemmec.ErrCorruptShard, usable, n, sr.m.K, gemmec.ErrTooFewShards)
	}
	return fmt.Errorf("shardfile: only %d of %d shards usable (missing %v), need k=%d: %w",
		usable, n, sr.unusable, sr.m.K, gemmec.ErrTooFewShards)
}

// Scan reads and checks every unit of the set and returns the shards that
// carry damage: unusable at open, unreadable, or failing a unit checksum
// anywhere (Unusable reports the same set afterwards). Nothing is
// reconstructed; a set with a stripe no repair could rebuild fails.
func (sr *StreamReader) Scan() ([]int, error) {
	if err := sr.walk(func(int, []byte, [][]byte) error { return nil }); err != nil {
		return nil, err
	}
	return sr.unusable, nil
}

// RepairTo rebuilds the shards ws has a writer for (k+r entries, nil where
// nothing is to be written) and streams each to its writer whole: per
// stripe a target's own unit is passed through when it verifies and
// reconstructed when it does not. A reconstructed unit that disagrees with
// its manifest sum fails the repair rather than being written.
// Each writer gets a pooled bufio layer, flushed before return. After an
// error nothing written is fit to keep; committing or discarding the
// sinks is the caller's job.
func (sr *StreamReader) RepairTo(ws []io.Writer) error {
	m := sr.m
	if len(ws) != m.K+m.R {
		return fmt.Errorf("shardfile: %d repair targets for k+r=%d", len(ws), m.K+m.R)
	}
	code, err := sr.opt.code(m.K, m.R, m.UnitSize)
	if err != nil {
		return err
	}
	bws := make([]*bufio.Writer, len(ws))
	for t, w := range ws {
		if w == nil {
			continue
		}
		bws[t] = getBufWriter(w)
		defer putBufWriter(bws[t])
	}
	rebuilt := make([]int, 0, len(ws))
	err = sr.walk(func(s int, _ []byte, cells [][]byte) error {
		rebuilt = rebuilt[:0]
		for t, bw := range bws {
			if bw != nil && len(cells[t]) == 0 {
				rebuilt = append(rebuilt, t)
			}
		}
		if len(rebuilt) > 0 {
			if err := code.Reconstruct(cells); err != nil {
				return fmt.Errorf("shardfile: stripe %d: %w", s, err)
			}
		}
		for _, t := range rebuilt {
			if err := m.VerifyUnit(t, int64(s), cells[t]); err != nil {
				return fmt.Errorf("shardfile: rebuilt unit fails its manifest checksum (manifest corrupt?): %w", err)
			}
		}
		for t, bw := range bws {
			if bw == nil {
				continue
			}
			if _, err := bw.Write(cells[t]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, bw := range bws {
		if bw == nil {
			continue
		}
		if err := bw.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// ErrCorrupt reports a parity mismatch found by Verify.
var ErrCorrupt = errors.New("shardfile: parity mismatch")

// Verify checks that every stripe's parity matches its data — an
// end-to-end check of the code itself, on top of the unit checksums every
// walk checks. All shards must be present.
func Verify(dir string) error {
	m, err := LoadManifest(dir)
	if err != nil {
		return err
	}
	sr, err := openFullPaths(DirPaths(dir, m.K+m.R), m, Opts{})
	if err != nil {
		return err
	}
	defer sr.Close()
	if len(sr.unusable) > 0 {
		return fmt.Errorf("shardfile: missing shards %v (repair first)", sr.unusable)
	}
	code, err := sr.opt.code(m.K, m.R, m.UnitSize)
	if err != nil {
		return err
	}
	return sr.walk(func(s int, raw []byte, _ [][]byte) error {
		if len(sr.unusable) > 0 {
			return fmt.Errorf("stripe %d: shards %v unreadable or failing their checksums: %w", s, sr.unusable, ErrCorrupt)
		}
		ok, err := code.Verify(raw[:code.DataSize()], raw[code.DataSize():])
		if err == nil && !ok {
			err = fmt.Errorf("stripe %d: %w", s, ErrCorrupt)
		}
		return err
	})
}

// ScrubPaths detects shard corruption by checksum and heals it: any shard
// file with a unit that fails its manifest CRC32C, plus any missing or
// wrong-length shard, is rebuilt from the surviving shards and rewritten;
// it returns the shard indices that were healed. Checksum failures in the
// returned errors wrap ecerr.ErrCorruptShard.
//
// It is the file instantiation of the repair core: one pass scans for
// damage, and only a damaged set is opened again and repaired — into
// temporary files renamed into place once the whole repair succeeded, as
// WriteStreamPaths commits, so a concurrent reader never observes a
// half-rebuilt shard and a failed or canceled scrub leaves every shard
// file as it was. Memory is one stripe, whatever the object's size.
//
// The ≤ r erasure budget applies per stripe rather than per shard: a set
// where more than r shards each carry some rot still heals as long as no
// single stripe lost more than r units.
func ScrubPaths(paths []string, m Manifest, opt Opts) ([]int, error) {
	// Scrub reads are unguarded: a disk that answers late is slow, not
	// damaged (see ecerr.ErrShardStall), and must not be rewritten.
	opt.ShardReadTimeout = 0
	sr, err := openFullPaths(paths, m, opt)
	if err != nil {
		return nil, err
	}
	damaged, err := sr.Scan()
	sr.Close()
	if err != nil || len(damaged) == 0 {
		return nil, err
	}
	if sr, err = openFullPaths(paths, m, opt); err != nil {
		return nil, err
	}
	defer sr.Close()
	if err := writeShardFiles(opt.fs(), paths, damaged, sr.RepairTo); err != nil {
		return nil, err
	}
	return damaged, nil
}

// writeShardFiles is how shard files are committed: fill streams into a
// temporary file next to each of the paths idx names (ws[i] is nil for
// the others), and only when it succeeds is every file closed and renamed
// into place. A failure removes every temporary file not yet renamed.
func writeShardFiles(fsys vfs.FS, paths []string, idx []int, fill func(ws []io.Writer) error) error {
	files := make([]vfs.File, len(paths))
	ws := make([]io.Writer, len(paths))
	defer func() {
		for _, f := range files {
			if f != nil {
				f.Close()
				fsys.Remove(f.Name())
			}
		}
	}()
	for _, i := range idx {
		f, err := fsys.Create(paths[i] + ".tmp")
		if err != nil {
			return err
		}
		files[i], ws[i] = f, f
	}
	if err := fill(ws); err != nil {
		return err
	}
	for _, i := range idx {
		if err := files[i].Close(); err != nil {
			return err
		}
	}
	for _, i := range idx {
		if err := fsys.Rename(paths[i]+".tmp", paths[i]); err != nil {
			return err
		}
		files[i] = nil
	}
	return nil
}
