package shardfile

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"

	"gemmec"
)

// The single-directory layout as eccli drives it — DirPaths + the path
// entry points + the manifest file — so tests read like the CLI.

// testSched is the one pool behind every test stream that asks for more
// than one worker, as a process has one.
var testSched = gemmec.NewScheduler(gemmec.SchedulerConfig{Workers: 2})

// withWorkers is how these tests pick a stream's mode by worker count, the
// entry points ignoring theirs: 1 or less is the inline path, more runs
// the kernel stage on testSched.
func withWorkers(opt Opts, workers int) Opts {
	if workers > 1 {
		opt.Sched = testSched
	}
	return opt
}

func writeStreamDir(dir string, src io.Reader, size int64, k, r, unitSize, workers int) (Manifest, gemmec.StreamStats, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return Manifest{}, gemmec.StreamStats{}, err
	}
	m, st, err := WriteStreamPaths(DirPaths(dir, k+r), src, size, k, r, unitSize, 0, withWorkers(Opts{}, workers))
	if err != nil {
		return m, st, err
	}
	return m, st, SaveManifest(dir, m)
}

func readStreamPaths(paths []string, m Manifest, dst io.Writer, workers int, opt Opts) ([]int, gemmec.StreamStats, error) {
	sr, err := OpenStreamPaths(paths, m, withWorkers(opt, workers))
	if err != nil {
		return nil, gemmec.StreamStats{}, err
	}
	defer sr.Close()
	st, err := sr.Decode(dst, 0)
	return sr.Unusable(), st, err
}

func readStreamDir(dir string, dst io.Writer, workers int) (Manifest, []int, gemmec.StreamStats, error) {
	m, err := LoadManifest(dir)
	if err != nil {
		return m, nil, gemmec.StreamStats{}, err
	}
	bad, st, err := readStreamPaths(DirPaths(dir, m.K+m.R), m, dst, workers, Opts{})
	return m, bad, st, err
}

func scrubDir(dir string) ([]int, error) {
	m, err := LoadManifest(dir)
	if err != nil {
		return nil, err
	}
	return ScrubPaths(DirPaths(dir, m.K+m.R), m, Opts{})
}

// shardSum is the hex SHA-256 the old whole-shard (v1) format recorded per
// shard.
func shardSum(data []byte) string {
	s := sha256.Sum256(data)
	return hex.EncodeToString(s[:])
}
