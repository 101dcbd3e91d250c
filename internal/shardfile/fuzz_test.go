package shardfile

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"gemmec"
)

// FuzzLoadManifest throws arbitrary bytes at the manifest parser: it must
// error or succeed, never panic, and never accept geometry that later
// breaks opening the (here absent) shard set.
func FuzzLoadManifest(f *testing.F) {
	f.Add([]byte(`{"k":4,"r":2,"unit_size":4096,"file_size":100,"stripes":1}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"k":-1}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`{"k":4,"r":2,"unit_size":4096,"file_size":100,"stripes":1,"checksums":["x"]}`))

	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, ManifestName), raw, 0o644); err != nil {
			t.Skip()
		}
		m, err := LoadManifest(dir)
		if err != nil {
			return // rejected: fine
		}
		// Accepted manifests must be safe to use downstream: with no shard
		// files the open reports every shard missing, nothing else.
		if m.K+m.R > 64 {
			return // keep the path table small
		}
		if _, err := OpenStreamPaths(DirPaths(dir, m.K+m.R), m, Opts{}); !errors.Is(err, gemmec.ErrTooFewShards) {
			t.Fatalf("accepted manifest %+v breaks the open: %v", m, err)
		}
	})
}
