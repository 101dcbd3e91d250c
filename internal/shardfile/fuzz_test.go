package shardfile

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"gemmec"
)

// FuzzLoadManifest throws arbitrary bytes at the manifest parser: it must
// error or succeed, never panic, accept nothing but a v2 manifest with a
// full stripe-sum table, and never accept geometry that later breaks
// opening the (here absent) shard set.
func FuzzLoadManifest(f *testing.F) {
	f.Add([]byte(`{"k":4,"r":2,"unit_size":4096,"file_size":100,"stripes":1}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"k":-1}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`{"k":4,"r":2,"unit_size":4096,"file_size":100,"stripes":1,"checksums":["x"]}`))
	f.Add([]byte(`{"version":2,"k":1,"r":1,"unit_size":4,"file_size":4,"stripes":1,"stripe_sums":[[1],[2]]}`))

	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, ManifestName), raw, 0o644); err != nil {
			t.Skip()
		}
		m, err := LoadManifest(dir)
		if err != nil {
			return // rejected: fine
		}
		if m.Version != ManifestV2 || len(m.StripeSums) != m.K+m.R {
			t.Fatalf("accepted manifest v%d with %d stripe-sum columns for k+r=%d", m.Version, len(m.StripeSums), m.K+m.R)
		}
		for i, sums := range m.StripeSums {
			if len(sums) != m.Stripes {
				t.Fatalf("accepted manifest: shard %d has %d stripe sums for %d stripes", i, len(sums), m.Stripes)
			}
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
