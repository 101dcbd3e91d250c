// Package shardfile stores erasure-coded payloads as shard sets: one
// stream per unit ("what one storage node would hold") plus a JSON
// manifest. It is the persistence layer behind cmd/eccli (one directory of
// shard files), internal/server's Store (shard files spread over node
// directories) and its cluster Gateway (shard streams to and from peers),
// all through one streaming encode/decode engine (stream.go) — a worked
// example of integrating the gemmec API into a storage system the way §5
// of the paper prescribes (stripes are assembled contiguously, the kernel
// sees zero-copy buffers).
package shardfile

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// ManifestName is the metadata file written next to the shards.
const ManifestName = "manifest.json"

// ManifestV2 is the manifest format: it records a CRC32C per UnitSize unit
// of every shard, computed during the (single) encode pass, and nothing
// else about the shard bytes. Stripe sums are what make reads single-pass
// and stripe-granular: a reader verifies each unit as it decodes it
// instead of hashing whole shards up front, and a scrubber localizes rot
// to the stripe instead of condemning the shard. It is the only version
// Validate accepts, so no path ever serves a unit it has not checked.
const ManifestV2 = 2

// castagnoli is the CRC32C table shared by every stripe-sum computation.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Manifest describes an encoded shard set.
type Manifest struct {
	// Version is the manifest format version, always ManifestV2.
	Version  int   `json:"version,omitempty"`
	K        int   `json:"k"`
	R        int   `json:"r"`
	UnitSize int   `json:"unit_size"`
	FileSize int64 `json:"file_size"`
	Stripes  int   `json:"stripes"`
	// StripeSums holds the CRC32C of every UnitSize unit:
	// StripeSums[shard][stripe] covers shard bytes
	// [stripe*UnitSize, (stripe+1)*UnitSize).
	StripeSums [][]uint32 `json:"stripe_sums,omitempty"`
}

// ShardSize is the length of every shard file of the set: one unit per
// stripe.
func (m Manifest) ShardSize() int64 { return int64(m.Stripes) * int64(m.UnitSize) }

// Validate checks manifest sanity: a v2 manifest with a full stripe-sum
// table and a geometry that holds its payload.
func (m Manifest) Validate() error {
	if m.Version != ManifestV2 {
		return fmt.Errorf("shardfile: manifest version %d: only v%d manifests are readable", m.Version, ManifestV2)
	}
	if m.K <= 0 || m.R <= 0 || m.UnitSize <= 0 || m.Stripes <= 0 || m.FileSize < 0 {
		return fmt.Errorf("shardfile: invalid manifest %+v", m)
	}
	if int64(m.Stripes)*int64(m.K)*int64(m.UnitSize) < m.FileSize {
		return fmt.Errorf("shardfile: manifest stripes cannot hold file (%d < %d)",
			int64(m.Stripes)*int64(m.K)*int64(m.UnitSize), m.FileSize)
	}
	if len(m.StripeSums) != m.K+m.R {
		return fmt.Errorf("shardfile: stripe sums for %d shards, want %d", len(m.StripeSums), m.K+m.R)
	}
	for i, sums := range m.StripeSums {
		if len(sums) != m.Stripes {
			return fmt.Errorf("shardfile: shard %d has %d stripe sums for %d stripes", i, len(sums), m.Stripes)
		}
	}
	return nil
}

// ShardPath returns the path of shard i under dir.
func ShardPath(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("shard_%03d", i))
}

// DirPaths expands the single-directory layout (n shards under dir, next
// to the manifest Save/LoadManifest keep there) into the explicit
// per-shard paths the path-based entry points take.
func DirPaths(dir string, n int) []string {
	paths := make([]string, n)
	for i := range paths {
		paths[i] = ShardPath(dir, i)
	}
	return paths
}

// SaveManifest writes the manifest next to the shards.
func SaveManifest(dir string, m Manifest) error {
	mj, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, ManifestName), mj, 0o644)
}

// LoadManifest reads and validates dir's manifest.
func LoadManifest(dir string) (Manifest, error) {
	var m Manifest
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("shardfile: corrupt manifest: %w", err)
	}
	return m, m.Validate()
}
