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
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"gemmec"
	"gemmec/internal/ecerr"
)

// ManifestName is the metadata file written next to the shards.
const ManifestName = "manifest.json"

// ManifestV2 is the current manifest format: it records a CRC32C per
// UnitSize unit of every shard, computed during the (single) encode pass,
// and nothing else about the shard bytes. Stripe sums are what make reads
// single-pass and stripe-granular: a reader verifies each unit as it
// decodes it instead of hashing whole shards up front, and a scrubber
// localizes rot to the stripe instead of condemning the shard. v1
// manifests (Version 0, whole-shard SHA-256 only) remain readable and
// scrubable forever; all writers emit v2.
const ManifestV2 = 2

// castagnoli is the CRC32C table shared by every stripe-sum computation.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Manifest describes an encoded shard set.
type Manifest struct {
	// Version is the manifest format version: 0 (legacy v1, whole-shard
	// checksums only) or ManifestV2.
	Version  int   `json:"version,omitempty"`
	K        int   `json:"k"`
	R        int   `json:"r"`
	UnitSize int   `json:"unit_size"`
	FileSize int64 `json:"file_size"`
	Stripes  int   `json:"stripes"`
	// Checksums (v1) holds the hex SHA-256 of each shard file — the legacy
	// format's only integrity record, still verified when a v1 manifest is
	// opened or scrubbed. No writer emits it any more; v2 manifests from
	// older builds may carry it and v2 code paths ignore it.
	Checksums []string `json:"checksums,omitempty"`
	// StripeSums (v2) holds the CRC32C of every UnitSize unit:
	// StripeSums[shard][stripe] covers shard bytes
	// [stripe*UnitSize, (stripe+1)*UnitSize).
	StripeSums [][]uint32 `json:"stripe_sums,omitempty"`
	// Slab (v2, optional) marks a packed-stripe shard set: the encoded
	// payload is the concatenation of many small member objects, each
	// described by one entry. Packing tiny objects into one shared stripe
	// amortizes the per-object encode setup, stripe padding and shard-file
	// count that dominate small-object cost — the batching move ML serving
	// stacks make. Entries are laid out back to back in payload order; a
	// member is read by decoding its [Offset, Offset+Size) window of the
	// payload. Non-slab manifests leave it nil.
	Slab []SlabEntry `json:"slab,omitempty"`
}

// SlabEntry locates one member object inside a packed (slab) shard set's
// payload.
type SlabEntry struct {
	// Name is the member's object key.
	Name string `json:"name"`
	// Offset is the member's first payload byte.
	Offset int64 `json:"offset"`
	// Size is the member's length in bytes.
	Size int64 `json:"size"`
}

// FindSlabEntry returns the slab member named key and whether it exists.
func (m Manifest) FindSlabEntry(key string) (SlabEntry, bool) {
	for _, e := range m.Slab {
		if e.Name == key {
			return e, true
		}
	}
	return SlabEntry{}, false
}

// StripeVerified reports whether the manifest carries per-stripe unit
// checksums — the v2 single-pass read path.
func (m Manifest) StripeVerified() bool { return m.Version >= ManifestV2 && m.StripeSums != nil }

// Validate checks manifest sanity.
func (m Manifest) Validate() error {
	if m.K <= 0 || m.R <= 0 || m.UnitSize <= 0 || m.Stripes <= 0 || m.FileSize < 0 {
		return fmt.Errorf("shardfile: invalid manifest %+v", m)
	}
	if int64(m.Stripes)*int64(m.K)*int64(m.UnitSize) < m.FileSize {
		return fmt.Errorf("shardfile: manifest stripes cannot hold file (%d < %d)",
			int64(m.Stripes)*int64(m.K)*int64(m.UnitSize), m.FileSize)
	}
	if m.Checksums != nil && len(m.Checksums) != m.K+m.R {
		return fmt.Errorf("shardfile: %d checksums for %d shards", len(m.Checksums), m.K+m.R)
	}
	if m.Version >= ManifestV2 && m.StripeSums == nil {
		return fmt.Errorf("shardfile: v%d manifest without stripe sums", m.Version)
	}
	if m.StripeSums != nil {
		if len(m.StripeSums) != m.K+m.R {
			return fmt.Errorf("shardfile: stripe sums for %d shards, want %d", len(m.StripeSums), m.K+m.R)
		}
		for i, sums := range m.StripeSums {
			if len(sums) != m.Stripes {
				return fmt.Errorf("shardfile: shard %d has %d stripe sums for %d stripes", i, len(sums), m.Stripes)
			}
		}
	}
	off := int64(0)
	for i, e := range m.Slab {
		if e.Name == "" || e.Size < 0 || e.Offset != off {
			return fmt.Errorf("shardfile: slab entry %d (%q off=%d size=%d) not contiguous from %d",
				i, e.Name, e.Offset, e.Size, off)
		}
		off += e.Size
	}
	if m.Slab != nil && off != m.FileSize {
		return fmt.Errorf("shardfile: slab entries cover %d bytes, payload is %d", off, m.FileSize)
	}
	return nil
}

func shardSum(data []byte) string {
	s := sha256.Sum256(data)
	return hex.EncodeToString(s[:])
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

// Code builds the gemmec code matching the manifest.
func (m Manifest) Code() (*gemmec.Code, error) {
	return gemmec.New(m.K, m.R, gemmec.WithUnitSize(m.UnitSize))
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

// loadShardsPaths reads every present shard whole; missing or wrong-size
// shard files yield nil entries and are reported in missing.
func loadShardsPaths(paths []string, m Manifest, opt Opts) (shards [][]byte, missing []int, err error) {
	if err := m.Validate(); err != nil {
		return nil, nil, err
	}
	n := m.K + m.R
	if len(paths) != n {
		return nil, nil, fmt.Errorf("shardfile: %d shard paths for k+r=%d", len(paths), n)
	}
	fsys := opt.fs()
	shards = make([][]byte, n)
	want := m.Stripes * m.UnitSize
	for i := 0; i < n; i++ {
		if err := opt.ctxErr(); err != nil {
			return nil, nil, err
		}
		data, err := fsys.ReadFile(paths[i])
		if err != nil || len(data) != want {
			missing = append(missing, i)
			continue
		}
		shards[i] = data
	}
	return shards, missing, nil
}

// ErrCorrupt reports a parity mismatch found by Verify.
var ErrCorrupt = errors.New("shardfile: parity mismatch")

// Verify checks that every stripe's parity matches its data — an
// end-to-end check of the code itself, independent of the manifest's
// checksums. All shards must be present.
func Verify(dir string) error {
	m, err := LoadManifest(dir)
	if err != nil {
		return err
	}
	shards, missing, err := loadShardsPaths(DirPaths(dir, m.K+m.R), m, Opts{})
	if err != nil {
		return err
	}
	if len(missing) > 0 {
		return fmt.Errorf("shardfile: missing shards %v (repair first)", missing)
	}
	code, err := m.Code()
	if err != nil {
		return err
	}
	data := make([]byte, code.DataSize())
	parity := make([]byte, code.ParitySize())
	for s := 0; s < m.Stripes; s++ {
		for i := 0; i < m.K; i++ {
			copy(data[i*m.UnitSize:], shards[i][s*m.UnitSize:(s+1)*m.UnitSize])
		}
		for i := 0; i < m.R; i++ {
			copy(parity[i*m.UnitSize:], shards[m.K+i][s*m.UnitSize:(s+1)*m.UnitSize])
		}
		ok, err := code.Verify(data, parity)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("stripe %d: %w", s, ErrCorrupt)
		}
	}
	return nil
}

// ScrubPaths detects shard corruption by checksum and heals it: any shard
// file that does not match the manifest (per-stripe CRC32C for v2
// manifests, whole-shard SHA-256 for v1, plus any missing or wrong-length
// shard) is rebuilt from the surviving shards and rewritten; it returns
// the shard indices that were healed. Healed shards are written via a
// temporary file and renamed into place, so a concurrent reader never
// observes a half-rebuilt shard. Checksum failures in the returned errors
// wrap ecerr.ErrCorruptShard. v1 manifests written before checksums were
// recorded can only have missing shards rebuilt.
//
// For v2 manifests damage is localized and healed at stripe granularity:
// each present unit is checked against its CRC32C, only the stripes that
// actually rotted pay reconstruction, and — because the ≤ r erasure budget
// applies per stripe rather than per shard — a set where more than r
// shards each carry some rot still heals as long as no single stripe lost
// more than r units. v1 manifests keep the whole-shard SHA-256 semantics.
//
// A canceled opt.Ctx stops the scrub between shard loads and between
// stripe rebuilds; because each heal is temp-file + rename, a canceled
// scrub leaves every shard either untouched or fully healed, never torn.
func ScrubPaths(paths []string, m Manifest, opt Opts) ([]int, error) {
	shards, missing, err := loadShardsPaths(paths, m, opt)
	if err != nil {
		return nil, err
	}
	if m.StripeVerified() {
		return scrubStripes(paths, m, shards, missing, opt)
	}
	bad := map[int]bool{}
	for _, i := range missing {
		bad[i] = true
	}
	if m.Checksums != nil {
		for i, sd := range shards {
			if sd != nil && shardSum(sd) != m.Checksums[i] {
				bad[i] = true
				shards[i] = nil // treat as erased for reconstruction
			}
		}
	}
	if len(bad) == 0 {
		return nil, nil
	}
	code, err := m.Code()
	if err != nil {
		return nil, err
	}
	var healed []int
	for i := range bad {
		healed = append(healed, i)
	}
	sortInts(healed)
	rebuilt := make(map[int][]byte, len(healed))
	for _, i := range healed {
		rebuilt[i] = make([]byte, 0, m.Stripes*m.UnitSize)
	}
	for s := 0; s < m.Stripes; s++ {
		if err := opt.ctxErr(); err != nil {
			return nil, err
		}
		units := make([][]byte, m.K+m.R)
		for i, sd := range shards {
			if sd != nil {
				units[i] = sd[s*m.UnitSize : (s+1)*m.UnitSize]
			}
		}
		if err := code.Reconstruct(units); err != nil {
			return nil, fmt.Errorf("shardfile: stripe %d (%d shards unusable %v): %w", s, len(healed), healed, err)
		}
		for _, i := range healed {
			rebuilt[i] = append(rebuilt[i], units[i]...)
		}
	}
	fsys := opt.fs()
	for _, i := range healed {
		if err := opt.ctxErr(); err != nil {
			return nil, err
		}
		if m.Checksums != nil && shardSum(rebuilt[i]) != m.Checksums[i] {
			return nil, fmt.Errorf("shardfile: rebuilt shard %d fails its manifest checksum (manifest corrupt?): %w",
				i, ecerr.ErrCorruptShard)
		}
		tmp := paths[i] + ".tmp"
		if err := fsys.WriteFile(tmp, rebuilt[i], 0o644); err != nil {
			return nil, err
		}
		if err := fsys.Rename(tmp, paths[i]); err != nil {
			fsys.Remove(tmp)
			return nil, err
		}
	}
	return healed, nil
}

// scrubStripes is the v2 scrub: locate damage per (shard, stripe) cell by
// CRC32C, reconstruct only the damaged stripes, and rewrite only the
// shards that carried damage (temp-file + rename, like the v1 path).
func scrubStripes(paths []string, m Manifest, shards [][]byte, missing []int, opt Opts) ([]int, error) {
	// damaged[i] is the per-stripe damage mask of shard i; nil means the
	// shard is wholly clean. Missing shards get an all-damaged mask and a
	// zeroed buffer to rebuild into.
	damaged := make([][]bool, m.K+m.R)
	touched := map[int]bool{}
	for _, i := range missing {
		shards[i] = make([]byte, m.Stripes*m.UnitSize)
		damaged[i] = make([]bool, m.Stripes)
		for s := range damaged[i] {
			damaged[i][s] = true
		}
		touched[i] = true
	}
	for i, sd := range shards {
		if touched[i] {
			continue
		}
		for s := 0; s < m.Stripes; s++ {
			if crc32.Checksum(sd[s*m.UnitSize:(s+1)*m.UnitSize], castagnoli) != m.StripeSums[i][s] {
				if damaged[i] == nil {
					damaged[i] = make([]bool, m.Stripes)
				}
				damaged[i][s] = true
				touched[i] = true
			}
		}
	}
	if len(touched) == 0 {
		return nil, nil
	}
	code, err := m.Code()
	if err != nil {
		return nil, err
	}
	units := make([][]byte, m.K+m.R)
	for s := 0; s < m.Stripes; s++ {
		if err := opt.ctxErr(); err != nil {
			return nil, err
		}
		stripeBad := false
		for i := range shards {
			if damaged[i] != nil && damaged[i][s] {
				units[i] = nil
				stripeBad = true
			} else {
				units[i] = shards[i][s*m.UnitSize : (s+1)*m.UnitSize]
			}
		}
		if !stripeBad {
			continue
		}
		if err := code.Reconstruct(units); err != nil {
			return nil, fmt.Errorf("shardfile: stripe %d: %w", s, err)
		}
		for i := range shards {
			if damaged[i] == nil || !damaged[i][s] {
				continue
			}
			if crc32.Checksum(units[i], castagnoli) != m.StripeSums[i][s] {
				return nil, fmt.Errorf("shardfile: rebuilt shard %d stripe %d fails its manifest checksum (manifest corrupt?): %w",
					i, s, ecerr.ErrCorruptShard)
			}
			copy(shards[i][s*m.UnitSize:(s+1)*m.UnitSize], units[i])
		}
	}
	var healed []int
	for i := range touched {
		healed = append(healed, i)
	}
	sortInts(healed)
	fsys := opt.fs()
	for _, i := range healed {
		if err := opt.ctxErr(); err != nil {
			return nil, err
		}
		tmp := paths[i] + ".tmp"
		if err := fsys.WriteFile(tmp, shards[i], 0o644); err != nil {
			return nil, err
		}
		if err := fsys.Rename(tmp, paths[i]); err != nil {
			fsys.Remove(tmp)
			return nil, err
		}
	}
	return healed, nil
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j-1] > a[j]; j-- {
			a[j-1], a[j] = a[j], a[j-1]
		}
	}
}
