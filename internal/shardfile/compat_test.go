package shardfile

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// goldenPayload is the payload testdata/v2_checksums_manifest.json
// describes: that manifest was written by the last build whose writers
// still recorded a whole-shard SHA-256 next to the stripe sums.
func goldenPayload() []byte {
	raw := make([]byte, tk*tunit*2+1234)
	for i := range raw {
		raw[i] = byte(i*131 + i>>8*17 + i>>16)
	}
	return raw
}

// loadGolden reads the golden manifest: its JSON, the Manifest it parses
// to, and the whole-shard SHA-256 digests its `checksums` key carries.
// Manifest has no field for those — the parser ignores the key — so they
// are read through a local struct: matching them proves a writer lays
// down shards byte-identical to the old build's.
func loadGolden(t *testing.T) ([]byte, Manifest, []string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "v2_checksums_manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var golden Manifest
	var old struct {
		Checksums []string `json:"checksums"`
	}
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &old); err != nil {
		t.Fatal(err)
	}
	if len(old.Checksums) != golden.K+golden.R {
		t.Fatalf("golden manifest lost its shape: %d checksums for %d shards", len(old.Checksums), golden.K+golden.R)
	}
	return data, golden, old.Checksums
}

// TestGoldenV2ManifestWithChecksums: a v2 manifest that carries the
// `checksums` field older builds wrote keeps working on every path — open,
// full read, range read, degraded read, scrub, patch — and, because the
// golden digests are SHA-256 over the old build's shard files, matching
// them proves today's writer lays down byte-identical shards.
func TestGoldenV2ManifestWithChecksums(t *testing.T) {
	data, golden, sums := loadGolden(t)
	if err := golden.Validate(); err != nil {
		t.Fatal(err)
	}

	raw := goldenPayload()
	dir := t.TempDir()
	m, _, err := writeStreamDir(dir, bytes.NewReader(raw), int64(len(raw)), tk, tr, tunit, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, golden) {
		t.Fatalf("manifest differs from the golden one beyond dropping checksums:\n got %+v\nwant %+v", m, golden)
	}
	for i, sum := range sums {
		shard, err := os.ReadFile(ShardPath(dir, i))
		if err != nil {
			t.Fatal(err)
		}
		if shardSum(shard) != sum {
			t.Errorf("shard %d is not byte-identical to the one the golden manifest was written for", i)
		}
	}

	// From here on the set is described by the old build's manifest,
	// checksums key and all.
	if err := os.WriteFile(filepath.Join(dir, ManifestName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, bad, err := readStreamBack(dir)
	if err != nil || len(bad) != 0 || !bytes.Equal(got, raw) {
		t.Fatalf("full read under golden manifest: bad=%v err=%v", bad, err)
	}
	off, length := int64(tunit-3), int64(tk*tunit+11)
	win, _, err := decodeRangeBack(t, dir, off, length)
	if err != nil || !bytes.Equal(win, raw[off:off+length]) {
		t.Fatalf("range read under golden manifest: err=%v", err)
	}

	corruptShardByte(t, dir, 1, int64(tunit)+5)
	if err := os.Remove(ShardPath(dir, 4)); err != nil {
		t.Fatal(err)
	}
	got, bad, err = readStreamBack(dir)
	if err != nil || !bytes.Equal(got, raw) || !reflect.DeepEqual(bad, []int{1, 4}) {
		t.Fatalf("degraded read under golden manifest: bad=%v err=%v", bad, err)
	}
	healed, err := scrubDir(dir)
	if err != nil || !reflect.DeepEqual(healed, []int{1, 4}) {
		t.Fatalf("scrub under golden manifest healed %v, err=%v", healed, err)
	}
	verifyEveryUnit(t, dir, golden)

	patchReencodeCheck(t, dir, raw, int64(tunit/2), []byte("patched under a golden manifest"))
	patched, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(patched, []byte(`"checksums"`)) {
		t.Error("patch kept whole-shard checksums it can no longer vouch for")
	}
}

// TestWritersEmitStripeSumsOnly: the writer emits a v2 manifest without
// whole-shard checksums — in memory and as committed JSON — and such a
// set survives a degraded read and a scrub.
func TestWritersEmitStripeSumsOnly(t *testing.T) {
	dir, raw := writeStreamTestFile(t, tk*tunit*3+77)
	m, err := LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.Version != ManifestV2 || len(m.StripeSums) != tk+tr {
		t.Fatalf("manifest version=%d with %d stripe-sum columns; want v2 with %d", m.Version, len(m.StripeSums), tk+tr)
	}
	onDisk, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(onDisk, []byte(`"checksums"`)) {
		t.Error("committed manifest JSON carries a checksums field")
	}
	verifyEveryUnit(t, dir, m)

	corruptShardByte(t, dir, 0, 3)
	if err := os.Remove(ShardPath(dir, tk)); err != nil {
		t.Fatal(err)
	}
	got, bad, err := readStreamBack(dir)
	if err != nil || !bytes.Equal(got, raw) || !reflect.DeepEqual(bad, []int{0, tk}) {
		t.Fatalf("degraded read: bad=%v err=%v", bad, err)
	}
	healed, err := scrubDir(dir)
	if err != nil || !reflect.DeepEqual(healed, []int{0, tk}) {
		t.Fatalf("scrub healed %v, err=%v", healed, err)
	}
	verifyEveryUnit(t, dir, m)
}
