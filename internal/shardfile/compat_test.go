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

// TestGoldenV2ManifestWithChecksums: a v2 manifest that carries the
// `checksums` field older builds wrote keeps working on every path — open,
// full read, range read, degraded read, scrub, patch — and, because the
// golden digests are SHA-256 over the old build's shard files, matching
// them proves today's writer lays down byte-identical shards.
func TestGoldenV2ManifestWithChecksums(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "v2_checksums_manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var golden Manifest
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	if err := golden.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(golden.Checksums) != tk+tr || !golden.StripeVerified() {
		t.Fatalf("golden manifest lost its shape: %d checksums, stripe-verified=%v",
			len(golden.Checksums), golden.StripeVerified())
	}

	raw := goldenPayload()
	dir := t.TempDir()
	m, _, err := writeStreamDir(dir, bytes.NewReader(raw), int64(len(raw)), tk, tr, tunit, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := golden
	want.Checksums = nil
	if !reflect.DeepEqual(m, want) {
		t.Fatalf("manifest differs from the golden one beyond dropping checksums:\n got %+v\nwant %+v", m, want)
	}
	for i, sum := range golden.Checksums {
		shard, err := os.ReadFile(ShardPath(dir, i))
		if err != nil {
			t.Fatal(err)
		}
		if shardSum(shard) != sum {
			t.Errorf("shard %d is not byte-identical to the one the golden manifest was written for", i)
		}
	}

	// From here on the set is described by the old build's manifest.
	if err := SaveManifest(dir, golden); err != nil {
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
	patched, err := LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if patched.Checksums != nil {
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
	if m.Version != ManifestV2 || !m.StripeVerified() || m.Checksums != nil {
		t.Fatalf("manifest version=%d stripe-verified=%v checksums=%d; want v2, stripe sums only",
			m.Version, m.StripeVerified(), len(m.Checksums))
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
