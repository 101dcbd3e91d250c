package shardfile

import (
	"fmt"
	"hash/crc32"

	"gemmec/internal/ecerr"
)

// shardSummer accumulates one shard stream's manifest checksums — the
// CRC32C of each UnitSize window — as the bytes flow past: the stripe-sum
// computation folded into the encode write path, no extra pass. The
// pipeline writes whole units, but the summer handles arbitrary write
// fragmentation anyway. sums is the Manifest.StripeSums column; partial
// trailing units (which a well-formed shard stream never has) are not
// summed.
type shardSummer struct {
	unit int
	n    int    // bytes into the current unit
	crc  uint32 // running CRC of the current unit
	sums []uint32
}

// add folds p into the stripe sums.
func (w *shardSummer) add(p []byte) {
	for len(p) > 0 {
		take := w.unit - w.n
		if take > len(p) {
			take = len(p)
		}
		w.crc = crc32.Update(w.crc, castagnoli, p[:take])
		w.n += take
		p = p[take:]
		if w.n == w.unit {
			w.sums = append(w.sums, w.crc)
			w.crc, w.n = 0, 0
		}
	}
}

// VerifyUnit checks one unit against its manifest CRC32C — the package's
// one integrity check, run by the decode pipeline on every unit it gathers
// (m is its gemmec.UnitVerifier), by the repair walk on every unit it
// reads or rebuilds and by the patch planner on every old unit. A stripe
// past the sum table fails with ErrShardTruncated, a mismatch with
// ErrCorruptShard. The clean path allocates nothing.
func (m *Manifest) VerifyUnit(shard int, stripe int64, unit []byte) error {
	sums := m.StripeSums[shard]
	if stripe >= int64(len(sums)) {
		return fmt.Errorf("shardfile: shard %d stripe %d beyond manifest's %d stripes: %w (%w)",
			shard, stripe, len(sums), ecerr.ErrShardTruncated, ecerr.ErrCorruptShard)
	}
	if crc32.Checksum(unit, castagnoli) != sums[stripe] {
		return fmt.Errorf("shardfile: shard %d stripe %d fails CRC32C: %w", shard, stripe, ecerr.ErrCorruptShard)
	}
	return nil
}
