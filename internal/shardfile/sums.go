package shardfile

import "hash/crc32"

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

// VerifyUnitSum checks one unit against m's recorded CRC32C — what the
// repair walk applies to every unit it reads and every unit it rebuilds.
func VerifyUnitSum(m Manifest, shard int, stripe int, unit []byte) bool {
	return crc32.Checksum(unit, castagnoli) == m.StripeSums[shard][stripe]
}
