package shardfile

import (
	"fmt"
	"hash/crc32"
	"sync"

	"gemmec/internal/ecerr"
)

// shardSummer accumulates one shard's manifest checksums — the CRC32C of
// each UnitSize window — as the bytes are written: the stripe-sum
// computation folded into the encode write path, no extra pass. sums is
// the Manifest.StripeSums column. It has two entry points, one per kind of
// sink: add folds a stream's bytes in order, whatever their fragmentation
// (a partial trailing unit, which a well-formed shard stream never has, is
// not summed); put sums one whole unit at its stripe, from any goroutine,
// in any stripe order.
type shardSummer struct {
	unit int
	n    int    // add: bytes into the current unit
	crc  uint32 // add: running CRC of the current unit
	mu   sync.Mutex
	sums []uint32
}

// newSummer returns a summer whose table is sized for a payload of size
// bytes (-1: unknown, grown as stripes arrive) in stripes of k units; a
// geometry the encode is about to refuse gets a table of one.
func newSummer(k, unit int, size int64) shardSummer {
	stripes := int64(1)
	if stripeBytes := int64(k) * int64(unit); size > 0 && stripeBytes > 0 {
		stripes = (size + stripeBytes - 1) / stripeBytes
	}
	return shardSummer{unit: unit, sums: make([]uint32, 0, stripes)}
}

// add folds p, the next bytes of the shard stream, into the stripe sums.
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

// put records the sum of unit, the shard's whole unit of stripe, growing
// the table as far as stripe when needed. Safe for concurrent calls.
func (w *shardSummer) put(stripe int64, unit []byte) {
	sum := crc32.Checksum(unit, castagnoli)
	w.mu.Lock()
	if grow := int(stripe) + 1 - len(w.sums); grow > 0 {
		w.sums = append(w.sums, make([]uint32, grow)...)
	}
	w.sums[stripe] = sum
	w.mu.Unlock()
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
