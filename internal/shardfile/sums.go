package shardfile

import (
	"hash/crc32"

	"gemmec"
)

// This file exports the manifest checksum machinery — the stripe-sum
// accumulator the encode path folds into its writers and the unit
// verifier the decode path hangs on WithStreamVerifier — for callers
// that stream shards somewhere other than local files. The networked
// gateway (internal/server) encodes into per-peer upload streams and
// decodes from per-peer download streams, but its manifests must stay
// byte-compatible with the ones WriteStreamPaths produces, so the
// computations live here, next to the manifest format they define.

// ShardSummer accumulates one shard stream's manifest checksums — the
// CRC32C of each UnitSize window — as the bytes flow past: the stripe-sum
// computation folded into the encode write path, no extra pass. The
// pipeline writes whole units, but the summer handles arbitrary write
// fragmentation anyway. It never fails, so it composes into
// io.MultiWriter without disturbing the primary sink.
type ShardSummer struct {
	unit int
	n    int    // bytes into the current unit
	crc  uint32 // running CRC of the current unit
	sums []uint32
}

// NewShardSummer returns a summer for one shard of a unitSize-unit code.
func NewShardSummer(unitSize int) *ShardSummer { return &ShardSummer{unit: unitSize} }

// Write folds p into the stripe sums.
func (w *ShardSummer) Write(p []byte) (int, error) {
	total := len(p)
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
	return total, nil
}

// StripeSums returns the per-unit CRC32C column — the Manifest.StripeSums
// entry. Call after the final Write; partial trailing units (which a
// well-formed shard stream never has) are not summed.
func (w *ShardSummer) StripeSums() []uint32 { return w.sums }

// NewStripeVerifier returns the unit verifier enforcing m's stripe sums,
// for decodes that read shards from sources OpenStreamPaths does not
// manage (remote peers). m must be stripe-verified (v2).
func NewStripeVerifier(m Manifest) gemmec.UnitVerifier {
	return &stripeVerifier{sums: m.StripeSums}
}

// NewStripeVerifierAt is NewStripeVerifier for a decode that starts at
// manifest stripe base instead of stripe 0 — the pipeline's stripe i is
// checked against m's stripe base+i. This is the verifier behind ranged
// remote reads, where each peer stream begins at the first stripe
// covering the requested window.
func NewStripeVerifierAt(m Manifest, base int64) gemmec.UnitVerifier {
	return &stripeVerifier{sums: m.StripeSums, base: base}
}

// VerifyUnitSum checks one unit against m's recorded CRC32C — the
// building block repair paths use when reading survivor shards unit by
// unit outside a decode pipeline.
func VerifyUnitSum(m Manifest, shard int, stripe int, unit []byte) bool {
	return crc32.Checksum(unit, castagnoli) == m.StripeSums[shard][stripe]
}
