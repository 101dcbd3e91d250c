package gemmec_test

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"testing"

	"gemmec"
)

// FuzzEncodeReconstruct drives random data, geometry selectors and erasure
// masks through a full encode -> erase -> reconstruct -> verify cycle. Run
// with `go test -fuzz FuzzEncodeReconstruct` for open-ended fuzzing; under
// plain `go test` the seed corpus below runs as regression tests.
func FuzzEncodeReconstruct(f *testing.F) {
	f.Add([]byte("seed data"), uint8(0), uint16(0b000011))
	f.Add([]byte{}, uint8(1), uint16(0b100001))
	f.Add(bytes.Repeat([]byte{0xFF}, 300), uint8(2), uint16(0b010100))
	f.Add([]byte("x"), uint8(3), uint16(0xFFFF))

	geometries := []struct{ k, r, unit int }{
		{3, 2, 512},
		{4, 2, 1024},
		{5, 3, 512},
		{2, 2, 576},
	}
	codes := make([]*gemmec.Code, len(geometries))
	for i, g := range geometries {
		var err error
		codes[i], err = gemmec.New(g.k, g.r, gemmec.WithUnitSize(g.unit))
		if err != nil {
			f.Fatal(err)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte, geomSel uint8, eraseMask uint16) {
		code := codes[int(geomSel)%len(codes)]
		k, r, unit := code.K(), code.R(), code.UnitSize()

		stripe := make([]byte, code.DataSize())
		copy(stripe, data)
		parity := make([]byte, code.ParitySize())
		if err := code.Encode(stripe, parity); err != nil {
			t.Fatal(err)
		}

		shards := make([][]byte, k+r)
		for i := 0; i < k; i++ {
			shards[i] = append([]byte(nil), stripe[i*unit:(i+1)*unit]...)
		}
		for i := 0; i < r; i++ {
			shards[k+i] = append([]byte(nil), parity[i*unit:(i+1)*unit]...)
		}
		orig := make([][]byte, len(shards))
		copy(orig, shards)

		// Erase at most r shards chosen by the mask.
		erased := 0
		for i := 0; i < k+r && erased < r; i++ {
			if eraseMask>>uint(i)&1 == 1 {
				shards[i] = nil
				erased++
			}
		}
		if err := code.Reconstruct(shards); err != nil {
			t.Fatalf("reconstruct (mask %b): %v", eraseMask, err)
		}
		for i := range shards {
			if !bytes.Equal(shards[i], orig[i]) {
				t.Fatalf("shard %d wrong after reconstruct", i)
			}
		}
	})
}

// FuzzStreamRoundTrip drives EncodeStream -> lose shards -> DecodeStream
// through the pipelined engine at fuzzer-chosen payload lengths (including
// the zero-padded final stripe), erasure masks and worker counts, and
// requires the decoded stream to match the source exactly.
func FuzzStreamRoundTrip(f *testing.F) {
	code, err := gemmec.New(3, 2, gemmec.WithUnitSize(512))
	if err != nil {
		f.Fatal(err)
	}
	stripe := code.DataSize()
	f.Add([]byte{}, uint8(0), uint8(1))                                    // empty stream, serial
	f.Add([]byte("short"), uint8(0b00001), uint8(2))                       // sub-stripe tail, one loss
	f.Add(bytes.Repeat([]byte{0xAB}, stripe), uint8(0b10010), uint8(4))    // exact stripe, two losses
	f.Add(bytes.Repeat([]byte{7}, 3*stripe+129), uint8(0b00100), uint8(3)) // padded final stripe
	f.Add(bytes.Repeat([]byte{1}, 2*stripe-1), uint8(0b11000), uint8(8))   // one byte short of full

	f.Fuzz(func(t *testing.T, data []byte, eraseMask, workers uint8) {
		k, r := code.K(), code.R()
		w := 1 + int(workers)%8

		writers := make([]io.Writer, k+r)
		sinks := make([]*bytes.Buffer, k+r)
		for i := range writers {
			sinks[i] = &bytes.Buffer{}
			writers[i] = sinks[i]
		}
		mode := gemmec.StreamWorkers(t, w)
		n, err := code.EncodeStream(bytes.NewReader(data), writers, mode)
		if err != nil {
			t.Fatal(err)
		}
		if n != int64(len(data)) {
			t.Fatalf("consumed %d bytes, want %d", n, len(data))
		}

		readers := make([]io.Reader, k+r)
		for i := range readers {
			readers[i] = bytes.NewReader(sinks[i].Bytes())
		}
		erased := 0
		for i := 0; i < k+r && erased < r; i++ {
			if eraseMask>>uint(i)&1 == 1 {
				readers[i] = nil
				erased++
			}
		}
		var out bytes.Buffer
		if err := code.DecodeStream(readers, &out, n, mode); err != nil {
			t.Fatalf("decode (mask %b, workers %d): %v", eraseMask, w, err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("round trip corrupted %d bytes (mask %b, workers %d)", len(data), eraseMask, w)
		}
	})
}

// unitCRCVerifier mirrors what a v2 shardfile manifest gives DecodeStream:
// per-shard, per-stripe CRC32C of each unit.
type unitCRCVerifier struct {
	tab  *crc32.Table
	sums [][]uint32
}

func (v *unitCRCVerifier) VerifyUnit(shard int, stripe int64, unit []byte) error {
	if crc32.Checksum(unit, v.tab) != v.sums[shard][stripe] {
		return fmt.Errorf("unit crc mismatch: %w", gemmec.ErrCorruptShard)
	}
	return nil
}

// FuzzVerifiedDecode flips one byte of one shard at a fuzzer-chosen offset
// and requires the verified decode to demote exactly that shard at exactly
// the damaged stripe while still producing byte-identical output. The seed
// corpus pins the unit-boundary cases (offset exactly at, and one byte
// before, a unit edge), where an off-by-one in the ring's unit windowing
// would verify the wrong span.
func FuzzVerifiedDecode(f *testing.F) {
	code, err := gemmec.New(3, 2, gemmec.WithUnitSize(512))
	if err != nil {
		f.Fatal(err)
	}
	stripe := code.DataSize()
	f.Add(bytes.Repeat([]byte{3}, 3*stripe+129), uint8(1), uint32(512), uint8(2)) // first byte of unit 1
	f.Add(bytes.Repeat([]byte{9}, 2*stripe), uint8(0), uint32(511), uint8(1))     // last byte of unit 0
	f.Add(bytes.Repeat([]byte{0xCC}, 4*stripe+1), uint8(4), uint32(0), uint8(4))  // parity shard, offset 0
	f.Add([]byte("tail"), uint8(2), uint32(77), uint8(3))                         // single padded stripe

	f.Fuzz(func(t *testing.T, data []byte, shardSel uint8, off uint32, workers uint8) {
		k, r, unit := code.K(), code.R(), code.UnitSize()
		w := 1 + int(workers)%8

		writers := make([]io.Writer, k+r)
		sinks := make([]*bytes.Buffer, k+r)
		for i := range writers {
			sinks[i] = &bytes.Buffer{}
			writers[i] = sinks[i]
		}
		n, err := code.EncodeStream(bytes.NewReader(data), writers)
		if err != nil {
			t.Fatal(err)
		}
		tab := crc32.MakeTable(crc32.Castagnoli)
		sums := make([][]uint32, k+r)
		shards := make([][]byte, k+r)
		for i, s := range sinks {
			shards[i] = s.Bytes()
			for o := 0; o+unit <= len(shards[i]); o += unit {
				sums[i] = append(sums[i], crc32.Checksum(shards[i][o:o+unit], tab))
			}
		}

		target := int(shardSel) % (k + r)
		if len(shards[target]) == 0 {
			return // empty stream: nothing to corrupt
		}
		at := int(off) % len(shards[target])
		shards[target][at] ^= 0x40

		readers := make([]io.Reader, k+r)
		for i := range readers {
			readers[i] = bytes.NewReader(shards[i])
		}
		var out bytes.Buffer
		var st gemmec.StreamStats
		err = code.DecodeStream(readers, &out, n,
			gemmec.StreamWorkers(t, w), gemmec.WithStreamStats(&st),
			gemmec.WithStreamVerifier(&unitCRCVerifier{tab: tab, sums: sums}))
		if err != nil {
			t.Fatalf("verified decode (shard %d, off %d, workers %d): %v", target, at, w, err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("output differs after demoting shard %d (off %d)", target, at)
		}
		if len(st.Demoted) != 1 || st.Demoted[0].Shard != target || st.Demoted[0].Stripe != int64(at/unit) {
			t.Fatalf("Demoted = %+v, want shard %d at stripe %d", st.Demoted, target, at/unit)
		}
	})
}

// FuzzUpdateParity checks that incremental updates agree with re-encoding
// for arbitrary block contents.
func FuzzUpdateParity(f *testing.F) {
	f.Add([]byte("old"), []byte("new"), uint8(0))
	f.Add([]byte{}, bytes.Repeat([]byte{7}, 100), uint8(2))

	code, err := gemmec.New(3, 2, gemmec.WithUnitSize(512))
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, oldSeed, newSeed []byte, blockSel uint8) {
		u := int(blockSel) % code.K()
		unit := code.UnitSize()

		stripe := make([]byte, code.DataSize())
		copy(stripe[u*unit:(u+1)*unit], oldSeed)
		parity := make([]byte, code.ParitySize())
		if err := code.Encode(stripe, parity); err != nil {
			t.Fatal(err)
		}

		oldBlock := append([]byte(nil), stripe[u*unit:(u+1)*unit]...)
		newBlock := make([]byte, unit)
		copy(newBlock, newSeed)
		if err := code.UpdateParity(parity, u, oldBlock, newBlock); err != nil {
			t.Fatal(err)
		}
		copy(stripe[u*unit:], newBlock)

		ok, err := code.Verify(stripe, parity)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatal("incremental parity inconsistent with re-encode")
		}
	})
}
