package gf

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func TestMulTable8(t *testing.T) {
	f := MustField(8)
	for _, c := range []uint8{0, 1, 2, 0x53, 0xff} {
		tbl := f.MulTable8(c)
		for b := 0; b < 256; b++ {
			if uint32(tbl[b]) != f.Mul(uint32(c), uint32(b)) {
				t.Fatalf("c=%d b=%d: table %d want %d", c, b, tbl[b], f.Mul(uint32(c), uint32(b)))
			}
		}
	}
}

func TestNibbleTable8MatchesMul(t *testing.T) {
	f := MustField(8)
	prop := func(c, b uint8) bool {
		nt := f.NibbleTable8(c)
		return uint32(nt.Mul(b)) == f.Mul(uint32(c), uint32(b))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestTablesRequireW8(t *testing.T) {
	f := MustField(4)
	for name, fn := range map[string]func(){
		"MulTable8":    func() { f.MulTable8(3) },
		"NibbleTable8": func() { f.NibbleTable8(3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on w=4 field should panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestMulRegionAndMulAddRegion(t *testing.T) {
	f := MustField(8)
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 1000} {
		src := randBytes(rng, n)
		c := uint8(rng.Intn(256))
		tbl := f.MulTable8(c)

		dst := make([]byte, n)
		MulRegion(tbl, dst, src)
		for i := range src {
			if uint32(dst[i]) != f.Mul(uint32(c), uint32(src[i])) {
				t.Fatalf("n=%d i=%d MulRegion wrong", n, i)
			}
		}

		acc := randBytes(rng, n)
		want := make([]byte, n)
		for i := range acc {
			want[i] = acc[i] ^ dst[i]
		}
		MulAddRegion(tbl, acc, src)
		if !bytes.Equal(acc, want) {
			t.Fatalf("n=%d MulAddRegion wrong", n)
		}
	}
}

// xorRef is the byte-at-a-time reference the fused kernels are checked
// against: dst[i] ^= srcs[0][i] ^ srcs[1][i] ^ ...
func xorRef(dst []byte, srcs ...[]byte) {
	for _, s := range srcs {
		for i := range dst {
			dst[i] ^= s[i]
		}
	}
}

// offsetBytes returns n random bytes starting at byte off of a larger
// buffer, so a kernel sees an operand that is not word aligned.
func offsetBytes(rng *rand.Rand, n, off int) []byte {
	return randBytes(rng, n+off+7)[off : off+n]
}

// checkXorFamily runs XorRegion/2/4/8, and XorRegions over numSrc sources
// at fanin, on n-byte operands cut at offsets off..off+7 (mod 8) of larger
// buffers, and compares each against xorRef.
func checkXorFamily(t *testing.T, rng *rand.Rand, n, off, numSrc, fanin int) {
	t.Helper()
	srcs := make([][]byte, max(numSrc, 8))
	for j := range srcs {
		srcs[j] = offsetBytes(rng, n, (off+j)%8)
	}
	base := offsetBytes(rng, n, off)
	for _, kc := range []struct {
		name  string
		width int
		run   func(dst []byte)
	}{
		{"XorRegion", 1, func(dst []byte) { XorRegion(dst, srcs[0]) }},
		{"XorRegion2", 2, func(dst []byte) { XorRegion2(dst, srcs[0], srcs[1]) }},
		{"XorRegion4", 4, func(dst []byte) { XorRegion4(dst, srcs[0], srcs[1], srcs[2], srcs[3]) }},
		{"XorRegion8", 8, func(dst []byte) { XorRegion8(dst, (*[8][]byte)(srcs[:8])) }},
		{"XorRegions", numSrc, func(dst []byte) { XorRegions(dst, srcs[:numSrc], fanin) }},
	} {
		want := append([]byte(nil), base...)
		xorRef(want, srcs[:kc.width]...)
		got := append(make([]byte, off), base...)[off:]
		kc.run(got)
		if !bytes.Equal(got, want) {
			t.Fatalf("n=%d off=%d %s wrong", n, off, kc.name)
		}
	}
}

func TestXorRegionVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// The 32-byte step (16 for XorRegion8): lengths below, at and either
	// side of one and two steps, a tail of every class, and operands cut
	// at offsets 0-7 of a larger buffer.
	lengths := []int{0, 1, 5, 8, 15, 16, 17, 31, 32, 33, 47, 48, 63, 64, 65, 4099, 8192}
	for _, n := range lengths {
		for off := 0; off < 8; off++ {
			checkXorFamily(t, rng, n, off, 11, 8)
		}
	}
}

func TestXorRegionsFusion(t *testing.T) {
	// XorRegions must equal the byte-wise reference for any source count
	// and fan-in, exercising every fused width and the narrower tails.
	rng := rand.New(rand.NewSource(3))
	n := 129
	for _, fanin := range []int{0, 1, 2, 3, 4, 5, 8, 16} {
		for numSrc := 0; numSrc <= 19; numSrc++ {
			srcs := make([][]byte, numSrc)
			for i := range srcs {
				srcs[i] = randBytes(rng, n)
			}
			base := randBytes(rng, n)
			want := append([]byte(nil), base...)
			xorRef(want, srcs...)
			got := append([]byte(nil), base...)
			XorRegions(got, srcs, fanin)
			if !bytes.Equal(got, want) {
				t.Fatalf("fanin=%d numSrc=%d XorRegions != reference", fanin, numSrc)
			}
		}
	}
}

// FuzzXorRegions checks the whole fused family against the byte-wise
// reference on fuzzed lengths, source counts, fan-ins and operand offsets.
func FuzzXorRegions(f *testing.F) {
	f.Add(uint16(0), uint8(1), uint8(1), uint8(0), int64(1))
	f.Add(uint16(33), uint8(5), uint8(4), uint8(3), int64(2))
	f.Add(uint16(4099), uint8(12), uint8(8), uint8(7), int64(3))
	f.Fuzz(func(t *testing.T, length uint16, count, fanin, offset uint8, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		checkXorFamily(t, rng, int(length%8192), int(offset%8), 1+int(count%12), int(fanin))
	})
}

func TestRegionLengthMismatchPanics(t *testing.T) {
	f := MustField(8)
	tbl := f.MulTable8(2)
	a, b := make([]byte, 8), make([]byte, 9)
	for name, fn := range map[string]func(){
		"XorRegion":    func() { XorRegion(a, b) },
		"XorRegion2":   func() { XorRegion2(a, a, b) },
		"XorRegion4":   func() { XorRegion4(a, a, a, a, b) },
		"XorRegion8":   func() { XorRegion8(a, &[8][]byte{a, a, a, a, a, a, a, b}) },
		"MulRegion":    func() { MulRegion(tbl, a, b) },
		"MulAddRegion": func() { MulAddRegion(tbl, a, b) },
		"CopyRegion":   func() { CopyRegion(a, b) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with mismatched lengths should panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestCopyRegion(t *testing.T) {
	src := []byte{1, 2, 3}
	dst := make([]byte, 3)
	CopyRegion(dst, src)
	if !bytes.Equal(dst, src) {
		t.Error("CopyRegion did not copy")
	}
}

// benchXor times one fused kernel over width sources of 128 KiB each,
// counting source bytes.
func benchXor(b *testing.B, width int, run func(dst []byte, srcs [][]byte)) {
	n := 128 << 10
	dst := make([]byte, n)
	srcs := make([][]byte, width)
	for i := range srcs {
		srcs[i] = make([]byte, n)
	}
	b.SetBytes(int64(width * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(dst, srcs)
	}
}

func BenchmarkXorRegion(b *testing.B) {
	benchXor(b, 1, func(dst []byte, s [][]byte) { XorRegion(dst, s[0]) })
}

func BenchmarkXorRegion2(b *testing.B) {
	benchXor(b, 2, func(dst []byte, s [][]byte) { XorRegion2(dst, s[0], s[1]) })
}

func BenchmarkXorRegion4(b *testing.B) {
	benchXor(b, 4, func(dst []byte, s [][]byte) { XorRegion4(dst, s[0], s[1], s[2], s[3]) })
}

func BenchmarkXorRegion8(b *testing.B) {
	benchXor(b, 8, func(dst []byte, s [][]byte) { XorRegion8(dst, (*[8][]byte)(s)) })
}

func BenchmarkMulAddRegion(b *testing.B) {
	f := MustField(8)
	tbl := f.MulTable8(0x53)
	dst := make([]byte, 128<<10)
	src := make([]byte, 128<<10)
	b.SetBytes(int64(len(dst)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulAddRegion(tbl, dst, src)
	}
}
