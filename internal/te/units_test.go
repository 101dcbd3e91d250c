package te

import (
	"math/rand"
	"strings"
	"testing"
)

// splitUnits copies a rows x n word matrix into units separate
// allocations of rows/units rows each, row-major like the matrix.
func splitUnits(words []uint64, rows, n, units int) [][]byte {
	per := rows / units
	out := make([][]byte, units)
	for u := range out {
		buf := make(Buffer, per*n*8)
		for i := 0; i < per*n; i++ {
			buf.SetWord(i, words[u*per*n+i])
		}
		out[u] = buf
	}
	return out
}

// TestExecUnitsMatchesNaive: B and C handed over as tables of separate
// units give the same product as the contiguous reference, on every
// execution path (serial, staged, both parallel axes), and accumulate
// mode adds the product to what C held.
func TestExecUnitsMatchesNaive(t *testing.T) {
	m, k, n := 6, 9, 64
	kernels := map[string]*Kernel{}
	for name, axis := range map[string]ParallelAxis{"serial": ParallelNone, "rows": ParallelRows, "blocks": ParallelBlocks} {
		kern, _, _, _ := buildParallel(t, m, k, n, 16, 3, axis)
		kernels[name] = kern
	}
	_, _, c := ECComputeDecl(m, k, n)
	s := CreateSchedule(c)
	if err := s.Vectorize(s.Leaf()[1]); err != nil {
		t.Fatal(err)
	}
	s.CacheWrite()
	staged, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	if !staged.Config().Staged {
		t.Fatal("CacheWrite schedule did not build a staged kernel")
	}
	kernels["staged"] = staged

	rng := rand.New(rand.NewSource(7))
	for name, kern := range kernels {
		bind, abits, bw := makeECBindings(rng, kern.a, kern.b, kern.c, m, k, n)
		want := naiveEC(abits, bw, m, k, n)
		b := splitUnits(bw, k, n, 3)
		for _, accumulate := range []bool{false, true} {
			prior := make([]uint64, m*n)
			for i := range prior {
				prior[i] = rng.Uint64()
			}
			cu := splitUnits(prior, m, n, 2)
			if err := kern.ExecUnits(bind[kern.a], b, cu, accumulate); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			per := m / 2 * n
			for i, w := range want {
				if accumulate {
					w ^= prior[i]
				}
				if got := Buffer(cu[i/per]).Word(i % per); got != w {
					t.Fatalf("%s accumulate=%v: C word %d = %#x, want %#x", name, accumulate, i, got, w)
				}
			}
		}
	}
}

// TestExecUnitsRejectsBadTables: the unit count must divide the operand's
// rows and every unit must hold exactly its share.
func TestExecUnitsRejectsBadTables(t *testing.T) {
	m, k, n := 6, 9, 64
	kern, a, b, c := buildParallel(t, m, k, n, 16, 1, ParallelNone)
	bind, _, bw := makeECBindings(rand.New(rand.NewSource(8)), a, b, c, m, k, n)
	good := splitUnits(bw, k, n, 3)
	out := splitUnits(make([]uint64, m*n), m, n, 2)
	short := append([][]byte(nil), good...)
	short[2] = short[2][:8]
	for _, tc := range []struct {
		name string
		b, c [][]byte
		want string
	}{
		{"empty B", nil, out, "split over 0 units"},
		{"B units do not divide rows", splitUnits(bw, k, n, 3)[:2], out, "split over 2 units"},
		{"short B unit", short, out, "B unit 2 is 8 bytes"},
		{"short C unit", good, out[:1], "C unit 0 is"},
	} {
		err := kern.ExecUnits(bind[a], tc.b, tc.c, false)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want it to mention %q", tc.name, err, tc.want)
		}
	}
}
