package shardfile

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"

	"gemmec"
	"gemmec/internal/faultfs"
	"gemmec/internal/vfs"
)

// checkReadPlan holds a plan to its contract by arithmetic of its own
// (counting the window's units per residue class, where NewPlan trims
// the covering stripes): per shard one contiguous interval, inside the
// manifest, holding exactly the shard's units of the window; parity none.
func checkReadPlan(m Manifest, plan ReadPlan, off, length int64) error {
	k, unit := int64(m.K), int64(m.UnitSize)
	if length == 0 {
		for i := 0; i < m.K+m.R; i++ {
			if from, to := plan.Interval(i); from != to {
				return fmt.Errorf("empty window reads shard %d stripes [%d,%d)", i, from, to)
			}
		}
		return nil
	}
	first, last := off/unit, (off+length-1)/unit
	var units int64
	for i := 0; i < m.K+m.R; i++ {
		from, to := plan.Interval(i)
		if from < 0 || from > to || to > int64(m.Stripes) {
			return fmt.Errorf("shard %d interval [%d,%d) outside the manifest's %d stripes", i, from, to, m.Stripes)
		}
		if i >= m.K {
			if from != to {
				return fmt.Errorf("parity shard %d planned for stripes [%d,%d)", i, from, to)
			}
			continue
		}
		// Units u ≡ i (mod k) in [first, last]: u = s*k+i for s in [lo, hi].
		lo := int64(0)
		if d := first - int64(i); d > 0 {
			lo = d / k
			if d%k != 0 {
				lo++
			}
		}
		hi := int64(-1)
		if last >= int64(i) {
			hi = (last - int64(i)) / k
		}
		if hi < lo {
			if from != to {
				return fmt.Errorf("shard %d holds no unit of the window but is planned for stripes [%d,%d)", i, from, to)
			}
			continue
		}
		if from != lo || to != hi+1 {
			return fmt.Errorf("shard %d planned for stripes [%d,%d), its units of the window are in [%d,%d)", i, from, to, lo, hi+1)
		}
		units += to - from
	}
	if units != last-first+1 {
		return fmt.Errorf("plan reads %d units, window [%d,+%d) overlaps %d", units, off, length, last-first+1)
	}
	if plan.Base != first/k || plan.End != last/k+1 {
		return fmt.Errorf("plan walks stripes [%d,%d), window covers [%d,%d)", plan.Base, plan.End, first/k, last/k+1)
	}
	return nil
}

// FuzzReadPlan: for any geometry, payload size and window — adversarial
// off/len near MaxInt64 included — PlanRead either refuses a window that
// is not inside the payload or returns intervals that cover exactly the
// window's units, contiguous per shard and inside the manifest.
func FuzzReadPlan(f *testing.F) {
	f.Add(uint8(4), uint8(2), uint32(4096), int64(100_000), int64(0), int64(100_000))
	f.Add(uint8(4), uint8(2), uint32(4096), int64(100_000), int64(99_999), int64(1))
	f.Add(uint8(3), uint8(1), uint32(1), int64(10), int64(4), int64(3))
	f.Add(uint8(4), uint8(2), uint32(131072), int64(8<<20), int64(1), int64(math.MaxInt64))
	f.Add(uint8(4), uint8(2), uint32(131072), int64(8<<20), int64(math.MaxInt64), int64(math.MaxInt64))
	f.Add(uint8(1), uint8(1), uint32(7), int64(math.MaxInt64), int64(math.MaxInt64-3), int64(3))
	f.Add(uint8(5), uint8(3), uint32(512), int64(0), int64(0), int64(0))
	f.Add(uint8(2), uint8(2), uint32(64), int64(1000), int64(-1), int64(5))
	f.Fuzz(func(t *testing.T, k, r uint8, unit uint32, size, off, length int64) {
		m := Manifest{K: int(k%16) + 1, R: int(r%4) + 1, UnitSize: int(unit%(1<<20)) + 1, FileSize: size, Stripes: 1}
		if size < 0 {
			return
		}
		stripeBytes := int64(m.K) * int64(m.UnitSize)
		if size > 0 {
			m.Stripes = int((size-1)/stripeBytes + 1)
		}
		plan, err := PlanRead(m, off, length)
		inside := off >= 0 && length >= 0 && off <= size && length <= size-off
		if (err == nil) != inside {
			t.Fatalf("PlanRead(size=%d, off=%d, len=%d) err=%v, window inside payload: %v", size, off, length, err, inside)
		}
		if err != nil {
			return
		}
		if err := checkReadPlan(m, plan, off, length); err != nil {
			t.Fatalf("k=%d r=%d unit=%d size=%d [off=%d,len=%d): %v", m.K, m.R, m.UnitSize, size, off, length, err)
		}
	})
}

// planFault is one injected fault of TestReadPlanProperty.
type planFault struct {
	kind   string // "missing", "short" (both seen by the open-time probe), "flip", "readerr" (seen only if read)
	shard  int
	stripe int // flip only
}

// TestReadPlanProperty: over random geometries, payload sizes, windows and
// up to min(2, r) faults at once — a shard missing, cut short, with one
// bit-flipped unit or failing every read; data or parity; inside or
// outside the window; known at open or met mid-stream — a planned decode
// returns exactly payload[off:off+len], and Unusable/Demoted report what
// the contract says: every shard the probe found gone, plus exactly the
// shards a read actually tripped over, at the stripe it did — and nothing
// at all when no fault touches a unit of the window.
func TestReadPlanProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	trials := 300
	if testing.Short() {
		trials = 60
	}
	for trial := 0; trial < trials; trial++ {
		k, r := 2+rng.Intn(4), 1+rng.Intn(3)
		unit := []int{64, 512, 4096}[rng.Intn(3)]
		stripeBytes := k * unit
		size := 1 + rng.Intn(6*stripeBytes)
		payload := make([]byte, size)
		rng.Read(payload)
		off := rng.Intn(size)
		n := 1 + rng.Intn(size-off)
		switch rng.Intn(4) {
		case 0:
			off, n = 0, size // the whole object
		case 1:
			n = 1 + rng.Intn(min(unit, size-off)) // a small window
		}

		dir := t.TempDir()
		paths := DirPaths(dir, k+r)
		m, _, err := WriteStreamPaths(paths, bytes.NewReader(payload), int64(size), k, r, unit, 0, Opts{})
		if err != nil {
			t.Fatal(err)
		}
		var faults []planFault
		var rules []faultfs.Rule
		for _, shard := range rng.Perm(k + r)[:rng.Intn(min(2, r)+1)] {
			f := planFault{kind: []string{"missing", "short", "flip", "readerr"}[rng.Intn(4)], shard: shard, stripe: rng.Intn(m.Stripes)}
			switch f.kind {
			case "missing":
				err = os.Remove(paths[shard])
			case "short":
				err = os.Truncate(paths[shard], int64(m.Stripes*unit-1-rng.Intn(unit)))
			case "flip":
				var b []byte
				if b, err = os.ReadFile(paths[shard]); err == nil {
					b[f.stripe*unit+rng.Intn(unit)] ^= 1 << rng.Intn(8)
					err = os.WriteFile(paths[shard], b, 0o644)
				}
			case "readerr":
				rules = append(rules, faultfs.Rule{Op: faultfs.OpRead, Pattern: filepath.Base(paths[shard])})
			}
			if err != nil {
				t.Fatal(err)
			}
			faults = append(faults, f)
		}
		desc := fmt.Sprintf("trial %d: k=%d r=%d unit=%d size=%d window [%d,+%d) faults %+v", trial, k, r, unit, size, off, n, faults)

		sr, err := OpenRangePaths(paths, m, int64(off), int64(n),
			withWorkers(Opts{FS: faultfs.New(vfs.OS, int64(trial), rules...)}, 1+rng.Intn(2)))
		if err != nil {
			t.Fatalf("%s: open: %v", desc, err)
		}
		var out bytes.Buffer
		_, err = sr.Decode(&out, 0)
		sr.Close()
		if err != nil || !bytes.Equal(out.Bytes(), payload[off:off+n]) {
			t.Fatalf("%s: %d bytes back, err=%v", desc, out.Len(), err)
		}

		// In the window: shard i's unit of stripe s overlaps [off, off+n).
		inWindow := func(i, s int) bool {
			u := s*k + i
			return i < k && u >= off/unit && u <= (off+n-1)/unit
		}
		shardInWindow := func(i int) bool {
			for s := 0; s < m.Stripes; s++ {
				if inWindow(i, s) {
					return true
				}
			}
			return false
		}
		var lost []int
		touched := false // some fault sits on a unit the clean plan reads, or took one away
		midStream := map[int]planFault{}
		for _, f := range faults {
			switch f.kind {
			case "missing", "short":
				lost = append(lost, f.shard)
				touched = touched || shardInWindow(f.shard)
			case "flip":
				midStream[f.shard] = f
				touched = touched || inWindow(f.shard, f.stripe)
			case "readerr":
				midStream[f.shard] = f
				touched = touched || shardInWindow(f.shard)
			}
		}
		want := append([]int(nil), lost...)
		for _, d := range sr.Demoted() {
			f, ok := midStream[d.Shard]
			switch {
			case !ok:
				t.Errorf("%s: shard %d demoted (%v) but carries no mid-stream fault", desc, d.Shard, d.Cause)
			case f.kind == "flip" && (d.Stripe != int64(f.stripe) || !errors.Is(d.Cause, gemmec.ErrCorruptShard)):
				t.Errorf("%s: shard %d demoted at stripe %d (%v), its flipped unit is in stripe %d", desc, d.Shard, d.Stripe, d.Cause, f.stripe)
			case f.kind == "readerr" && !errors.Is(d.Cause, faultfs.ErrInjected):
				t.Errorf("%s: shard %d demoted for %v, want the injected read error", desc, d.Shard, d.Cause)
			}
			want = append(want, d.Shard)
		}
		sort.Ints(want)
		if got := sr.Unusable(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Unusable = %v, want lost %v plus demoted = %v", desc, got, lost, want)
		}
		for shard, f := range midStream {
			// A unit that was returned was verified: a faulty one inside the
			// window cannot have gone unnoticed.
			hit := f.kind == "flip" && inWindow(shard, f.stripe) || f.kind == "readerr" && shardInWindow(shard)
			if hit && !slices.Contains(sr.Unusable(), shard) {
				t.Errorf("%s: shard %d's fault is inside the window but the shard was not demoted", desc, shard)
			}
		}
		if !touched && len(sr.Demoted()) > 0 {
			t.Errorf("%s: no fault touches the window's units, yet %v were demoted — the plan read more than the window", desc, sr.Demoted())
		}
	}
}
