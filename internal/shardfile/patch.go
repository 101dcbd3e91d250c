package shardfile

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sort"

	"gemmec/internal/ecerr"
	"gemmec/internal/gf"
	"gemmec/internal/vfs"
)

// Stripe-granular small writes. A PATCH that touches b bytes of an
// encoded object only invalidates the ceil(b/stripeBytes)+1 stripes the
// window covers; code linearity (parity' = parity XOR G_u*(old XOR new),
// see internal/core/update.go) lets those stripes' parities be adjusted
// from the data delta alone instead of re-encoding all k units. PlanPatch
// turns a byte splice into the minimal set of shard-file writes — the
// touched data units, their XOR-patched parity units, and fresh full
// stripes for appended tails — plus the updated manifest; ApplyPatch
// replays the writes onto the shard files in place. The plan/apply split
// is what makes the daemon's PATCH crash-atomic: the plan (a pure
// function of the old shard set and the patch bytes) is journaled before
// any shard file is touched, so a crash mid-apply replays the identical
// writes on recovery.

// ErrPatchUnsupported reports that a shard set cannot be patched in
// place — missing, short or rotten units — and the caller
// should fall back to a full read-modify-write.
var ErrPatchUnsupported = errors.New("shardfile: shard set not patchable in place")

// ShardWrite is one contiguous write into one shard file: Data bytes at
// byte Off of shard Shard. The JSON tags are the journal wire format.
type ShardWrite struct {
	Shard int    `json:"shard"`
	Off   int64  `json:"off"`
	Data  []byte `json:"data"`
}

// Patch is a planned in-place small write: the shard-file writes to
// apply and the manifest describing the set once they land. Writes are
// ordered by (stripe, shard), so per-shard offsets are ascending and
// replaying the list is idempotent.
type Patch struct {
	// Manifest is the post-patch manifest: FileSize/Stripes grown for
	// appends and StripeSums updated for every touched (shard, stripe)
	// cell.
	Manifest Manifest
	// Writes are the shard-file writes, in apply order.
	Writes []ShardWrite
	// DataBytes and ParityBytes account the rewritten bytes by kind —
	// the numbers behind the "small write does small I/O" guarantee.
	DataBytes   int64
	ParityBytes int64
	// TouchedStripes is how many stripes the patch covers.
	TouchedStripes int
}

// WriteBytes returns the total shard-file bytes the patch writes.
func (p *Patch) WriteBytes() int64 { return p.DataBytes + p.ParityBytes }

// PlanPatch computes the in-place patch that splices data into the shard
// set at payload byte off. off must lie in [0, FileSize] — equal to
// FileSize is an append — and the object may grow (FileSize becomes
// max(FileSize, off+len(data))). The old shard files are read only at
// the touched stripes (and only the units the update actually needs:
// partially overwritten data units and, for existing stripes, the r
// parity units), each read unit verified against its stripe sum first.
// Any condition that prevents a safe in-place patch — unreadable or
// rotten units — fails with an error wrapping
// ErrPatchUnsupported so callers can fall back to read-modify-write.
//
// PlanPatch only reads; nothing is written until ApplyPatch.
func PlanPatch(paths []string, m Manifest, off int64, data []byte, opt Opts) (*Patch, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if len(paths) != m.K+m.R {
		return nil, fmt.Errorf("shardfile: %d shard paths for k+r=%d", len(paths), m.K+m.R)
	}
	if off < 0 || off > m.FileSize {
		return nil, fmt.Errorf("shardfile: patch offset %d outside [0,%d]", off, m.FileSize)
	}
	if err := opt.ctxErr(); err != nil {
		return nil, err
	}
	newSize := m.FileSize
	if end := off + int64(len(data)); end > newSize {
		newSize = end
	}
	p := &Patch{Manifest: clonePatchedManifest(m, newSize)}
	if len(data) == 0 {
		return p, nil
	}

	code, err := opt.code(m.K, m.R, m.UnitSize)
	if err != nil {
		return nil, err
	}
	unit := int64(m.UnitSize)
	stripeBytes := int64(m.K) * unit
	s0 := off / stripeBytes
	s1 := (off + int64(len(data)) - 1) / stripeBytes
	p.TouchedStripes = int(s1 - s0 + 1)

	rd := patchReader{paths: paths, m: m, fsys: opt.fs()}
	defer rd.Close()

	// Every buffer a write's Data points at is allocated for it and
	// handed over (addWrite keeps it, uncopied); only delta, which no
	// write keeps, is reused across units and stripes.
	var delta []byte
	for s := s0; s <= s1; s++ {
		if err := opt.ctxErr(); err != nil {
			return nil, err
		}
		// The patch bytes covering stripe s and their unit span.
		lo, hi := s*stripeBytes, (s+1)*stripeBytes
		if off > lo {
			lo = off
		}
		if end := off + int64(len(data)); end < hi {
			hi = end
		}
		u0 := int((lo - s*stripeBytes) / unit)
		u1 := int((hi - 1 - s*stripeBytes) / unit)
		fresh := s >= int64(m.Stripes)                      // appended stripe: nothing on disk yet
		full := lo == s*stripeBytes && hi-lo == stripeBytes // every unit fully overwritten

		parity := make([]byte, code.ParitySize())
		switch {
		case fresh, full:
			// No old units needed: assemble the whole data stripe (zeros
			// outside the patch window) and encode it outright.
			stripeBuf := make([]byte, code.DataSize())
			copy(stripeBuf[lo-s*stripeBytes:], data[lo-off:hi-off])
			if err := code.Encode(stripeBuf, parity); err != nil {
				return nil, err
			}
			for u := 0; u < m.K; u++ {
				p.addWrite(u, s, unit, stripeBuf[int64(u)*unit:int64(u+1)*unit:int64(u+1)*unit], &p.DataBytes)
			}
		default:
			// Partial stripe: splice into the touched units and patch the
			// parity with each unit's delta — old XOR new, zero outside
			// the window — since by linearity parity' = parity + G_u*delta.
			if err := rd.readUnits(s, m.K, m.R, parity); err != nil {
				return nil, err
			}
			if delta == nil {
				delta = make([]byte, unit)
			}
			for u := u0; u <= u1; u++ {
				newUnit := make([]byte, unit)
				if err := rd.readUnits(s, u, 1, newUnit); err != nil {
					return nil, err
				}
				base := s*stripeBytes + int64(u)*unit
				ulo, uhi := max(lo, base), min(hi, base+unit)
				win, patch := newUnit[ulo-base:uhi-base], data[ulo-off:uhi-off]
				clear(delta)
				copy(delta[ulo-base:], win)
				gf.XorRegion(delta[ulo-base:uhi-base], patch)
				copy(win, patch)
				if err := code.AccumulateParity(parity, u, delta); err != nil {
					return nil, err
				}
				p.addWrite(u, s, unit, newUnit, &p.DataBytes)
			}
		}
		for j := 0; j < m.R; j++ {
			p.addWrite(m.K+j, s, unit, parity[int64(j)*unit:int64(j+1)*unit:int64(j+1)*unit], &p.ParityBytes)
		}
	}
	// Appended stripes' sums were filled by addWrite in order; Validate
	// asserts every shard's column reaches the grown stripe count.
	p.Manifest.Stripes = max(m.Stripes, int(s1+1))
	if err := p.Manifest.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// addWrite records one unit write and folds its CRC into the manifest.
// The write keeps b: the caller must not touch it again.
func (p *Patch) addWrite(shard int, stripe, unit int64, b []byte, acct *int64) {
	p.Writes = append(p.Writes, ShardWrite{Shard: shard, Off: stripe * unit, Data: b})
	*acct += int64(len(b))
	sums := p.Manifest.StripeSums[shard]
	for int64(len(sums)) <= stripe {
		sums = append(sums, 0)
	}
	sums[stripe] = crc32.Checksum(b, castagnoli)
	p.Manifest.StripeSums[shard] = sums
}

// clonePatchedManifest deep-copies m's stripe sums (the patch mutates
// them cell by cell) and sets the grown payload size.
func clonePatchedManifest(m Manifest, newSize int64) Manifest {
	out := m
	out.FileSize = newSize
	out.StripeSums = make([][]uint32, len(m.StripeSums))
	for i, sums := range m.StripeSums {
		out.StripeSums[i] = append([]uint32(nil), sums...)
	}
	return out
}

// patchReader reads single units of committed shard files, verifying
// each against its stripe sum. Each shard file is opened lazily, at most
// once, and kept open across stripes.
type patchReader struct {
	paths []string
	m     Manifest
	fsys  vfs.FS
	files []vfs.File
}

// readUnits reads shards [first, first+n) of stripe s into dst (n
// contiguous units) and verifies each against the manifest. A missing
// shard, short read or CRC mismatch wraps ErrPatchUnsupported — the
// caller cannot patch what it cannot trust — plus the classified error
// (ecerr.ErrShardTruncated, ecerr.ErrCorruptShard) for the last two.
func (r *patchReader) readUnits(s int64, first, n int, dst []byte) error {
	if r.files == nil {
		r.files = make([]vfs.File, len(r.paths))
	}
	unit := int64(r.m.UnitSize)
	for i := 0; i < n; i++ {
		shard := first + i
		f := r.files[shard]
		if f == nil {
			var err error
			f, err = r.fsys.Open(r.paths[shard])
			if err != nil {
				return fmt.Errorf("%w: shard %d unreadable: %w", ErrPatchUnsupported, shard, err)
			}
			r.files[shard] = f
		}
		if _, err := f.Seek(s*unit, io.SeekStart); err != nil {
			return fmt.Errorf("%w: shard %d seek: %w", ErrPatchUnsupported, shard, err)
		}
		buf := dst[int64(i)*unit : int64(i+1)*unit]
		if _, err := io.ReadFull(f, buf); err != nil {
			return fmt.Errorf("%w: shard %d stripe %d short: %w (%w)",
				ErrPatchUnsupported, shard, s, err, ecerr.ErrShardTruncated)
		}
		if err := r.m.VerifyUnit(shard, s, buf); err != nil {
			return fmt.Errorf("%w: %w", ErrPatchUnsupported, err)
		}
	}
	return nil
}

func (r *patchReader) Close() error {
	for i, f := range r.files {
		if f != nil {
			f.Close()
			r.files[i] = nil
		}
	}
	return nil
}

// ApplyPatch applies the planned writes to the shard files at paths, in
// place. Each touched shard is opened read-write once and its writes
// (ascending offsets, appends landing exactly at the old end of file)
// applied in order. ApplyPatch is idempotent — replaying the same plan
// over fully- or partially-applied shard files converges to the same
// bytes — which is what the store's patch journal relies on for crash
// recovery. The caller owns ordering: journal the plan durably first,
// ApplyPatch, then commit the new manifest.
func ApplyPatch(paths []string, p *Patch, opt Opts) error {
	fsys := opt.fs()
	// The plan emits writes stripe-major; apply them shard-major so each
	// touched file is opened once and written at ascending offsets.
	writes := append([]ShardWrite(nil), p.Writes...)
	sort.Slice(writes, func(i, j int) bool {
		if writes[i].Shard != writes[j].Shard {
			return writes[i].Shard < writes[j].Shard
		}
		return writes[i].Off < writes[j].Off
	})
	var f vfs.File
	cur := -1
	defer func() {
		if f != nil {
			f.Close()
		}
	}()
	for _, w := range writes {
		if err := opt.ctxErr(); err != nil {
			return err
		}
		if w.Shard != cur {
			if f != nil {
				if err := f.Close(); err != nil {
					return err
				}
			}
			var err error
			f, err = fsys.OpenRW(paths[w.Shard])
			if err != nil {
				return err
			}
			cur = w.Shard
		}
		if _, err := f.Seek(w.Off, io.SeekStart); err != nil {
			return err
		}
		if _, err := f.Write(w.Data); err != nil {
			return err
		}
	}
	if f != nil {
		err := f.Close()
		f = nil
		return err
	}
	return nil
}
