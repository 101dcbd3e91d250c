package shardfile

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// shardSet is one instantiation of the shard-stream engine under test:
// where the encode core's shard bytes go and where the decode core reads
// them back from.
type shardSet interface {
	write(src io.Reader, size int64) (Manifest, error)
	// open returns a reader over manifest stripes [base, base+stripes).
	open(m Manifest, base, stripes int64) (*StreamReader, error)
	shard(t *testing.T, i int) []byte
	// lose makes shard i unavailable to later opens.
	lose(i int)
}

// fileSet is the file instantiation: WriteStreamPaths / OpenStreamPaths
// over one directory (the reader seeks to its window itself).
type fileSet struct{ paths []string }

func (s *fileSet) write(src io.Reader, size int64) (Manifest, error) {
	m, _, err := WriteStreamPaths(s.paths, src, size, tk, tr, tunit, 2, Opts{})
	return m, err
}
func (s *fileSet) open(m Manifest, _, _ int64) (*StreamReader, error) {
	return OpenStreamPaths(s.paths, m, Opts{})
}
func (s *fileSet) shard(t *testing.T, i int) []byte {
	b, err := os.ReadFile(s.paths[i])
	if err != nil {
		t.Fatal(err)
	}
	return b
}
func (s *fileSet) lose(i int) { os.Remove(s.paths[i]) }

// streamSet is the pre-opened-stream instantiation the cluster gateway
// uses: WriteStreamTo into plain writers, OpenStreams over non-seekable
// bodies already cut to the window (as a peer's ranged shard GET is).
type streamSet struct{ bufs []*bytes.Buffer }

func (s *streamSet) write(src io.Reader, size int64) (Manifest, error) {
	ws := make([]io.Writer, tk+tr)
	for i := range ws {
		s.bufs[i] = new(bytes.Buffer)
		ws[i] = s.bufs[i]
	}
	m, _, err := WriteStreamTo(ws, src, size, tk, tr, tunit, 2, Opts{})
	return m, err
}
func (s *streamSet) open(m Manifest, base, stripes int64) (*StreamReader, error) {
	srcs := make([]io.ReadCloser, tk+tr)
	for i, b := range s.bufs {
		if b != nil {
			srcs[i] = io.NopCloser(bytes.NewReader(b.Bytes()[base*tunit : (base+stripes)*tunit]))
		}
	}
	return OpenStreams(srcs, m, base, Opts{})
}
func (s *streamSet) shard(_ *testing.T, i int) []byte { return s.bufs[i].Bytes() }
func (s *streamSet) lose(i int)                       { s.bufs[i] = nil }

// eachInstantiation runs f once per engine instantiation, each on a
// fresh empty shard set.
func eachInstantiation(t *testing.T, f func(t *testing.T, s shardSet)) {
	t.Run("files", func(t *testing.T) { f(t, &fileSet{paths: DirPaths(t.TempDir(), tk+tr)}) })
	t.Run("streams", func(t *testing.T) { f(t, &streamSet{bufs: make([]*bytes.Buffer, tk+tr)}) })
}

// TestEngineGoldenManifest: both instantiations lay down the shards and
// the manifest the golden (pre-refactor) build did — same stripe sums,
// shard bytes matching the golden SHA-256 digests — carrying stripe sums
// only.
func TestEngineGoldenManifest(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "v2_checksums_manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var golden Manifest
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	raw := goldenPayload()
	eachInstantiation(t, func(t *testing.T, s shardSet) {
		m, err := s.write(bytes.NewReader(raw), int64(len(raw)))
		if err != nil {
			t.Fatal(err)
		}
		if m.Version != ManifestV2 || !m.StripeVerified() || m.Checksums != nil {
			t.Fatalf("manifest version=%d stripe-verified=%v checksums=%d; want v2, stripe sums only",
				m.Version, m.StripeVerified(), len(m.Checksums))
		}
		want := golden
		want.Checksums = nil
		if !reflect.DeepEqual(m, want) {
			t.Fatalf("manifest differs from the golden one beyond dropping checksums:\n got %+v\nwant %+v", m, want)
		}
		for i, sum := range golden.Checksums {
			if shardSum(s.shard(t, i)) != sum {
				t.Errorf("shard %d is not byte-identical to the one the golden manifest was written for", i)
			}
		}
	})
}

// TestEngineEmptyObject: an empty payload — declared (size 0) or
// discovered (unknown size, immediate EOF) — still yields one all-zero
// stripe on every shard and decodes back to zero bytes.
func TestEngineEmptyObject(t *testing.T) {
	for name, size := range map[string]int64{"size 0": 0, "unknown size": -1} {
		t.Run(name, func(t *testing.T) {
			eachInstantiation(t, func(t *testing.T, s shardSet) {
				m, err := s.write(bytes.NewReader(nil), size)
				if err != nil {
					t.Fatal(err)
				}
				if m.FileSize != 0 || m.Stripes != 1 {
					t.Fatalf("empty object: FileSize=%d Stripes=%d, want 0 and 1", m.FileSize, m.Stripes)
				}
				for i := 0; i < tk+tr; i++ {
					if !bytes.Equal(s.shard(t, i), make([]byte, tunit)) {
						t.Fatalf("shard %d of an empty object is not one zero unit", i)
					}
				}
				sr, err := s.open(m, 0, 1)
				if err != nil {
					t.Fatal(err)
				}
				defer sr.Close()
				var out bytes.Buffer
				if _, err := sr.Decode(&out, 2); err != nil || out.Len() != 0 {
					t.Fatalf("decode of empty object: %d bytes, err=%v", out.Len(), err)
				}
			})
		})
	}
}

// TestEngineRangeWindows: DecodeRange serves exactly the window — prefix
// of the first covering stripe trimmed, pipeline stopped at the last —
// clean and reconstructing around a lost shard, whether the sources seek
// to the window (files) or were opened at it (streams).
func TestEngineRangeWindows(t *testing.T) {
	const stripeBytes = tk * tunit
	raw := goldenPayload() // 2 full stripes + 1234 bytes
	size := int64(len(raw))
	windows := []struct{ off, n int64 }{
		{0, 1}, {0, size}, {5, stripeBytes}, {stripeBytes - 1, 2},
		{stripeBytes, stripeBytes}, {2*stripeBytes + 7, 100}, {size - 1, 1}, {tunit - 3, stripeBytes + 11},
	}
	eachInstantiation(t, func(t *testing.T, s shardSet) {
		m, err := s.write(bytes.NewReader(raw), size)
		if err != nil {
			t.Fatal(err)
		}
		for _, lost := range []int{-1, 1} {
			if lost >= 0 {
				s.lose(lost)
			}
			for _, w := range windows {
				base := w.off / stripeBytes
				sr, err := s.open(m, base, (w.off+w.n-1)/stripeBytes-base+1)
				if err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				_, err = sr.DecodeRange(&out, 2, w.off, w.n)
				sr.Close()
				if err != nil || !bytes.Equal(out.Bytes(), raw[w.off:w.off+w.n]) {
					t.Fatalf("lost=%d window [%d,+%d): %d bytes back, err=%v", lost, w.off, w.n, out.Len(), err)
				}
				if lost >= 0 && !reflect.DeepEqual(sr.Unusable(), []int{lost}) {
					t.Fatalf("lost=%d window [%d,+%d): Unusable=%v", lost, w.off, w.n, sr.Unusable())
				}
			}
		}
		// A window the sources do not cover comes up short — reported, not
		// served as a silent prefix. Streams are handed one stripe too
		// few; files are immune (they hold the whole shard).
		if ss, ok := s.(*streamSet); ok {
			sr, err := ss.open(m, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			defer sr.Close()
			if _, err := sr.DecodeRange(io.Discard, 2, 0, stripeBytes+1); err == nil {
				t.Fatal("range decode over truncated sources reported success")
			}
		}
	})
}
