package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
)

// seededBytes returns n pseudo-random bytes that depend only on (seed,
// stream): the same seed reproduces every payload of a run, and distinct
// streams (payload versions, patch windows) never share bytes.
func seededBytes(seed int64, stream int, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed*1_000_003 + int64(stream))).Read(b)
	return b
}

// headerLen is the per-object prefix that makes every object distinct even
// though bodies come from a small shared pool: a read that returns another
// key's (or another version's) bytes fails verification on the header.
const headerLen = 16

// object is one key the generator owns, with the bytes the store must
// return for it. The expected content is header ++ body[headerLen:] until
// the object is patched; from then on shadow holds the full expected bytes.
type object struct {
	name    string
	index   uint64
	version uint64
	header  [headerLen]byte
	body    []byte // shared, read-only pool entry, len == object size
	shadow  []byte // private full copy once patched
}

func (o *object) size() int64 { return int64(len(o.body)) }

// setVersion points the object at pool entry v and stamps the header.
func (o *object) setVersion(pool [][]byte, v uint64) {
	o.version = v
	o.body = pool[v%uint64(len(pool))]
	binary.LittleEndian.PutUint64(o.header[0:8], o.index)
	binary.LittleEndian.PutUint64(o.header[8:16], v)
	o.shadow = nil
}

// reader streams the object's current expected content without copying it.
func (o *object) reader() io.Reader {
	if o.shadow != nil {
		return bytes.NewReader(o.shadow)
	}
	n := min(headerLen, len(o.body))
	return io.MultiReader(bytes.NewReader(o.header[:n]), bytes.NewReader(o.body[n:]))
}

// matches reports whether got equals the expected bytes at [off, off+len(got)).
func (o *object) matches(off int64, got []byte) bool {
	if off < 0 || off+int64(len(got)) > o.size() {
		return false
	}
	if o.shadow != nil {
		return bytes.Equal(o.shadow[off:off+int64(len(got))], got)
	}
	if off < headerLen {
		n := min(int(headerLen-off), len(got))
		if !bytes.Equal(o.header[off:off+int64(n)], got[:n]) {
			return false
		}
		got, off = got[n:], off+int64(n)
	}
	return bytes.Equal(o.body[off:off+int64(len(got))], got)
}

// patch splices data into the expected content at off, materializing the
// shadow copy on first use.
func (o *object) patch(off int64, data []byte) {
	if o.shadow == nil {
		o.shadow = make([]byte, len(o.body))
		copy(o.shadow, o.body)
		copy(o.shadow, o.header[:min(headerLen, len(o.body))])
	}
	copy(o.shadow[off:], data)
}

// verifyBody reads r to EOF and compares it chunk by chunk, as it arrives,
// against obj's expected bytes starting at off; want is the exact number of
// bytes the body must carry. buf is the caller's reusable read buffer.
func verifyBody(r io.Reader, obj *object, off, want int64, buf []byte) error {
	var got int64
	for {
		n, err := io.ReadFull(r, buf)
		if n > 0 {
			if got+int64(n) > want {
				return fmt.Errorf("%s: body longer than the %d bytes expected", obj.name, want)
			}
			if !obj.matches(off+got, buf[:n]) {
				return fmt.Errorf("%s: wrong bytes in [%d,%d)", obj.name, off+got, off+got+int64(n))
			}
			got += int64(n)
		}
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			break
		}
		if err != nil {
			return fmt.Errorf("%s: reading body: %w", obj.name, err)
		}
	}
	if got != want {
		return fmt.Errorf("%s: body is %d bytes, want %d", obj.name, got, want)
	}
	return nil
}
