package server

import (
	"errors"
	"math"
	"testing"
)

// FuzzParseRangeHeader throws arbitrary Range header values at the parser
// and resolves what it accepts against an arbitrary object size: the
// result is either ignored (ok == false: serve the whole body), refused
// (416), or a non-empty window inside [0, size) — never a negative or
// wrapped length, whatever the digits said.
func FuzzParseRangeHeader(f *testing.F) {
	for _, v := range []string{
		"bytes=0-0", "bytes=5-", "bytes=-7", "bytes=10-5", "bytes=0-9223372036854775807",
		"bytes=9223372036854775807-9223372036854775807", "bytes=-9223372036854775807",
		"bytes=1-2,4-5", "items=0-1", "bytes= 3-4 ", "bytes=-", "bytes=--1", "bytes=99999999999999999999-",
	} {
		f.Add(v, int64(1000))
	}
	f.Add("bytes=0-", int64(0))
	f.Add("bytes=-1", int64(math.MaxInt64))
	f.Fuzz(func(t *testing.T, v string, size int64) {
		off, length, ok := parseRangeHeader(v)
		if !ok {
			return
		}
		// The OpenRange convention: a suffix (off == -1, length >= 0), an
		// open end (off >= 0, length == -1), or a closed window.
		if off < -1 || length < -1 || (off == -1 && length == -1) || (off >= 0 && length == 0) {
			t.Fatalf("parseRangeHeader(%q) = (off=%d, len=%d): not a range request", v, off, length)
		}
		if size < 0 {
			return
		}
		ro, rn, err := resolveRange(off, length, size)
		if err != nil {
			var re *RangeError
			if !errors.As(err, &re) || re.Size != size {
				t.Fatalf("resolveRange(%q → off=%d, len=%d; size=%d) failed with %v, want a RangeError carrying the size", v, off, length, size, err)
			}
			return
		}
		if ro < 0 || rn <= 0 || ro >= size || rn > size-ro {
			t.Fatalf("Range %q on %d bytes resolved to [%d,+%d): outside the object", v, size, ro, rn)
		}
	})
}
