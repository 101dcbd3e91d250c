package server

import (
	"errors"
	"math"
	"net/http"
	"strconv"
	"strings"
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

// FuzzParsePatchOffset throws arbitrary positioning headers and body
// lengths at the PATCH parser: the result is an error wrapping
// ErrBadPatchRange, an append (-1), or an offset >= 0 whose <last>, when
// the header gives one and the body length is known, spans exactly the
// body.
func FuzzParsePatchOffset(f *testing.F) {
	for _, v := range []string{
		"bytes 0-2/*", "bytes 5-5/100", "bytes 7-/*", "bytes 10-5/*", "0-2/*", "bytes x-y/*", "bytes 3-4",
		"bytes -1-2/*", "bytes 0-9223372036854775807/*", "bytes  1 - 3 /*", "",
	} {
		f.Add(v, "", int64(3))
	}
	f.Add("", "true", int64(3))
	f.Add("bytes 0-2/*", "false", int64(3))
	f.Add("bytes 0-2/*", "maybe", int64(-1))
	f.Add("bytes 0-/*", "", int64(-1))
	f.Fuzz(func(t *testing.T, contentRange, appendHdr string, contentLength int64) {
		r := &http.Request{Header: http.Header{}, ContentLength: contentLength}
		if contentRange != "" {
			r.Header.Set("Content-Range", contentRange)
		}
		if appendHdr != "" {
			r.Header.Set("X-Gemmec-Append", appendHdr)
		}
		off, err := parsePatchOffset(r)
		switch {
		case err != nil:
			if !errors.Is(err, ErrBadPatchRange) {
				t.Fatalf("parsePatchOffset(%q, append %q) = %v, want ErrBadPatchRange", contentRange, appendHdr, err)
			}
			return
		case off == -1:
			return
		case off < 0:
			t.Fatalf("parsePatchOffset(%q, append %q) = %d: negative offset", contentRange, appendHdr, off)
		}
		// An offset: the header named it, and a <last> it gave must agree
		// with a known body length.
		rng, _, _ := strings.Cut(strings.TrimPrefix(r.Header.Get("Content-Range"), "bytes "), "/")
		_, last, _ := strings.Cut(strings.TrimSpace(rng), "-")
		if last == "" || contentLength < 0 {
			return
		}
		end, err := strconv.ParseInt(last, 10, 64)
		if err != nil || end < off || end-off != contentLength-1 {
			t.Fatalf("Content-Range %q accepted at %d for a %d-byte body", contentRange, off, contentLength)
		}
	})
}
