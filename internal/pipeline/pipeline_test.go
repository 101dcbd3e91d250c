package pipeline

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"
	"time"

	"gemmec/internal/sched"
	"gemmec/internal/stripe"
)

// withWorkers is how these tests pick a run's mode by worker count: n == 1
// is the inline path (no scheduler), n > 1 a scheduler of n workers that
// t.Cleanup closes.
func withWorkers(t *testing.T, n int) Config {
	if n == 1 {
		return Config{}
	}
	s := sched.New(sched.Config{Workers: n})
	t.Cleanup(s.Close)
	return Config{Sched: s}
}

// xorCodec is a trivial erasure code for exercising the pipeline without
// the real engine: parity unit j is the XOR of all data units, rotated
// left by j bytes so the r parity units differ. A single lost data unit is
// reconstructable from parity 0 and the surviving data units. The optional
// jitter sleeps a pseudorandom time per Encode so concurrent workers
// finish out of order, stressing the in-order writer.
type xorCodec struct {
	k, r, unit int
	jitter     time.Duration
	encodeErr  error // returned by Encode when set
	mu         sync.Mutex
	rng        *rand.Rand
}

func newXorCodec(k, r, unit int) *xorCodec {
	return &xorCodec{k: k, r: r, unit: unit, rng: rand.New(rand.NewSource(1))}
}

func (c *xorCodec) K() int        { return c.k }
func (c *xorCodec) R() int        { return c.r }
func (c *xorCodec) UnitSize() int { return c.unit }

func (c *xorCodec) sleep() {
	if c.jitter <= 0 {
		return
	}
	c.mu.Lock()
	d := time.Duration(c.rng.Int63n(int64(c.jitter)))
	c.mu.Unlock()
	time.Sleep(d)
}

func (c *xorCodec) Encode(data, parity []byte) error {
	if c.encodeErr != nil {
		return c.encodeErr
	}
	c.sleep()
	base := make([]byte, c.unit)
	for u := 0; u < c.k; u++ {
		for b := 0; b < c.unit; b++ {
			base[b] ^= data[u*c.unit+b]
		}
	}
	for j := 0; j < c.r; j++ {
		for b := 0; b < c.unit; b++ {
			parity[j*c.unit+b] = base[(b+j)%c.unit]
		}
	}
	return nil
}

func (c *xorCodec) ReconstructData(units [][]byte) error {
	c.sleep()
	lost := -1
	for i := 0; i < c.k; i++ {
		if len(units[i]) == 0 {
			if lost >= 0 {
				return fmt.Errorf("xorCodec: can only rebuild one data unit")
			}
			lost = i
		}
	}
	if lost < 0 {
		return nil
	}
	p0 := units[c.k]
	if len(p0) == 0 {
		return fmt.Errorf("xorCodec: parity 0 lost too")
	}
	out := units[lost][:0]
	if cap(out) < c.unit {
		out = make([]byte, c.unit)
	}
	out = append(out, p0...)
	for i := 0; i < c.k; i++ {
		if i == lost {
			continue
		}
		for b := 0; b < c.unit; b++ {
			out[b] ^= units[i][b]
		}
	}
	units[lost] = out
	return nil
}

func sinkSet(n int) ([]*bytes.Buffer, []io.Writer) {
	sinks := make([]*bytes.Buffer, n)
	writers := make([]io.Writer, n)
	for i := range sinks {
		sinks[i] = &bytes.Buffer{}
		writers[i] = sinks[i]
	}
	return sinks, writers
}

func payload(seed int64, size int) []byte {
	p := make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(p)
	return p
}

// TestEncodeOrderIdentical: with jittered encode latency and many workers,
// shard output must be byte-identical to the inline path — the in-order
// writer drains by sequence number.
func TestEncodeOrderIdentical(t *testing.T) {
	c := newXorCodec(4, 2, 64)
	src := payload(7, 23*c.k*c.unit+17) // 24 stripes, padded tail
	serialSinks, serialWriters := sinkSet(6)
	nSerial, _, err := Encode(c, bytes.NewReader(src), serialWriters, withWorkers(t, 1))
	if err != nil {
		t.Fatal(err)
	}

	c.jitter = 200 * time.Microsecond
	pipeSinks, pipeWriters := sinkSet(6)
	nPipe, st, err := Encode(c, bytes.NewReader(src), pipeWriters, withWorkers(t, 6))
	if err != nil {
		t.Fatal(err)
	}
	if nSerial != nPipe || nPipe != int64(len(src)) {
		t.Fatalf("consumed serial=%d pipe=%d want %d", nSerial, nPipe, len(src))
	}
	if st.Stripes != 24 {
		t.Fatalf("stats report %d stripes, want 24", st.Stripes)
	}
	for i := range serialSinks {
		if !bytes.Equal(serialSinks[i].Bytes(), pipeSinks[i].Bytes()) {
			t.Fatalf("shard %d differs between serial and pipelined encode", i)
		}
	}
}

// TestDecodeRoundTrip: encode, lose a data shard and a parity shard,
// decode through the pipeline with jittered reconstruction.
func TestDecodeRoundTrip(t *testing.T) {
	c := newXorCodec(5, 2, 32)
	src := payload(9, 11*c.k*c.unit+5)
	sinks, writers := sinkSet(7)
	n, _, err := Encode(c, bytes.NewReader(src), writers, withWorkers(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	c.jitter = 150 * time.Microsecond
	for _, workers := range []int{1, 4} {
		readers := make([]io.Reader, 7)
		for i := range readers {
			readers[i] = bytes.NewReader(sinks[i].Bytes())
		}
		readers[2] = nil // lost data shard: every stripe reconstructs
		readers[6] = nil // lost parity shard: irrelevant to decode
		var out bytes.Buffer
		st, err := Decode(c, Readers(c, readers, n), &out, withWorkers(t, workers))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), src) {
			t.Fatalf("workers=%d: decoded stream differs", workers)
		}
		if st.BytesOut != int64(len(src)) {
			t.Fatalf("workers=%d: stats report %d bytes out, want %d", workers, st.BytesOut, len(src))
		}
	}
}

type errWriter struct{ after int }

func (w *errWriter) Write(p []byte) (int, error) {
	if w.after <= 0 {
		return 0, errors.New("disk full")
	}
	w.after--
	return len(p), nil
}

type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// TestEncodeFailurePaths: source, sink and kernel failures must surface
// (not hang) at every worker count, and the ring must drain cleanly.
func TestEncodeFailurePaths(t *testing.T) {
	for _, workers := range []int{1, 4} {
		cfg := withWorkers(t, workers)
		c := newXorCodec(3, 1, 16)
		stripeBytes := c.k * c.unit

		// Failing source after one clean stripe.
		_, writers := sinkSet(4)
		src := io.MultiReader(bytes.NewReader(make([]byte, stripeBytes)), errReader{errors.New("disk error")})
		if _, _, err := Encode(c, src, writers, cfg); err == nil {
			t.Errorf("workers=%d: source error swallowed", workers)
		}

		// Failing shard writer.
		_, writers = sinkSet(4)
		writers[2] = &errWriter{after: 1}
		if _, _, err := Encode(c, bytes.NewReader(make([]byte, 8*stripeBytes)), writers, cfg); err == nil {
			t.Errorf("workers=%d: writer error swallowed", workers)
		}

		// Failing kernel.
		c.encodeErr = errors.New("kernel fault")
		_, writers = sinkSet(4)
		if _, _, err := Encode(c, bytes.NewReader(make([]byte, 4*stripeBytes)), writers, cfg); err == nil {
			t.Errorf("workers=%d: encode error swallowed", workers)
		}
	}
}

// unitSink is a UnitWriter over an in-memory shard: it records each unit
// at its stripe, and counts the in-order writes it is handed as well.
type unitSink struct {
	unit int
	mu   sync.Mutex
	buf  []byte
	fail int64 // WriteUnit of this stripe fails; -1 never
	// writes counts Write calls; units, WriteUnit calls.
	writes, units int
}

func (u *unitSink) WriteUnit(stripe int64, p []byte) error {
	if stripe == u.fail {
		return errors.New("disk full")
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	u.units++
	if end := int(stripe+1) * u.unit; end > len(u.buf) {
		u.buf = append(u.buf, make([]byte, end-len(u.buf))...)
	}
	copy(u.buf[int(stripe)*u.unit:], p)
	return nil
}

func (u *unitSink) Write(p []byte) (int, error) {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.writes++
	u.buf = append(u.buf, p...)
	return len(p), nil
}

// TestUnitWritersWrittenByKernel: when every shard writer is a UnitWriter
// the kernel tasks write the units — out of stripe order under jitter —
// and the in-order drain writes nothing, yet every shard comes out
// byte-identical to the streamed encode; one writer that is not a
// UnitWriter keeps the whole encode on the in-order drain; and a failing
// WriteUnit fails the stream.
func TestUnitWritersWrittenByKernel(t *testing.T) {
	c := newXorCodec(4, 2, 64)
	const stripes = 24
	src := payload(11, (stripes-1)*c.k*c.unit+17)
	wantSinks, wantWriters := sinkSet(6)
	if _, _, err := Encode(c, bytes.NewReader(src), wantWriters, withWorkers(t, 1)); err != nil {
		t.Fatal(err)
	}
	c.jitter = 200 * time.Microsecond
	sinks := func(fail int64) ([]*unitSink, []io.Writer) {
		us := make([]*unitSink, 6)
		ws := make([]io.Writer, 6)
		for i := range us {
			us[i] = &unitSink{unit: c.unit, fail: -1}
			ws[i] = us[i]
		}
		us[3].fail = fail
		return us, ws
	}
	for _, workers := range []int{1, 4} {
		us, ws := sinks(-1)
		n, st, err := Encode(c, bytes.NewReader(src), ws, withWorkers(t, workers))
		if err != nil || n != int64(len(src)) || st.Stripes != stripes || st.BytesOut != int64(6*stripes*c.unit) {
			t.Fatalf("workers=%d: n=%d stats=%+v err=%v", workers, n, st, err)
		}
		for i, u := range us {
			if u.writes != 0 || u.units != stripes || !bytes.Equal(u.buf, wantSinks[i].Bytes()) {
				t.Fatalf("workers=%d shard %d: %d writes, %d units, identical=%v; want 0, %d, true",
					workers, i, u.writes, u.units, bytes.Equal(u.buf, wantSinks[i].Bytes()), stripes)
			}
		}

		us, ws = sinks(-1)
		var plain bytes.Buffer
		ws[5] = &plain
		if _, _, err := Encode(c, bytes.NewReader(src), ws, withWorkers(t, workers)); err != nil {
			t.Fatal(err)
		}
		for i, u := range us[:5] {
			if u.units != 0 || !bytes.Equal(u.buf, wantSinks[i].Bytes()) {
				t.Fatalf("workers=%d shard %d: a mixed sink set wrote %d units by stripe", workers, i, u.units)
			}
		}
		if !bytes.Equal(plain.Bytes(), wantSinks[5].Bytes()) {
			t.Fatalf("workers=%d: the plain writer of a mixed set differs", workers)
		}

		_, ws = sinks(7)
		if _, _, err := Encode(c, bytes.NewReader(src), ws, withWorkers(t, workers)); err == nil {
			t.Fatalf("workers=%d: failing WriteUnit swallowed", workers)
		}
	}
}

// TestDecodeTruncated: a shard stream shorter than size errors out.
func TestDecodeTruncated(t *testing.T) {
	c := newXorCodec(3, 1, 16)
	for _, workers := range []int{1, 3} {
		readers := make([]io.Reader, 4)
		for i := range readers {
			readers[i] = bytes.NewReader(nil)
		}
		var out bytes.Buffer
		if _, err := Decode(c, Readers(c, readers, 10), &out, withWorkers(t, workers)); err == nil {
			t.Errorf("workers=%d: truncated shard streams accepted", workers)
		}
	}
}

// TestConfigValidation: a wrong pool geometry and a short writer slice are
// rejected.
func TestConfigValidation(t *testing.T) {
	c := newXorCodec(3, 1, 16)
	_, writers := sinkSet(4)
	wrong, err := stripe.NewPool(c.k, c.unit) // data-only geometry: too small
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Encode(c, bytes.NewReader(nil), writers, Config{Pool: wrong}); err == nil {
		t.Error("wrong pool geometry accepted")
	}
	if _, _, err := Encode(c, bytes.NewReader(nil), writers[:3], Config{}); err == nil {
		t.Error("short writer slice accepted")
	}
}

// TestPoolReuse: repeated runs over a shared pool must not grow it beyond
// the ring (two slots per pool worker) — the allocation-free steady state.
func TestPoolReuse(t *testing.T) {
	c := newXorCodec(4, 2, 64)
	pool, err := stripe.NewPool(c.k+c.r, c.unit)
	if err != nil {
		t.Fatal(err)
	}
	src := payload(3, 10*c.k*c.unit)
	cfg := withWorkers(t, 3)
	cfg.Pool = pool
	for i := 0; i < 5; i++ {
		_, writers := sinkSet(6)
		if _, _, err := Encode(c, bytes.NewReader(src), writers, cfg); err != nil {
			t.Fatal(err)
		}
	}
	if got, ring := pool.Allocated(), 2*cfg.Sched.Workers(); got > ring {
		t.Fatalf("pool allocated %d buffers across runs, want <= the ring's %d", got, ring)
	}
}

// TestConcurrentStreams: many goroutines stream through one codec, one
// shared pool and one scheduler at once; run under -race this is the
// pipeline stress test.
func TestConcurrentStreams(t *testing.T) {
	c := newXorCodec(4, 2, 64)
	c.jitter = 50 * time.Microsecond
	pool, err := stripe.NewPool(c.k+c.r, c.unit)
	if err != nil {
		t.Fatal(err)
	}
	cfg := withWorkers(t, 3)
	cfg.Pool = pool
	const streams = 8
	var wg sync.WaitGroup
	errs := make(chan error, streams)
	for g := 0; g < streams; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			src := payload(int64(g), (5+g)*c.k*c.unit+g*13)
			sinks, writers := sinkSet(6)
			n, _, err := Encode(c, bytes.NewReader(src), writers, cfg)
			if err != nil {
				errs <- err
				return
			}
			readers := make([]io.Reader, 6)
			for i := range readers {
				readers[i] = bytes.NewReader(sinks[i].Bytes())
			}
			readers[g%c.k] = nil
			var out bytes.Buffer
			if _, err := Decode(c, Readers(c, readers, n), &out, cfg); err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(out.Bytes(), src) {
				errs <- fmt.Errorf("stream %d corrupted", g)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
