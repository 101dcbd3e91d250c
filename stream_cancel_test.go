package gemmec

import (
	"bytes"
	"context"
	"errors"
	"io"
	"testing"
	"time"
)

// Cancellation contract of WithStreamContext: a dead context stops the
// stream between stripes, every stage goroutine returns, and the error
// classifies with errors.Is against context.Canceled/DeadlineExceeded.

func cancelTestCode(t *testing.T) *Code {
	t.Helper()
	c, err := New(3, 2, WithUnitSize(512))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// endlessReader serves zeros forever, closing progressed once notifyAt
// bytes have gone out. Reads always return — the stream's only way to
// stop is the between-stripe context check, which is exactly the contract
// under test. (A reader parked *inside* Read holds the stream by design:
// both paths join the reader stage before returning. In the server that
// read is the request body, which net/http unblocks on disconnect.)
type endlessReader struct {
	served     int
	notifyAt   int
	progressed chan struct{}
	signaled   bool
}

func (r *endlessReader) Read(p []byte) (int, error) {
	r.served += len(p)
	if r.served >= r.notifyAt && !r.signaled {
		r.signaled = true
		close(r.progressed)
	}
	return len(p), nil
}

func TestEncodeStreamCanceledBeforeStart(t *testing.T) {
	c := cancelTestCode(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sinks := make([]io.Writer, 5)
	for i := range sinks {
		sinks[i] = io.Discard
	}
	_, err := c.EncodeStream(bytes.NewReader(make([]byte, 64<<10)), sinks,
		WithStreamContext(ctx))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestEncodeStreamCanceledMidStream(t *testing.T) {
	for _, workers := range []int{1, 4} { // serial and pipelined paths
		c := cancelTestCode(t)
		ctx, cancel := context.WithCancel(context.Background())
		src := &endlessReader{
			notifyAt:   4 * c.DataSize(),
			progressed: make(chan struct{}),
		}
		sinks := make([]io.Writer, 5)
		for i := range sinks {
			sinks[i] = io.Discard
		}
		done := make(chan error, 1)
		go func() {
			_, err := c.EncodeStream(src, sinks,
				WithStreamContext(ctx), StreamWorkers(t, workers))
			done <- err
		}()
		<-src.progressed
		cancel()
		// The source never ends: only the context can stop the stream, and
		// it must do so promptly — this is the "canceled request frees its
		// workers" guarantee.
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("workers=%d: stream did not observe cancellation", workers)
		}
	}
}

func TestDecodeStreamDeadline(t *testing.T) {
	c := cancelTestCode(t)
	data := make([]byte, 8*c.DataSize())
	for i := range data {
		data[i] = byte(i)
	}
	var shards [5]bytes.Buffer
	writers := make([]io.Writer, 5)
	for i := range writers {
		writers[i] = &shards[i]
	}
	if _, err := c.EncodeStream(bytes.NewReader(data), writers); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done() // deadline certainly expired
	readers := make([]io.Reader, 5)
	for i := range readers {
		readers[i] = bytes.NewReader(shards[i].Bytes())
	}
	err := c.DecodeStream(readers, io.Discard, int64(len(data)), WithStreamContext(ctx))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// A live context must not disturb a clean round trip.
func TestStreamContextCleanPassthrough(t *testing.T) {
	c := cancelTestCode(t)
	data := make([]byte, 3*c.DataSize()+37)
	for i := range data {
		data[i] = byte(3 * i)
	}
	var shards [5]bytes.Buffer
	writers := make([]io.Writer, 5)
	for i := range writers {
		writers[i] = &shards[i]
	}
	ctx := context.Background()
	n, err := c.EncodeStream(bytes.NewReader(data), writers, WithStreamContext(ctx))
	if err != nil || n != int64(len(data)) {
		t.Fatalf("encode = (%d, %v)", n, err)
	}
	readers := make([]io.Reader, 5)
	for i := range readers {
		readers[i] = bytes.NewReader(shards[i].Bytes())
	}
	var out bytes.Buffer
	if err := c.DecodeStream(readers, &out, int64(len(data)), WithStreamContext(ctx)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatal("round trip mismatch under WithStreamContext")
	}
}

func TestWithStreamContextNil(t *testing.T) {
	c := cancelTestCode(t)
	sinks := make([]io.Writer, 5)
	for i := range sinks {
		sinks[i] = io.Discard
	}
	_, err := c.EncodeStream(bytes.NewReader(nil), sinks, WithStreamContext(nil))
	if err == nil {
		t.Fatal("nil context accepted")
	}
}
