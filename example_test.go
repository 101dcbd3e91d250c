package gemmec_test

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log"

	"gemmec"
)

// The package-level example: declare a code, encode a stripe, lose the
// maximum tolerated number of units, reconstruct.
func Example() {
	code, err := gemmec.New(4, 2, gemmec.WithUnitSize(1024))
	if err != nil {
		log.Fatal(err)
	}

	data := make([]byte, code.DataSize())
	copy(data, []byte("the stripe holds k units of application data"))
	parity := make([]byte, code.ParitySize())
	if err := code.Encode(data, parity); err != nil {
		log.Fatal(err)
	}

	// Scatter into shards and lose two of them.
	unit := code.UnitSize()
	shards := make([][]byte, 6)
	for i := 0; i < 4; i++ {
		shards[i] = append([]byte(nil), data[i*unit:(i+1)*unit]...)
	}
	for i := 0; i < 2; i++ {
		shards[4+i] = append([]byte(nil), parity[i*unit:(i+1)*unit]...)
	}
	shards[0], shards[5] = nil, nil

	if err := code.Reconstruct(shards); err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(shards[0][:33]))
	// Output: the stripe holds k units of appli
}

// ExampleCode_UpdateParity shows the small-write path: one block changes,
// parity is patched without re-reading the other k-1 blocks.
func ExampleCode_UpdateParity() {
	code, err := gemmec.New(4, 2, gemmec.WithUnitSize(1024))
	if err != nil {
		log.Fatal(err)
	}
	data := make([]byte, code.DataSize())
	parity := make([]byte, code.ParitySize())
	if err := code.Encode(data, parity); err != nil {
		log.Fatal(err)
	}

	oldBlock := append([]byte(nil), data[1024:2048]...)
	newBlock := bytes.Repeat([]byte{0xAB}, 1024)
	if err := code.UpdateParity(parity, 1, oldBlock, newBlock); err != nil {
		log.Fatal(err)
	}
	copy(data[1024:2048], newBlock)

	ok, err := code.Verify(data, parity)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("parity consistent after incremental update:", ok)
	// Output: parity consistent after incremental update: true
}

// ExampleCode_EncodeStream erasure-codes a stream into shard streams and
// reads it back with two shard streams missing.
func ExampleCode_EncodeStream() {
	code, err := gemmec.New(3, 2, gemmec.WithUnitSize(512))
	if err != nil {
		log.Fatal(err)
	}

	payload := bytes.Repeat([]byte("gemmec "), 500) // not a stripe multiple
	sinks := make([]*bytes.Buffer, 5)
	writers := make([]io.Writer, 5)
	for i := range sinks {
		sinks[i] = &bytes.Buffer{}
		writers[i] = sinks[i]
	}
	n, err := code.EncodeStream(bytes.NewReader(payload), writers)
	if err != nil {
		log.Fatal(err)
	}

	readers := make([]io.Reader, 5)
	for i := range sinks {
		readers[i] = bytes.NewReader(sinks[i].Bytes())
	}
	readers[0], readers[4] = nil, nil // two storage nodes offline

	var out bytes.Buffer
	if err := code.DecodeStream(readers, &out, n); err != nil {
		log.Fatal(err)
	}
	fmt.Println(bytes.Equal(out.Bytes(), payload))
	// Output: true
}

// ExampleWithStreamScheduler is the README's "Streaming" snippet, compiled
// and run: one scheduler and one stripe pool shared by every stream of the
// process, a degraded read, and a verified read that demotes a rotten
// shard mid-stream and reconstructs around it.
func ExampleWithStreamScheduler() {
	code, err := gemmec.New(3, 2, gemmec.WithUnitSize(512))
	if err != nil {
		log.Fatal(err)
	}
	pool, err := code.NewStreamPool() // share across calls: steady state allocates nothing
	if err != nil {
		log.Fatal(err)
	}
	sched := gemmec.NewScheduler(gemmec.SchedulerConfig{Workers: 4})
	defer sched.Close() // one kernel pool, shared by every stream

	payload := bytes.Repeat([]byte("gemmec "), 2000)
	sinks := make([]*bytes.Buffer, 5)
	shardWriters := make([]io.Writer, 5)
	for i := range sinks {
		sinks[i] = &bytes.Buffer{}
		shardWriters[i] = sinks[i]
	}

	var st gemmec.StreamStats
	n, err := code.EncodeStream(bytes.NewReader(payload), shardWriters, // plain call works too: EncodeStream(src, ws) runs inline
		gemmec.WithStreamScheduler(sched), // kernels on the shared pool, overlapped with the I/O
		gemmec.WithStreamPool(pool),       // ring buffers (default: private pool)
		gemmec.WithStreamStats(&st),       // fill st when done
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("stripes:", st.Stripes, "workers:", st.Workers, "ring:", st.Depth)

	// Degraded read: nil readers mark lost shards; any k of k+r suffice.
	shardReaders := make([]io.Reader, 5)
	for i := range sinks {
		shardReaders[i] = bytes.NewReader(sinks[i].Bytes())
	}
	shardReaders[3] = nil
	var dst bytes.Buffer
	err = code.DecodeStream(shardReaders, &dst, n, gemmec.WithStreamScheduler(sched), gemmec.WithStreamPool(pool))
	fmt.Println("degraded read:", err == nil && bytes.Equal(dst.Bytes(), payload))

	// Verified read: a UnitVerifier checks each shard unit inside the decode
	// pass; a failing shard is demoted to erased mid-stream and
	// reconstructed around (st.Demoted says which, at what stripe, and why).
	tab := crc32.MakeTable(crc32.Castagnoli)
	sums := make([][]uint32, 5)
	for i := range sinks {
		shard := sinks[i].Bytes()
		for off := 0; off < len(shard); off += 512 {
			sums[i] = append(sums[i], crc32.Checksum(shard[off:off+512], tab))
		}
		shardReaders[i] = bytes.NewReader(shard)
	}
	sinks[1].Bytes()[2*512+7] ^= 0x40 // shard 1 rots inside stripe 2
	dst.Reset()
	err = code.DecodeStream(shardReaders, &dst, n, gemmec.WithStreamScheduler(sched),
		gemmec.WithStreamVerifier(&unitCRCVerifier{tab: tab, sums: sums}), gemmec.WithStreamStats(&st))
	fmt.Println("verified read:", err == nil && bytes.Equal(dst.Bytes(), payload))
	for _, d := range st.Demoted {
		fmt.Printf("demoted shard %d at stripe %d: corrupt=%v\n", d.Shard, d.Stripe, errors.Is(d.Cause, gemmec.ErrCorruptShard))
	}
	// Output:
	// stripes: 10 workers: 4 ring: 8
	// degraded read: true
	// verified read: true
	// demoted shard 1 at stripe 2: corrupt=true
}
