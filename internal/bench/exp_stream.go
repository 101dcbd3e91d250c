package bench

import (
	"bytes"
	"fmt"
	"io"

	"gemmec"
)

func init() {
	register(Experiment{
		ID:    "stream",
		Paper: "§5 integration argument (the kernel is only as fast as the path feeding it stripes)",
		Title: "Streaming engine: pipelined encode/decode throughput vs worker count",
		Run:   runStream,
	})
}

// runStream measures EncodeStream and degraded DecodeStream throughput
// inline (the "1" row: no scheduler, every stage on the caller's
// goroutine) and on a NewScheduler pool of 2, 4 and 8 workers, over an
// in-memory source large enough to amortize pipeline spin-up. The decode
// side loses one data shard so every stripe pays a reconstruction.
func runStream(w io.Writer, cfg Config) error {
	k, r := 10, 4
	code, err := gemmec.New(k, r, gemmec.WithUnitSize(cfg.UnitSize))
	if err != nil {
		return err
	}
	pool, err := code.NewStreamPool()
	if err != nil {
		return err
	}
	const stripes = 24
	payload := RandomBytes(cfg.Seed, stripes*code.DataSize())

	// Pre-encode once to get shard streams for the decode side.
	sinks := make([]*bytes.Buffer, k+r)
	writers := make([]io.Writer, k+r)
	for i := range sinks {
		sinks[i] = &bytes.Buffer{}
		writers[i] = sinks[i]
	}
	n, err := code.EncodeStream(bytes.NewReader(payload), writers)
	if err != nil {
		return err
	}

	t := NewTable("E-STREAM: pipelined streaming engine (k=10, r=4, degraded decode loses shard 0)",
		"workers", "encode GB/s", "decode GB/s", "encode stall", "read stall")
	var base float64
	for _, workers := range []int{1, 2, 4, 8} {
		var st gemmec.StreamStats
		opts := []gemmec.StreamOption{gemmec.WithStreamPool(pool)}
		if workers > 1 {
			sched := gemmec.NewScheduler(gemmec.SchedulerConfig{Workers: workers})
			defer sched.Close()
			opts = append(opts, gemmec.WithStreamScheduler(sched))
		}
		enc, err := Measure("encode", len(payload), cfg.MinTime, func() error {
			for i := range writers {
				writers[i] = io.Discard
			}
			_, err := code.EncodeStream(bytes.NewReader(payload), writers, append(opts, gemmec.WithStreamStats(&st))...)
			return err
		})
		if err != nil {
			return err
		}
		readers := make([]io.Reader, k+r)
		dec, err := Measure("decode", int(n), cfg.MinTime, func() error {
			for i := range readers {
				readers[i] = bytes.NewReader(sinks[i].Bytes())
			}
			readers[0] = nil // degraded read: reconstruct every stripe
			return code.DecodeStream(readers, io.Discard, n, opts...)
		})
		if err != nil {
			return err
		}
		if workers == 1 {
			base = enc.GBps()
		}
		speed := "-"
		if workers > 1 && base > 0 {
			speed = fmt.Sprintf("%.2fx vs inline", enc.GBps()/base)
		}
		t.AddF(fmt.Sprintf("%d", workers),
			fmt.Sprintf("%.2f (%s)", enc.GBps(), speed),
			fmt.Sprintf("%.2f", dec.GBps()),
			st.EncodeStall.String(), st.ReadStall.String())
	}
	return t.Fprint(w)
}
