package bench

import (
	"fmt"
	"io"

	"gemmec/internal/isal"
	"gemmec/internal/jerasure"
	"gemmec/internal/lrc"
	"gemmec/internal/uezato"
)

func init() {
	register(Experiment{
		ID:    "decode",
		Paper: "§8 future work (decode throughput)",
		Title: "Reconstruction throughput vs erasure count (k=10, r=4)",
		Run:   runDecode,
	})
	register(Experiment{
		ID:    "wsweep",
		Paper: "§8 future work (different w parameters)",
		Title: "Encoding throughput vs field word size w (k=10, r=4)",
		Run:   runWSweep,
	})
	register(Experiment{
		ID:    "latency",
		Paper: "§8 future work (latency)",
		Title: "Per-stripe encode latency distribution vs unit size (k=10, r=4)",
		Run:   runLatency,
	})
	register(Experiment{
		ID:    "cpu",
		Paper: "§7.2 (ML-library EC may cost more CPU)",
		Title: "CPU time per GB encoded (k=10, r=4)",
		Run:   runCPU,
	})
	register(Experiment{
		ID:    "lrc",
		Paper: "§8 future work (local reconstruction codes)",
		Title: "LRC(12,2,2) vs RS(12,4): encode throughput and single-failure repair cost",
		Run:   runLRC,
	})
	register(Experiment{
		ID:    "update",
		Paper: "extension (ours): small-write parity update via code linearity",
		Title: "Incremental parity update vs full re-encode (k=10, r=4)",
		Run:   runUpdate,
	})
}

func runUpdate(w io.Writer, cfg Config) error {
	k, r := 10, 4
	eng, err := newEngine(k, r, cfg)
	if err != nil {
		return err
	}
	data := RandomBytes(cfg.Seed, k*cfg.UnitSize)
	parity := make([]byte, r*cfg.UnitSize)
	if err := eng.Encode(data, parity); err != nil {
		return err
	}
	oldUnit := data[:cfg.UnitSize]
	newUnit := RandomBytes(cfg.Seed+99, cfg.UnitSize)

	mFull, err := Measure("full-reencode", k*cfg.UnitSize, cfg.MinTime, func() error {
		return eng.Encode(data, parity)
	})
	if err != nil {
		return err
	}
	mUpd, err := Measure("update", cfg.UnitSize, cfg.MinTime, func() error {
		return eng.UpdateParity(parity, 0, oldUnit, newUnit)
	})
	if err != nil {
		return err
	}
	t := NewTable("Small-write cost: one changed unit (k=10, r=4, w=8)",
		"path", "time/op", "speedup")
	t.AddF("full re-encode (k units in)", mFull.PerOp().String(), "1.00x")
	t.AddF("incremental UpdateParity (1 unit in)", mUpd.PerOp().String(),
		fmt.Sprintf("%.2fx", mFull.PerOp().Seconds()/mUpd.PerOp().Seconds()))
	t.Note("parity' = parity ^ G_u * (old ^ new); the column-block kernel is compiled and cached per unit")
	return t.Fprint(w)
}

func runDecode(w io.Writer, cfg Config) error {
	k, r := 10, 4
	eng, err := newEngine(k, r, cfg)
	if err != nil {
		return err
	}
	uz, err := uezato.New(k, r, 8)
	if err != nil {
		return err
	}
	is, err := isal.New(k, r)
	if err != nil {
		return err
	}

	// Encode one stripe per library (generators differ between isal and the
	// bitmatrix coders; each decodes its own encoding).
	data := RandomBytes(cfg.Seed, k*cfg.UnitSize)
	unit := cfg.UnitSize
	makeUnits := func(parity []byte) [][]byte {
		units := make([][]byte, k+r)
		for i := 0; i < k; i++ {
			units[i] = data[i*unit : (i+1)*unit]
		}
		for i := 0; i < r; i++ {
			units[k+i] = parity[i*unit : (i+1)*unit]
		}
		return units
	}
	engParity := make([]byte, r*unit)
	if err := eng.Encode(data, engParity); err != nil {
		return err
	}
	uzParity := make([]byte, r*unit)
	if err := uz.EncodeStripe(data, uzParity, unit); err != nil {
		return err
	}
	isShards := makeUnits(make([]byte, r*unit))
	isShards = append([][]byte{}, isShards...)
	for i := 0; i < r; i++ {
		isShards[k+i] = make([]byte, unit)
	}
	if err := is.Encode(isShards); err != nil {
		return err
	}

	t := NewTable("Reconstruction throughput (GB/s of repaired data), losing the first e data units",
		"erasures", "gemmec", "uezato", "isa-l")
	for e := 1; e <= r; e++ {
		bytesPerOp := e * unit
		lose := func(units [][]byte) [][]byte {
			work := make([][]byte, len(units))
			copy(work, units)
			for i := 0; i < e; i++ {
				work[i] = nil
			}
			return work
		}
		mg, err := Measure("gemmec", bytesPerOp, cfg.MinTime, func() error {
			return eng.Reconstruct(lose(makeUnits(engParity)))
		})
		if err != nil {
			return err
		}
		mu, err := Measure("uezato", bytesPerOp, cfg.MinTime, func() error {
			return uz.Reconstruct(lose(makeUnits(uzParity)))
		})
		if err != nil {
			return err
		}
		mi, err := Measure("isal", bytesPerOp, cfg.MinTime, func() error {
			return is.Reconstruct(lose(isShards))
		})
		if err != nil {
			return err
		}
		t.AddF(e, mg.GBps(), mu.GBps(), mi.GBps())
	}
	t.Note("decode = submatrix inversion + the same GEMM; per-pattern kernels are cached by gemmec")
	return t.Fprint(w)
}

func runWSweep(w io.Writer, cfg Config) error {
	k, r := 10, 4
	t := NewTable("Word-size sweep (k=10, r=4)", "w", "gemmec GB/s", "uezato GB/s", "jerasure GB/s", "bitmatrix ones")
	for _, ww := range []int{4, 8, 16} {
		unit := cfg.UnitSize
		if unit%(8*ww) != 0 {
			unit = (unit / (8 * ww)) * 8 * ww
		}
		eng, err := newEngineW(k, r, ww, unit, cfg)
		if err != nil {
			return err
		}
		uz, err := uezato.New(k, r, ww)
		if err != nil {
			return err
		}
		jz, err := jerasure.New(k, r, ww)
		if err != nil {
			return err
		}
		data := RandomBytes(cfg.Seed, k*unit)
		parity := make([]byte, r*unit)
		bytesPerOp := k * unit

		mg, err := Measure("gemmec", bytesPerOp, cfg.MinTime, func() error {
			return eng.Encode(data, parity)
		})
		if err != nil {
			return err
		}
		mu, err := Measure("uezato", bytesPerOp, cfg.MinTime, func() error {
			return uz.EncodeStripe(data, parity, unit)
		})
		if err != nil {
			return err
		}
		units := make([][]byte, k)
		for i := range units {
			units[i] = data[i*unit : (i+1)*unit]
		}
		junits := make([][]byte, r)
		for i := range junits {
			junits[i] = make([]byte, unit)
		}
		mj, err := Measure("jerasure", bytesPerOp, cfg.MinTime, func() error {
			return jz.Encode(units, junits)
		})
		if err != nil {
			return err
		}
		t.AddF(ww, mg.GBps(), mu.GBps(), mj.GBps(), jz.BitOnes())
	}
	t.Note("larger w quadratically densifies the bitmatrix (rw x kw with ~half ones), raising XOR cost per byte")
	return t.Fprint(w)
}

func runLatency(w io.Writer, cfg Config) error {
	k, r := 10, 4
	t := NewTable("Encode latency per stripe (k=10, r=4, w=8)", "unit", "stripe", "p50", "p95", "p99")
	for _, unit := range []int{16 << 10, 64 << 10, 128 << 10, 512 << 10} {
		eng, err := newEngineW(k, r, 8, unit, cfg)
		if err != nil {
			return err
		}
		data := RandomBytes(cfg.Seed, k*unit)
		parity := make([]byte, r*unit)
		lats, err := Latencies(cfg.LatencySamples, func() error {
			return eng.Encode(data, parity)
		})
		if err != nil {
			return err
		}
		t.AddF(byteSize(unit), byteSize(k*unit),
			Percentile(lats, 50).String(), Percentile(lats, 95).String(), Percentile(lats, 99).String())
	}
	return t.Fprint(w)
}

func runCPU(w io.Writer, cfg Config) error {
	k, r := 10, 4
	eng, err := newEngine(k, r, cfg)
	if err != nil {
		return err
	}
	uz, err := uezato.New(k, r, 8)
	if err != nil {
		return err
	}
	is, err := isal.New(k, r)
	if err != nil {
		return err
	}
	jz, err := jerasure.New(k, r, 8)
	if err != nil {
		return err
	}
	data := RandomBytes(cfg.Seed, k*cfg.UnitSize)
	parity := make([]byte, r*cfg.UnitSize)
	units := make([][]byte, k)
	for i := range units {
		units[i] = data[i*cfg.UnitSize : (i+1)*cfg.UnitSize]
	}
	junits := make([][]byte, r)
	for i := range junits {
		junits[i] = make([]byte, cfg.UnitSize)
	}
	bytesPerOp := k * cfg.UnitSize

	t := NewTable("CPU cost (k=10, r=4, w=8)", "library", "GB/s", "cpu-sec/GB", "cpu/wall")
	add := func(name string, f func() error) error {
		m, err := Measure(name, bytesPerOp, cfg.MinTime, f)
		if err != nil {
			return err
		}
		ratio := 0.0
		if m.Elapsed > 0 {
			ratio = m.CPU.Seconds() / m.Elapsed.Seconds()
		}
		t.AddF(name, m.GBps(), fmt.Sprintf("%.4f", m.CPUPerGB()), fmt.Sprintf("%.2f", ratio))
		return nil
	}
	if err := add("gemmec", func() error { return eng.Encode(data, parity) }); err != nil {
		return err
	}
	if err := add("uezato", func() error { return uz.EncodeStripe(data, parity, cfg.UnitSize) }); err != nil {
		return err
	}
	if err := add("isal", func() error { return is.EncodeStripe(data, parity, cfg.UnitSize) }); err != nil {
		return err
	}
	if err := add("jerasure", func() error { return jz.Encode(units, junits) }); err != nil {
		return err
	}
	t.Note("§7.2 predicts GEMM-style parallel schedules may raise cpu/wall above 1 on multicore; serial schedules match custom libraries")
	return t.Fprint(w)
}

func runLRC(w io.Writer, cfg Config) error {
	k, l, g := 12, 2, 2
	lc, err := lrc.New(k, l, g, cfg.UnitSize)
	if err != nil {
		return err
	}
	eng, err := newEngine(k, l+g, cfg) // RS with the same total parity count
	if err != nil {
		return err
	}
	data := RandomBytes(cfg.Seed, k*cfg.UnitSize)
	lparity := make([]byte, (l+g)*cfg.UnitSize)
	rparity := make([]byte, (l+g)*cfg.UnitSize)
	bytesPerOp := k * cfg.UnitSize

	ml, err := Measure("lrc", bytesPerOp, cfg.MinTime, func() error {
		return lc.Encode(data, lparity)
	})
	if err != nil {
		return err
	}
	mr, err := Measure("rs", bytesPerOp, cfg.MinTime, func() error {
		return eng.Encode(data, rparity)
	})
	if err != nil {
		return err
	}

	t := NewTable("LRC(12,2,2) vs RS(12,4) (both 4 parity units, via the same GEMM kernels)",
		"code", "encode GB/s", "single-repair reads", "repair bytes")
	plan, err := lc.PlanRepair(0)
	if err != nil {
		return err
	}
	t.AddF("lrc(12,2,2)", ml.GBps(), len(plan.Reads), byteSize(len(plan.Reads)*cfg.UnitSize))
	t.AddF("rs(12,4)", mr.GBps(), k, byteSize(k*cfg.UnitSize))
	t.Note("LRC trades slightly weaker tolerance for %dx cheaper single-failure repair", k/len(plan.Reads))

	// Also measure actual single-unit repair time.
	shards := make([][]byte, lc.N())
	for i := 0; i < k; i++ {
		shards[i] = data[i*cfg.UnitSize : (i+1)*cfg.UnitSize]
	}
	for i := 0; i < l+g; i++ {
		shards[k+i] = lparity[i*cfg.UnitSize : (i+1)*cfg.UnitSize]
	}
	mRepair, err := Measure("lrc-repair", cfg.UnitSize, cfg.MinTime, func() error {
		work := make([][]byte, len(shards))
		copy(work, shards)
		work[0] = nil
		return lc.Reconstruct(work)
	})
	if err != nil {
		return err
	}
	t2 := NewTable("LRC single-failure repair", "metric", "value")
	t2.AddF("local repair throughput (GB/s of repaired data)", mRepair.GBps())
	t2.AddF("units read", len(plan.Reads))
	// A failed member holds any of the n positions with equal likelihood;
	// RS reads k units whichever it is.
	planned := 0
	for idx := 0; idx < lc.N(); idx++ {
		p, err := lc.PlanRepair(idx)
		if err != nil {
			return err
		}
		planned += len(p.Reads)
	}
	t2.AddF(fmt.Sprintf("mean repair reads per unit over all %d positions, lrc(12,2,2) vs rs(12,4)", lc.N()),
		fmt.Sprintf("%.2f vs %d", float64(planned)/float64(lc.N()), k))
	if err := t.Fprint(w); err != nil {
		return err
	}
	return t2.Fprint(w)
}
