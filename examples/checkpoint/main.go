// Checkpoint simulates the motivating workload of §3 of the paper:
// fault-tolerant checkpointing of distributed ML training. Each of k
// trainer nodes produces a model-state partition every epoch; rather than
// writing every partition to slow stable storage, the cluster erasure-codes
// the partitions across node memories (as Check-N-Run / SCR-style
// checkpointing libraries do), so any r simultaneous node failures are
// survivable at a fraction of replication's memory cost.
//
// The simulation runs epochs of train -> checkpoint-encode -> fail ->
// recover and reports checkpoint bandwidth and recovery time.
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"
	"time"

	"gemmec"
)

const (
	trainers      = 8       // k: training nodes, one model partition each
	spares        = 3       // r: parity partitions on spare/aggregator nodes
	partitionSize = 1 << 20 // 1 MiB of model state per node per checkpoint
	epochs        = 5
)

// node is one machine's in-memory checkpoint store.
type node struct {
	id    int
	alive bool
	part  []byte // its partition (data or parity) for the latest checkpoint
}

func main() {
	code, err := gemmec.New(trainers, spares, gemmec.WithUnitSize(partitionSize))
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))

	cluster := make([]*node, trainers+spares)
	for i := range cluster {
		cluster[i] = &node{id: i, alive: true}
	}

	// The checkpoint coordinator encodes the partitions where they lie:
	// the kernel reads each trainer's buffer and writes the parity
	// partitions, with no assembly into a contiguous stripe first.
	shards := make([][]byte, trainers+spares)
	for i := trainers; i < len(shards); i++ {
		shards[i] = make([]byte, partitionSize)
	}

	for epoch := 1; epoch <= epochs; epoch++ {
		// "Train": every trainer mutates its partition.
		truth := make([][]byte, trainers)
		for i := 0; i < trainers; i++ {
			truth[i] = make([]byte, partitionSize)
			rng.Read(truth[i])
		}

		// Checkpoint: encode the partitions in place.
		start := time.Now()
		copy(shards, truth)
		if err := code.EncodeShards(shards); err != nil {
			log.Fatal(err)
		}
		encodeTime := time.Since(start)

		// Distribute: each node keeps its partition in memory.
		for i := 0; i < trainers; i++ {
			cluster[i].part = append(cluster[i].part[:0], truth[i]...)
			cluster[i].alive = true
		}
		for i := 0; i < spares; i++ {
			n := cluster[trainers+i]
			n.part = append(n.part[:0], shards[trainers+i]...)
			n.alive = true
		}
		gb := float64(code.DataSize()) / 1e9
		fmt.Printf("epoch %d: checkpointed %d partitions (%.1f MB) in %v (%.2f GB/s)\n",
			epoch, trainers, float64(code.DataSize())/1e6, encodeTime.Round(time.Microsecond), gb/encodeTime.Seconds())

		// Failure injection: up to r random nodes die this epoch.
		nFail := 1 + rng.Intn(spares)
		for _, idx := range rng.Perm(len(cluster))[:nFail] {
			cluster[idx].alive = false
		}

		// Recovery: gather surviving partitions, reconstruct the rest.
		start = time.Now()
		units := make([][]byte, trainers+spares)
		for i, n := range cluster {
			if n.alive {
				units[i] = n.part
			}
		}
		if err := code.Reconstruct(units); err != nil {
			log.Fatal(err)
		}
		recoverTime := time.Since(start)

		dead := 0
		for i, n := range cluster {
			if !n.alive {
				dead++
				if i < trainers && !bytes.Equal(units[i], truth[i]) {
					log.Fatalf("epoch %d: node %d recovered wrong state", epoch, i)
				}
				n.part = units[i]
				n.alive = true
			}
		}
		fmt.Printf("         %d node(s) failed; full state recovered in %v\n",
			dead, recoverTime.Round(time.Microsecond))
	}
	fmt.Printf("\nsurvived %d epochs; memory overhead %.2fx vs %dx for replication with equal tolerance\n",
		epochs, float64(trainers+spares)/float64(trainers), spares+1)
}
