package experiments

import (
	"fmt"
	"strings"

	"spinstreams/internal/core"
	"spinstreams/internal/keypart"
	"spinstreams/internal/qsim"
	"spinstreams/internal/stats"
)

// KeyPartRow compares partitioners at one skew level.
type KeyPartRow struct {
	ZipfExp    float64
	GreedyPMax float64
	HashPMax   float64
	GreedyReps int
	HashReps   int
	IdealPMax  float64
}

// KeyPartResult is the key-partitioning ablation (DESIGN.md): greedy LPT
// packing versus load-oblivious hashing across ZipF skews.
type KeyPartResult struct {
	Keys     int
	Replicas int
	Rows     []KeyPartRow
}

// keyPartitioningAblation measures pmax for both partitioners over a range
// of key skews.
func keyPartitioningAblation(keys, replicas int) (*KeyPartResult, error) {
	res := &KeyPartResult{Keys: keys, Replicas: replicas}
	for _, exp := range []float64{0.5, 1.0, 1.5, 2.0, 2.5} {
		freq := stats.ZipfWeights(keys, exp)
		g, err := keypart.Greedy{}.Partition(freq, replicas)
		if err != nil {
			return nil, err
		}
		h, err := keypart.ConsistentHash{Seed: 11}.Partition(freq, replicas)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, KeyPartRow{
			ZipfExp:    exp,
			GreedyPMax: g.PMax,
			HashPMax:   h.PMax,
			GreedyReps: g.Replicas,
			HashReps:   h.Replicas,
			IdealPMax:  1 / float64(replicas),
		})
	}
	return res, nil
}

// String renders the ablation table.
func (r *KeyPartResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation — key partitioning (%d keys, %d replicas requested)\n", r.Keys, r.Replicas)
	b.WriteString("zipf-exp  greedy-pmax  hash-pmax  greedy-reps  hash-reps  ideal-pmax\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%8.2f  %11.3f  %9.3f  %11d  %9d  %10.3f\n",
			row.ZipfExp, row.GreedyPMax, row.HashPMax, row.GreedyReps, row.HashReps, row.IdealPMax)
	}
	return b.String()
}

// BufferRow is one mailbox-capacity measurement.
type BufferRow struct {
	Capacity   int
	Throughput float64
	RelErr     float64
}

// BufferResult is the mailbox-capacity ablation: the steady-state model is
// capacity-independent, and the simulated throughput should be insensitive
// to the capacity beyond tiny mailboxes.
type BufferResult struct {
	Predicted float64
	Rows      []BufferRow
}

// bufferSizeAblation sweeps the mailbox capacity on the paper's example
// topology.
func bufferSizeAblation(s setup, capacities []int) (*BufferResult, error) {
	s = s.withDefaults()
	if len(capacities) == 0 {
		capacities = []int{1, 2, 4, 8, 16, 64, 256}
	}
	topo, _ := core.PaperExampleTopology(core.PaperExampleTable2)
	a, err := core.SteadyState(topo)
	if err != nil {
		return nil, err
	}
	res := &BufferResult{Predicted: a.Throughput()}
	for i, c := range capacities {
		cfg := s.simConfig(i)
		cfg.BufferSize = c
		sim, err := qsim.SimulateTopology(topo, nil, cfg)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, BufferRow{
			Capacity:   c,
			Throughput: sim.Throughput,
			RelErr:     stats.RelErr(sim.Throughput, a.Throughput()),
		})
	}
	return res, nil
}

// String renders the sweep.
func (r *BufferResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation — mailbox capacity (predicted throughput %.1f t/s)\n", r.Predicted)
	b.WriteString("capacity  throughput(t/s)  rel.err\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%8d  %15.1f  %6.2f%%\n", row.Capacity, row.Throughput, row.RelErr*100)
	}
	return b.String()
}
