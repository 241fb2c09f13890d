package keypart

import (
	"math"
	"slices"
	"sort"
	"testing"
)

// FuzzGreedyPartition checks the partitioner's invariants on arbitrary
// weight vectors: no panic, every key assigned to a live replica, loads
// consistent, pmax >= the ideal share.
func FuzzGreedyPartition(f *testing.F) {
	f.Add([]byte{10, 20, 30}, uint8(2))
	f.Add([]byte{1}, uint8(8))
	f.Add([]byte{255, 1, 1, 1, 1, 1}, uint8(3))

	f.Fuzz(func(t *testing.T, raw []byte, nRaw uint8) {
		if len(raw) == 0 || len(raw) > 512 {
			return
		}
		freq := make([]float64, len(raw))
		total := 0.0
		for i, b := range raw {
			freq[i] = float64(b) + 1 // strictly positive
			total += freq[i]
		}
		for i := range freq {
			freq[i] /= total
		}
		n := 1 + int(nRaw)%16
		for _, p := range []Partitioner{Greedy{}, ConsistentHash{Seed: 3}} {
			asg, err := p.Partition(freq, n)
			if err != nil {
				t.Fatalf("valid input rejected: %v", err)
			}
			if asg.Replicas < 1 || asg.Replicas > n {
				t.Fatalf("replicas = %d outside [1, %d]", asg.Replicas, n)
			}
			sum := 0.0
			for k, r := range asg.Replica {
				if r < 0 || r >= len(asg.Load) {
					t.Fatalf("key %d -> replica %d out of range", k, r)
				}
				sum += freq[k]
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("assigned mass %v != 1", sum)
			}
			if asg.PMax < 1/float64(asg.Replicas)-1e-9 || asg.PMax > 1+1e-9 {
				t.Fatalf("pmax = %v implausible for %d replicas", asg.PMax, asg.Replicas)
			}
		}
	})
}

// greedyScan is the oracle for Greedy.Partition: the same
// longest-processing-time-first packing, finding the least-loaded replica
// with a linear scan over all n replicas per key (O(K·n)).
func greedyScan(freq []float64, n int) (Assignment, error) {
	if err := validate(freq, n); err != nil {
		return Assignment{}, err
	}
	if n > len(freq) {
		n = len(freq)
	}
	idx := make([]int, len(freq))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if freq[idx[a]] != freq[idx[b]] {
			return freq[idx[a]] > freq[idx[b]]
		}
		return idx[a] < idx[b]
	})
	asg := Assignment{
		Replicas: n,
		Replica:  make([]int, len(freq)),
		Load:     make([]float64, n),
	}
	for _, k := range idx {
		best := 0
		for r := 1; r < n; r++ {
			if asg.Load[r] < asg.Load[best] {
				best = r
			}
		}
		asg.Replica[k] = best
		asg.Load[best] += freq[k]
	}
	asg.consolidate()
	asg.trim()
	return asg, nil
}

// FuzzGreedyMatchesOracle holds the heap partitioner to the linear scan
// bit for bit: same error, same Replicas, same PMax bits, same key map and
// same load bits. Byte 0 is a zero frequency (both must refuse it), small
// alphabets make equal frequencies common, and n ranges over 0..40, so
// n = 1, n > K and n < K all occur.
func FuzzGreedyMatchesOracle(f *testing.F) {
	f.Add([]byte{4, 4, 4, 4, 4, 4}, uint8(4))       // all equal: ties to the lowest index
	f.Add([]byte{9, 3, 3, 3, 2, 2, 1, 1}, uint8(3)) // ties after the first fill
	f.Add([]byte{5, 1}, uint8(7))                   // n > K
	f.Add([]byte{7, 2, 2, 9}, uint8(1))             // n = 1
	f.Add([]byte{3, 0, 3}, uint8(2))                // a zero frequency
	f.Add([]byte{255, 1, 1, 1, 1, 1}, uint8(3))     // skew: consolidation merges

	f.Fuzz(func(t *testing.T, raw []byte, nRaw uint8) {
		if len(raw) == 0 || len(raw) > 2048 {
			return
		}
		freq := make([]float64, len(raw))
		for i, b := range raw {
			freq[i] = float64(b) / 7 // inexact sums, so load order depends on addition order
		}
		n := int(nRaw) % 41
		got, gotErr := Greedy{}.Partition(freq, n)
		want, wantErr := greedyScan(freq, n)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("error %v, oracle %v", gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		if got.Replicas != want.Replicas || math.Float64bits(got.PMax) != math.Float64bits(want.PMax) {
			t.Fatalf("replicas %d pmax %v, oracle %d %v", got.Replicas, got.PMax, want.Replicas, want.PMax)
		}
		if !slices.Equal(got.Replica, want.Replica) {
			t.Fatalf("key map %v, oracle %v", got.Replica, want.Replica)
		}
		if len(got.Load) != len(want.Load) {
			t.Fatalf("loads %v, oracle %v", got.Load, want.Load)
		}
		for r := range got.Load {
			if math.Float64bits(got.Load[r]) != math.Float64bits(want.Load[r]) {
				t.Fatalf("replica %d load %v, oracle %v", r, got.Load[r], want.Load[r])
			}
		}
	})
}
