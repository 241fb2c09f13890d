// Package keypart implements key-to-replica assignment heuristics for the
// fission of partitioned-stateful operators (Section 3.2 of the paper).
//
// Given the frequency distribution of the partitioning keys and a desired
// replication degree, a partitioner assigns every key to a replica trying to
// keep the most loaded replica as close as possible to an even 1/n share.
// The achieved maximum share (pmax) determines whether the parallelized
// operator is still a bottleneck: it saturates when lambda*pmax > mu.
package keypart

import (
	"cmp"
	"fmt"
	"slices"

	"spinstreams/internal/stats"
)

// Assignment is the result of partitioning a key domain over replicas.
type Assignment struct {
	// Replicas is the number of replicas actually used; it may be lower
	// than requested when fewer keys than replicas exist.
	Replicas int
	// PMax is the input fraction received by the most loaded replica.
	PMax float64
	// Replica maps each key index to the replica owning it.
	Replica []int
	// Load is the total input fraction assigned to each replica.
	Load []float64
}

// Partitioner assigns keys (given by their frequency) to n replicas.
type Partitioner interface {
	// Partition distributes len(freq) keys over at most n replicas.
	// Frequencies must be positive; they are treated as weights and need
	// not sum exactly to one.
	Partition(freq []float64, n int) (Assignment, error)
}

func validate(freq []float64, n int) error {
	if n < 1 {
		return fmt.Errorf("keypart: %d replicas, need >= 1", n)
	}
	if len(freq) == 0 {
		return fmt.Errorf("keypart: empty key distribution")
	}
	for i, f := range freq {
		if !(f > 0) { // also rejects NaN, which no load order can rank
			return fmt.Errorf("keypart: key %d has frequency %v, must be > 0", i, f)
		}
	}
	return nil
}

// Greedy is the default partitioner: longest-processing-time-first greedy
// bin packing. Keys are sorted by decreasing frequency and each is assigned
// to the currently least loaded replica, the lowest index on a tie. For
// skewed (e.g. ZipF) frequency distributions this is a strong heuristic
// for minimizing pmax. The replicas sit in a min-heap ordered by (load,
// index), so K keys over n replicas cost O(K log n).
type Greedy struct{}

var _ Partitioner = Greedy{}

// Partition implements Partitioner.
func (Greedy) Partition(freq []float64, n int) (Assignment, error) {
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
	slices.SortFunc(idx, func(a, b int) int {
		if c := cmp.Compare(freq[b], freq[a]); c != 0 {
			return c
		}
		return a - b
	})
	asg := Assignment{
		Replicas: n,
		Replica:  make([]int, len(freq)),
		Load:     make([]float64, n),
	}
	// heap[0] is the least-loaded replica. All loads start at zero, so the
	// identity order is already a heap; each key raises the root's load
	// and sifts it down.
	heap := make([]int, n)
	for r := range heap {
		heap[r] = r
	}
	less := func(a, b int) bool {
		return asg.Load[a] < asg.Load[b] || asg.Load[a] == asg.Load[b] && a < b
	}
	for _, k := range idx {
		best := heap[0]
		asg.Replica[k] = best
		asg.Load[best] += freq[k]
		for i := 0; ; {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && less(heap[c+1], heap[c]) {
				c++
			}
			if !less(heap[c], heap[i]) {
				break
			}
			heap[i], heap[c] = heap[c], heap[i]
			i = c
		}
	}
	asg.consolidate()
	asg.trim()
	return asg, nil
}

// consolidate merges the two least-loaded replicas while doing so does not
// increase the maximum load. This mirrors the paper's KeyPartitioning
// contract, which may return fewer replicas than requested: when key skew
// pins pmax (e.g. one key holding 50% of the items), extra replicas that
// cannot lower pmax are wasted and are released instead.
func (a *Assignment) consolidate() {
	for len(a.Load) > 1 {
		maxLoad := 0.0
		for _, l := range a.Load {
			if l > maxLoad {
				maxLoad = l
			}
		}
		// Find the two least-loaded replicas.
		lo1, lo2 := -1, -1
		for r, l := range a.Load {
			switch {
			case lo1 < 0 || l < a.Load[lo1]:
				lo2 = lo1
				lo1 = r
			case lo2 < 0 || l < a.Load[lo2]:
				lo2 = r
			}
		}
		if a.Load[lo1]+a.Load[lo2] > maxLoad+1e-12 {
			return
		}
		// Merge the higher-indexed replica (hi) into the lower one (lo),
		// then drop hi by swapping the last replica into its slot.
		lo, hi := lo1, lo2
		if lo > hi {
			lo, hi = hi, lo
		}
		a.Load[lo] += a.Load[hi]
		last := len(a.Load) - 1
		for k, r := range a.Replica {
			if r == hi {
				a.Replica[k] = lo
			} else if r == last && hi != last {
				a.Replica[k] = hi
			}
		}
		a.Load[hi] = a.Load[last]
		a.Load = a.Load[:last]
	}
}

// ConsistentHash is a baseline partitioner that ignores frequencies and
// assigns keys by hashing them onto replicas, mimicking the default
// key-grouping of most SPSs. With skewed key distributions it yields a much
// larger pmax than Greedy; it exists as the ablation baseline.
type ConsistentHash struct {
	// Seed perturbs the hash, allowing different placements.
	Seed uint64
}

var _ Partitioner = ConsistentHash{}

// Partition implements Partitioner.
func (c ConsistentHash) Partition(freq []float64, n int) (Assignment, error) {
	if err := validate(freq, n); err != nil {
		return Assignment{}, err
	}
	if n > len(freq) {
		n = len(freq)
	}
	asg := Assignment{
		Replicas: n,
		Replica:  make([]int, len(freq)),
		Load:     make([]float64, n),
	}
	for k := range freq {
		r := int(stats.Mix64(uint64(k)+c.Seed+0x9e3779b97f4a7c15) % uint64(n))
		asg.Replica[k] = r
		asg.Load[r] += freq[k]
	}
	asg.trim()
	return asg, nil
}

// trim drops trailing empty replicas and computes PMax. Empty replicas in
// the middle are kept: replica indices must stay stable for hashing.
func (a *Assignment) trim() {
	last := -1
	for r, l := range a.Load {
		if l > 0 {
			last = r
		}
	}
	a.Load = a.Load[:last+1]
	a.Replicas = last + 1
	total := 0.0
	max := 0.0
	for _, l := range a.Load {
		total += l
		if l > max {
			max = l
		}
	}
	if total > 0 {
		a.PMax = max / total
	}
}
