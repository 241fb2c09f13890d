package keypart

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGreedyEvenKeys(t *testing.T) {
	freq := make([]float64, 12)
	for i := range freq {
		freq[i] = 1.0 / 12
	}
	asg, err := Greedy{}.Partition(freq, 3)
	if err != nil {
		t.Fatal(err)
	}
	if asg.Replicas != 3 {
		t.Fatalf("Replicas = %d, want 3", asg.Replicas)
	}
	if math.Abs(asg.PMax-1.0/3) > 1e-9 {
		t.Errorf("PMax = %v, want 1/3", asg.PMax)
	}
}

func TestGreedyPaperSkewExample(t *testing.T) {
	// Paper Section 3.2: nopt = 3 but one key holds 50% of the items.
	// The partitioner must fall back to 2 replicas with pmax = 0.5.
	asg, err := Greedy{}.Partition([]float64{0.5, 0.25, 0.25}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if asg.Replicas != 2 {
		t.Errorf("Replicas = %d, want 2", asg.Replicas)
	}
	if math.Abs(asg.PMax-0.5) > 1e-12 {
		t.Errorf("PMax = %v, want 0.5", asg.PMax)
	}
}

func TestGreedyFewerKeysThanReplicas(t *testing.T) {
	asg, err := Greedy{}.Partition([]float64{0.6, 0.4}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if asg.Replicas > 2 {
		t.Errorf("Replicas = %d, want <= 2", asg.Replicas)
	}
	if math.Abs(asg.PMax-0.6) > 1e-12 {
		t.Errorf("PMax = %v, want 0.6", asg.PMax)
	}
}

func TestGreedySingleReplica(t *testing.T) {
	asg, err := Greedy{}.Partition([]float64{0.3, 0.7}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if asg.Replicas != 1 || math.Abs(asg.PMax-1) > 1e-12 {
		t.Errorf("got %+v, want 1 replica with pmax 1", asg)
	}
}

func TestPartitionErrors(t *testing.T) {
	if _, err := (Greedy{}).Partition(nil, 2); err == nil {
		t.Error("empty distribution accepted")
	}
	if _, err := (Greedy{}).Partition([]float64{0.5, -0.5}, 2); err == nil {
		t.Error("negative frequency accepted")
	}
	if _, err := (Greedy{}).Partition([]float64{1}, 0); err == nil {
		t.Error("zero replicas accepted")
	}
	if _, err := (Greedy{}).Partition([]float64{0.5, math.NaN(), 0.5}, 2); err == nil {
		t.Error("NaN frequency accepted")
	}
	if _, err := (ConsistentHash{}).Partition(nil, 2); err == nil {
		t.Error("consistent hash: empty distribution accepted")
	}
}

func TestConsistentHashCoversAllKeys(t *testing.T) {
	freq := make([]float64, 100)
	for i := range freq {
		freq[i] = 0.01
	}
	asg, err := ConsistentHash{Seed: 42}.Partition(freq, 8)
	if err != nil {
		t.Fatal(err)
	}
	if asg.Replicas < 2 || asg.Replicas > 8 {
		t.Errorf("Replicas = %d, want in [2, 8]", asg.Replicas)
	}
	for k, r := range asg.Replica {
		if r < 0 || r >= len(asg.Load) {
			t.Fatalf("key %d assigned to out-of-range replica %d", k, r)
		}
	}
}

func TestGreedyBeatsHashingOnSkew(t *testing.T) {
	// ZipF-like skewed frequencies: greedy should achieve a pmax no worse
	// than hashing (the ablation claim).
	rng := rand.New(rand.NewSource(5))
	freq := make([]float64, 50)
	sum := 0.0
	for i := range freq {
		freq[i] = 1 / math.Pow(float64(i+1), 1.3)
		sum += freq[i]
	}
	for i := range freq {
		freq[i] /= sum
	}
	g, err := Greedy{}.Partition(freq, 6)
	if err != nil {
		t.Fatal(err)
	}
	h, err := ConsistentHash{Seed: uint64(rng.Int63())}.Partition(freq, 6)
	if err != nil {
		t.Fatal(err)
	}
	if g.PMax > h.PMax+1e-12 {
		t.Errorf("greedy pmax %v worse than hashing %v", g.PMax, h.PMax)
	}
}

// Properties checked for both partitioners on random distributions:
// loads are consistent with assignments, every key is assigned, pmax is
// max(load)/sum(load), and pmax >= 1/replicas.
func TestPartitionProperties(t *testing.T) {
	partitioners := map[string]Partitioner{
		"greedy": Greedy{},
		"hash":   ConsistentHash{Seed: 7},
	}
	for name, p := range partitioners {
		t.Run(name, func(t *testing.T) {
			f := func(seed int64, nRaw uint8) bool {
				rng := rand.New(rand.NewSource(seed))
				nKeys := 1 + rng.Intn(60)
				freq := make([]float64, nKeys)
				total := 0.0
				for i := range freq {
					freq[i] = rng.Float64() + 0.01
					total += freq[i]
				}
				for i := range freq {
					freq[i] /= total
				}
				n := 1 + int(nRaw)%12
				asg, err := p.Partition(freq, n)
				if err != nil {
					return false
				}
				loads := make([]float64, len(asg.Load))
				for k, r := range asg.Replica {
					if r < 0 || r >= len(loads) {
						return false
					}
					loads[r] += freq[k]
				}
				maxLoad, sumLoad := 0.0, 0.0
				for i, l := range loads {
					if math.Abs(l-asg.Load[i]) > 1e-9 {
						return false
					}
					sumLoad += l
					if l > maxLoad {
						maxLoad = l
					}
				}
				if math.Abs(sumLoad-1) > 1e-9 {
					return false
				}
				if math.Abs(asg.PMax-maxLoad) > 1e-9 {
					return false
				}
				return asg.PMax >= 1/float64(asg.Replicas)-1e-9 && asg.Replicas <= n
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
				t.Fatal(err)
			}
		})
	}
}
