// Package stats provides the deterministic random-number and statistics
// utilities the testbed and experiments are built on: a seedable splitmix64
// PRNG, a ZipF sampler (the paper generates edge probabilities and key
// frequencies from power laws), and descriptive statistics for reporting.
package stats

import (
	"errors"
	"math"
	"sort"
)

// RNG is a small, fast, deterministic pseudo-random generator based on
// splitmix64. It is not safe for concurrent use; give each goroutine its
// own instance (Fork derives independent streams).
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Mix64 is the splitmix64 finalizer: a bijective mix of z whose every
// output bit depends on every input bit. The RNG, stable hashes and the
// runtime's tuple routing all derive their bits from it.
func Mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	return Mix64(r.state)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// IntBetween returns a uniform value in [lo, hi] inclusive.
func (r *RNG) IntBetween(lo, hi int) int {
	if hi < lo {
		lo, hi = hi, lo
	}
	return lo + r.Intn(hi-lo+1)
}

// FloatBetween returns a uniform value in [lo, hi).
func (r *RNG) FloatBetween(lo, hi float64) float64 {
	return lo + r.Float64()*(hi-lo)
}

// Exp returns an exponentially distributed value with the given mean.
func (r *RNG) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Fork derives an independent generator; useful to give each operator or
// actor its own deterministic stream.
func (r *RNG) Fork() *RNG {
	return NewRNG(r.Uint64())
}

// Zipf samples integers in [0, n) with P(k) proportional to 1/(k+1)^s,
// matching the paper's power-law generation of edge probabilities and key
// frequencies (scaling exponent s > 1 gives skewed distributions).
type Zipf struct {
	cdf []float64
	rng *RNG
}

// NewZipf builds a sampler over n values with exponent s.
func NewZipf(rng *RNG, n int, s float64) (*Zipf, error) {
	if n <= 0 {
		return nil, errors.New("stats: zipf needs n > 0")
	}
	if s <= 0 {
		return nil, errors.New("stats: zipf needs s > 0")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return &Zipf{cdf: cdf, rng: rng}, nil
}

// Sample draws one value in [0, n).
func (z *Zipf) Sample() int {
	u := z.rng.Float64()
	// Small key domains (the common testbed case) sit on the dataplane's
	// per-tuple hot path: a branch-per-entry scan beats the search
	// closure's call overhead there. Both forms return the smallest i
	// with cdf[i] >= u, so the sampled stream is identical.
	if len(z.cdf) <= 32 {
		for i, c := range z.cdf {
			if c >= u {
				return i
			}
		}
		return len(z.cdf) - 1
	}
	return sort.SearchFloat64s(z.cdf, u)
}

// Probabilities returns the probability mass function the sampler uses.
func (z *Zipf) Probabilities() []float64 {
	out := make([]float64, len(z.cdf))
	prev := 0.0
	for i, c := range z.cdf {
		out[i] = c - prev
		prev = c
	}
	return out
}

// ZipfWeights returns n normalized ZipF(s) probabilities without building a
// sampler; convenient for generating edge probability distributions.
func ZipfWeights(n int, s float64) []float64 {
	w := make([]float64, n)
	sum := 0.0
	for k := range w {
		w[k] = 1 / math.Pow(float64(k+1), s)
		sum += w[k]
	}
	for k := range w {
		w[k] /= sum
	}
	return w
}

// Summary holds descriptive statistics of a sample.
type Summary struct {
	N                  int
	Mean, StdDev       float64
	Min, Max           float64
	P50, P90, P95, P99 float64
}

// Summarize computes descriptive statistics. An empty sample yields the
// zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	varSum := 0.0
	for _, x := range xs {
		d := x - s.Mean
		varSum += d * d
	}
	if len(xs) > 1 {
		s.StdDev = math.Sqrt(varSum / float64(len(xs)-1))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.P50 = percentile(sorted, 0.50)
	s.P90 = percentile(sorted, 0.90)
	s.P95 = percentile(sorted, 0.95)
	s.P99 = percentile(sorted, 0.99)
	return s
}

// percentile interpolates the q-quantile of a sorted sample.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// RelErr returns |got-want| / |want|; 0 when want is 0 and got is 0, and
// +Inf when want is 0 but got is not.
func RelErr(got, want float64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(got-want) / math.Abs(want)
}
