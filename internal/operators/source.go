package operators

import (
	"fmt"

	"spinstreams/internal/stats"
)

// Generator produces the synthetic input stream the sources of the testbed
// emit: tuples with uniform [0,1) numeric fields and keys drawn from a ZipF
// distribution over a fixed key domain (the paper generates key frequencies
// from random ZipF laws). It is deterministic for a given seed.
type Generator struct {
	rng       *stats.RNG
	keys      *stats.Zipf
	numFields int
	seq       uint64
	// arena is the unconsumed tail of a block allocation the payload
	// slices are carved from: one make per block instead of one per
	// tuple. Slices never overlap (each tuple owns its full-capacity
	// sub-slice), so in-place field mutation downstream stays safe; the
	// block is garbage once every tuple carved from it is.
	arena []float64
}

// arenaTuples is how many tuples' worth of payload one arena block holds.
const arenaTuples = 256

// GeneratorConfig configures a Generator.
type GeneratorConfig struct {
	// Seed makes the stream deterministic.
	Seed uint64
	// NumKeys is the key-domain size (default 64).
	NumKeys int
	// KeySkew is the ZipF exponent of the key distribution (default 1.1).
	KeySkew float64
	// NumFields is the number of payload attributes (default 3).
	NumFields int
}

// NewGenerator builds a generator.
func NewGenerator(cfg GeneratorConfig) (*Generator, error) {
	if cfg.NumKeys <= 0 {
		cfg.NumKeys = 64
	}
	if cfg.KeySkew <= 0 {
		cfg.KeySkew = 1.1
	}
	if cfg.NumFields <= 0 {
		cfg.NumFields = 3
	}
	rng := stats.NewRNG(cfg.Seed)
	keys, err := stats.NewZipf(rng.Fork(), cfg.NumKeys, cfg.KeySkew)
	if err != nil {
		return nil, fmt.Errorf("generator: %w", err)
	}
	return &Generator{rng: rng, keys: keys, numFields: cfg.NumFields}, nil
}

// Next returns the next synthetic tuple.
func (g *Generator) Next() Tuple {
	var t Tuple
	g.NextInto(&t)
	return t
}

// NextInto writes the next synthetic tuple in place — the form the
// source loop uses to fill its reused staging window. Every Tuple field
// is assigned, so stale contents never leak. The
// stream is identical to repeated Next calls (same RNG draw order).
func (g *Generator) NextInto(t *Tuple) {
	if len(g.arena) < g.numFields {
		g.arena = make([]float64, g.numFields*arenaTuples)
	}
	fields := g.arena[:g.numFields:g.numFields]
	g.arena = g.arena[g.numFields:]
	for i := range fields {
		fields[i] = g.rng.Float64()
	}
	g.seq++
	t.Key = uint64(g.keys.Sample())
	t.Seq = g.seq
	t.Port = 0
	t.Fields = fields
}

// KeyFrequencies returns the probability mass function of the generated
// keys, the input the optimizer's key partitioning consumes.
func (g *Generator) KeyFrequencies() []float64 {
	return g.keys.Probabilities()
}
