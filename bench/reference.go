package main

import (
	"fmt"
	"math"
	"math/rand"
	goruntime "runtime"
	"time"

	"spinstreams/internal/core"
	"spinstreams/internal/operators"
)

// digest identifies one sink tuple: its sequence number, key and a
// checksum of its payload.
type digest struct {
	seq, key, fields uint64
}

func digestOf(t operators.Tuple) digest {
	h := uint64(14695981039346656037)
	for _, f := range t.Fields {
		h = (h ^ math.Float64bits(f)) * 1099511628211
	}
	return digest{seq: t.Seq, key: t.Key, fields: h}
}

// reference is the single-goroutine run of the same job: the generator
// stream pushed depth-first through the bound operators' Process, no
// mailboxes, no stations. It is the source of expected outputs and the
// baseline runtime.efficiency divides by.
type reference struct {
	sink           []digest
	perKey         map[uint64][]digest
	nsPerTuple     float64
	allocsPerTuple float64
}

// refTuples source tuples cover the checked sink prefix plus the window
// fill and replica lag in front of it.
const (
	checkTuples = 100_000
	refTuples   = checkTuples + 60_000
)

func (d *deployment) reference() (*reference, error) {
	gen, err := operators.NewGenerator(d.genConfig())
	if err != nil {
		return nil, err
	}
	t := d.final
	ops, err := d.boundOps()
	if err != nil {
		return nil, err
	}
	ref := &reference{sink: make([]digest, 0, refTuples), perKey: make(map[uint64][]digest)}
	rng := rand.New(rand.NewSource(int64(d.seed)))
	// One emit closure per operator, built once, so the timed loop
	// allocates only what the operators allocate.
	emits := make([]operators.Emit, t.Len())
	var push func(id core.OpID, in operators.Tuple)
	push = func(id core.OpID, in operators.Tuple) {
		if ops[id] == nil {
			emits[id](in)
			return
		}
		ops[id].Process(in, emits[id])
	}
	for i := range emits {
		id := core.OpID(i)
		out := t.Out(id)
		switch len(out) {
		case 0:
			emits[i] = func(o operators.Tuple) { ref.sink = append(ref.sink, digestOf(o)) }
		case 1:
			emits[i] = func(o operators.Tuple) { push(out[0].To, o) }
		default:
			emits[i] = func(o operators.Tuple) {
				u, acc := rng.Float64(), 0.0
				for _, e := range out {
					if acc += e.Prob; u < acc {
						push(e.To, o)
						return
					}
				}
				push(out[len(out)-1].To, o)
			}
		}
	}
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	start := time.Now()
	src := t.Source()
	for i := 0; i < refTuples; i++ {
		emits[src](gen.Next())
	}
	wall := time.Since(start)
	goruntime.ReadMemStats(&after)
	ref.nsPerTuple = float64(wall.Nanoseconds()) / refTuples
	ref.allocsPerTuple = float64(after.Mallocs-before.Mallocs) / refTuples
	for _, g := range ref.sink {
		ref.perKey[g.key] = append(ref.perKey[g.key], g)
	}
	return ref, nil
}

// verify compares a window's first sink tuples against the reference
// and returns how many were compared and what differed.
func (r *reference) verify(kind check, sink []digest) (compared int, problem string) {
	switch kind {
	case checkPrefix:
		n := min(len(sink), len(r.sink))
		for i := 0; i < n; i++ {
			if sink[i] != r.sink[i] {
				return i, fmt.Sprintf("sink tuple %d differs from the reference", i)
			}
		}
		return n, ""
	case checkPerKey:
		at := make(map[uint64]int)
		for i, g := range sink {
			want := r.perKey[g.key]
			k := at[g.key]
			if k >= len(want) {
				continue // beyond what the reference covers
			}
			if g != want[k] {
				return i, fmt.Sprintf("key %d diverges from the reference at its output %d", g.key, k)
			}
			at[g.key] = k + 1
			compared++
		}
	}
	return compared, ""
}
