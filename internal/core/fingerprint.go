package core

import "math"

// FNV-1a 64-bit parameters (the hash/fnv New64a hash, fed byte by byte).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Fingerprint reduces the topology to a 64-bit FNV-1a hash of its complete
// profile: operator names, kinds, exact service-time and selectivity bits,
// key-frequency distributions, implementation references, fused-member
// lists, and every edge with its exact routing probability. Numbers are
// hashed as 8 little-endian bytes, strings as their length then their
// bytes. Two topologies with equal fingerprints produce identical analyses
// (modulo hash collisions). The optimizer's rewrite trace records the
// input and final fingerprints, and trace replay (internal/lint) checks
// them.
func (t *Topology) Fingerprint() uint64 {
	h := uint64(fnvOffset64)
	wU64 := func(v uint64) {
		for i := 0; i < 8; i++ {
			h = (h ^ v&0xff) * fnvPrime64
			v >>= 8
		}
	}
	wF64 := func(v float64) { wU64(math.Float64bits(v)) }
	wStr := func(s string) {
		wU64(uint64(len(s)))
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * fnvPrime64
		}
	}
	wU64(uint64(t.Len()))
	for i := range t.ops {
		op := &t.ops[i]
		wStr(op.Name)
		wU64(uint64(op.Kind))
		wF64(op.ServiceTime)
		wF64(op.InputSelectivity)
		wF64(op.OutputSelectivity)
		wStr(op.Impl)
		if op.Keys != nil {
			wU64(uint64(len(op.Keys.Freq)))
			for _, f := range op.Keys.Freq {
				wF64(f)
			}
		} else {
			wU64(0)
		}
		wU64(uint64(len(op.Fused)))
		for _, name := range op.Fused {
			wStr(name)
		}
		wU64(uint64(len(t.out[i])))
		for _, e := range t.out[i] {
			wU64(uint64(e.To))
			wF64(e.Prob)
		}
	}
	return h
}
