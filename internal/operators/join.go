package operators

import (
	"spinstreams/internal/core"
	"spinstreams/internal/window"
)

// bandJoin joins two input streams on a band predicate |a - b| <= band over
// count windows: each arriving tuple probes the opposite side's window and
// emits one result per match. Tuples are assigned to a side by their input
// Port (operators wired with two or more input edges receive distinct
// ports; with a single input the tuple key's parity decides, keeping the
// operator usable anywhere in a random topology).
//
// The two windows form monolithic state: the operator is stateful and
// cannot be replicated.
type bandJoin struct {
	band        float64
	left, right *window.Count[float64]
	matchRate   float64
}

func newBandJoin(spec Spec) (Operator, error) {
	length, _ := windowOf(spec)
	band := spec.Param
	if band <= 0 {
		band = 0.05
	}
	// Expected matches per probe against a window of uniform [0,1)
	// values: about 2*band*length; profiled operators override this.
	matchRate := 2 * band * float64(length)
	return &bandJoin{
		band:      band,
		left:      window.MustCount[float64](length, 1),
		right:     window.MustCount[float64](length, 1),
		matchRate: matchRate,
	}, nil
}

func (j *bandJoin) Name() string { return "bandjoin" }

func (j *bandJoin) Meta() Meta {
	return Meta{Kind: core.KindStateful, OutputSelectivity: j.matchRate}
}

func (j *bandJoin) Clone() Operator {
	return &bandJoin{
		band:      j.band,
		left:      window.MustCount[float64](j.left.Length(), 1),
		right:     window.MustCount[float64](j.right.Length(), 1),
		matchRate: j.matchRate,
	}
}

func (j *bandJoin) Process(in Tuple, emit Emit) {
	v := in.Field(0)
	side := in.Port
	if side == 0 && in.Key%2 == 1 {
		side = 1
	}
	mine, other := j.left, j.right
	if side != 0 {
		mine, other = j.right, j.left
	}
	mine.Add(v)
	older, newer := other.Segments()
	for _, seg := range [2][]float64{older, newer} {
		for _, w := range seg {
			d := v - w
			if d < 0 {
				d = -d
			}
			if d <= j.band {
				out := in
				out.Fields = []float64{v, w, d}
				emit(out)
			}
		}
	}
}

// dedup suppresses tuples whose key was already seen within the last
// `WindowLen` source tuples (Seq distance); the horizon counts the
// stream's positions, not the instance's arrivals, so a key's output does
// not depend on which other keys share its replica, and the per-key state
// makes it partitioned-stateful. Its output selectivity is the expected
// novelty rate (Param, default 0.5).
type dedup struct {
	horizon          int
	numKeys          int
	noveltyRate      float64
	keyedMap[uint64] // key -> Seq of its last tuple
}

func newDedup(spec Spec) (Operator, error) {
	horizon := spec.WindowLen
	if horizon <= 0 {
		horizon = 1000
	}
	numKeys := spec.NumKeys
	if numKeys <= 0 {
		numKeys = 64
	}
	rate := spec.Param
	if rate <= 0 || rate > 1 {
		rate = 0.5
	}
	return &dedup{
		horizon:     horizon,
		numKeys:     numKeys,
		noveltyRate: rate,
		keyedMap:    make(keyedMap[uint64]),
	}, nil
}

func (d *dedup) Name() string { return "dedup" }

func (d *dedup) Meta() Meta {
	return Meta{
		Kind:              core.KindPartitionedStateful,
		OutputSelectivity: d.noveltyRate,
		NumKeys:           d.numKeys,
	}
}

func (d *dedup) Clone() Operator {
	c := *d
	c.keyedMap = make(keyedMap[uint64])
	return &c
}

func (d *dedup) Process(in Tuple, emit Emit) {
	last, seen := d.keyedMap[in.Key]
	d.keyedMap[in.Key] = in.Seq
	if seen && in.Seq-last <= uint64(d.horizon) {
		return
	}
	emit(in)
}
