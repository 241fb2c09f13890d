package opt

import (
	"sync"

	"spinstreams/internal/core"
)

// Snapshot is an immutable view of a topology at one point in the
// pipeline. The constructor deep-copies the input, so later mutations of
// the original cannot invalidate it. Passes receive a snapshot and return
// either the same snapshot (analysis-only passes, fission — which picks
// degrees but never rewrites the graph) or a new one built from a
// restructured topology (fusion).
//
// A snapshot also carries its topology's steady-state analysis once a
// step has solved it, so the next pass takes it over instead of solving
// the same graph again. The fingerprint is hashed on first use: only the
// trace prints it.
//
// Immutability contract: Topology() exposes the underlying graph so
// passes can run the core algorithms on it, but callers must not modify
// it — use Clone() to obtain a private mutable copy. The contract is
// documented rather than enforced because core's analyses need the
// concrete *core.Topology.
type Snapshot struct {
	topo *core.Topology
	// analysis is topo's steady-state analysis with every degree one;
	// nil until a step solved it.
	analysis *core.Analysis
	fp       func() uint64
}

// NewSnapshot deep-copies t into a new snapshot.
func NewSnapshot(t *core.Topology) *Snapshot {
	return newOwnedSnapshot(t.Clone(), nil)
}

// newOwnedSnapshot wraps a topology the caller guarantees nobody else
// mutates (e.g. the fresh output of core.Fuse), skipping the defensive
// copy; a, when non-nil, is its steady-state analysis.
func newOwnedSnapshot(t *core.Topology, a *core.Analysis) *Snapshot {
	return &Snapshot{topo: t, analysis: a, fp: sync.OnceValue(t.Fingerprint)}
}

// Topology returns the snapshot's graph. Treat it as read-only.
func (s *Snapshot) Topology() *core.Topology { return s.topo }

// Clone returns a private mutable copy of the snapshot's topology.
func (s *Snapshot) Clone() *core.Topology { return s.topo.Clone() }

// Fingerprint is the 64-bit hash of the complete topology profile; equal
// fingerprints mean identical analyses (see core.Topology.Fingerprint).
func (s *Snapshot) Fingerprint() uint64 { return s.fp() }

// Len returns the operator count.
func (s *Snapshot) Len() int { return s.topo.Len() }
