// Package opt is the pass-pipeline optimizer driver: it composes the
// paper's Algorithms 1-3 (steady-state analysis, bottleneck elimination,
// operator fusion) plus the latency model into an ordered sequence of
// passes over a shared immutable topology snapshot.
//
// The pipeline adds three capabilities the loose core entry points lack:
//
//   - Incremental solving. Every steady-state analysis is routed through a
//     SolverCache keyed by Topology.Fingerprint, so autofuse's
//     accept/reject loop (which re-solves the unchanged current topology
//     once per candidate) stops re-solving identical subproblems.
//     BenchmarkSolverCacheAutoFuse quantifies the win on randtopo graphs.
//
//   - Rewrite provenance. Every decision — Theorem 3.2 source
//     corrections, fission degrees with their utilization triggers,
//     rejected fission and fusion candidates with reasons, applied
//     fusions with before/after predicted throughput — lands in a
//     structured Trace exportable as JSON (see DESIGN.md for the schema)
//     or as a DOT overlay (internal/dot.WriteOverlay).
//
//   - Re-entrancy. Reoptimize consumes an obs.DriftReport from a live
//     run, substitutes the measured service times and selectivities into
//     the profile, re-runs the pipeline, and emits a DeltaPlan: which
//     operators change replication degree and which fusions should be
//     undone now that reality disagrees with the profile.
//
// Pass ordering is deterministic and pinned: analyze, fission, fusion (or
// a user-chosen fuse), then latency; New builds the first three, and a
// Pipeline literal selects any other subset. Fission runs first because it
// only chooses replication degrees — it never rewrites the graph — so the
// fusion pass sees the same topology the seed tool's AutoFuse saw and the
// pipeline reproduces the classic entry points' decisions exactly
// (TestPipelineEquivalence). Cyclic topologies are analyzed with the
// fixed-point solver; the restructuring passes skip them and record why.
package opt
