// Package lint is "go vet for stream topologies": a static verification
// layer that diagnoses malformed or unoptimizable topologies before they
// reach the solver, the optimizer pipeline or the runtime. Every finding
// carries a stable diagnostic code (SS1xxx structural/cost-model, SS2xxx
// provenance), a severity, and — when the input was an XML document — the
// line and column of the offending element.
//
// Three analyzer families run, mirroring the tool's trust boundaries:
//
//   - structural checks over the graph shape: probability mass, single
//     rooted source, reachability, selectivity and service-time sanity,
//     key-frequency mass, replica/kind consistency (arXiv:0807.1720
//     shows how much of this is decidable up front);
//   - cost-model checks that dry-run the core.Solver: non-convergent
//     feedback traffic, and saturation with no fission remedy (the
//     stateful-operator safety conditions cataloged in arXiv:1901.09716);
//   - provenance checks that replay a spinstreams/rewrite-trace/v1 JSON
//     against the input topology and verify every recorded rewrite still
//     applies and the final fingerprint matches.
//
// Reports render as plain text, JSON, or SARIF 2.1.0 for CI annotation.
package lint

import (
	"fmt"
	"strings"

	"spinstreams/internal/core"
	"spinstreams/internal/xmlio"
)

// Severity grades a diagnostic.
type Severity int

const (
	// SeverityInfo is advisory.
	SeverityInfo Severity = iota + 1
	// SeverityWarning marks configurations that work but will disappoint
	// (budget overruns, saturation with no remedy).
	SeverityWarning
	// SeverityError marks inputs the optimizer must refuse.
	SeverityError
)

// String returns the lower-case severity name.
func (s Severity) String() string {
	switch s {
	case SeverityInfo:
		return "info"
	case SeverityWarning:
		return "warning"
	case SeverityError:
		return "error"
	default:
		return fmt.Sprintf("Severity(%d)", int(s))
	}
}

// MarshalJSON encodes the severity as its name.
func (s Severity) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// UnmarshalJSON decodes a severity name.
func (s *Severity) UnmarshalJSON(data []byte) error {
	switch strings.Trim(string(data), `"`) {
	case "info":
		*s = SeverityInfo
	case "warning":
		*s = SeverityWarning
	case "error":
		*s = SeverityError
	default:
		return fmt.Errorf("lint: unknown severity %s", data)
	}
	return nil
}

// Diagnostic codes. The code set is append-only: codes are stable
// identifiers that corpus goldens, SARIF rules and CI annotations key on.
const (
	// CodeMalformed (SS1000) covers graph-shape violations: duplicate or
	// unknown operators, missing/multiple sources, kind inconsistent with
	// position, self-loops, cycles without -allow-cycles.
	CodeMalformed = "SS1000"
	// CodeProbabilityMass (SS1001): an edge probability outside (0, 1] or
	// a vertex whose output probabilities do not sum to 1.
	CodeProbabilityMass = "SS1001"
	// CodeUnreachable (SS1002): an operator not reachable from the source.
	CodeUnreachable = "SS1002"
	// CodeFusionCandidate (SS1003): a fusion candidate violating the
	// Section 3.3 preconditions (single front-end, acyclic contraction).
	CodeFusionCandidate = "SS1003"
	// CodeStatefulFission (SS1004): a replication degree > 1 requested
	// for an operator whose kind cannot be replicated.
	CodeStatefulFission = "SS1004"
	// CodeSelectivityRange (SS1005): NaN/Inf/negative selectivity.
	CodeSelectivityRange = "SS1005"
	// CodeReplicaBudget (SS1006): requested replicas exceed the budget or
	// the key-domain size of a partitioned-stateful operator.
	CodeReplicaBudget = "SS1006"
	// CodeKeyMass (SS1007): key frequencies missing, non-positive, or not
	// summing to 1.
	CodeKeyMass = "SS1007"
	// CodeServiceTime (SS1008): NaN/Inf/non-positive service time.
	CodeServiceTime = "SS1008"
	// CodeSPSCDemoted (SS1009): an edge that would qualify for the
	// lock-free SPSC ring at replication degree 1, but whose deployed
	// degrees (as shaped by the replica budget) make it multi-producer,
	// demoting it to the MPSC path.
	CodeSPSCDemoted = "SS1009"
	// CodeNonConvergent (SS1101): the steady-state solver cannot converge
	// (feedback loop with gain-weighted cycle traffic >= 1).
	CodeNonConvergent = "SS1101"
	// CodeSaturatedNoRemedy (SS1102): a saturated operator that fission
	// cannot unblock (stateful/sink kind, or partitioned-stateful whose
	// most frequent key alone saturates a replica).
	CodeSaturatedNoRemedy = "SS1102"
	// CodeTraceReplay (SS2001): a rewrite trace that does not replay
	// cleanly against the input topology.
	CodeTraceReplay = "SS2001"
	// CodeDriftMismatch (SS2002): a drift report whose station set no
	// longer matches the deployed topology.
	CodeDriftMismatch = "SS2002"
	// CodeBlockingCycle (SS3001): the bounded-queue abstract interpreter
	// found a blocking cycle — a feedback loop whose stations wedge each
	// other through full mailboxes under BAS back-pressure, even though
	// the fluid solver converges.
	CodeBlockingCycle = "SS3001"
	// CodeBurstCapacity (SS3002): an SPSC ring whose capacity cannot
	// absorb the declared burst envelope before back-pressure reaches the
	// source.
	CodeBurstCapacity = "SS3002"
	// CodeTransportVerdict (SS3003): a trace-recorded SPSC transport
	// verdict that is not re-derivable from the fan-in sets of the plan
	// actually deployed.
	CodeTransportVerdict = "SS3003"
)

// Rule is the metadata of one diagnostic code.
type Rule struct {
	// Code is the stable identifier (SARIF ruleId).
	Code string `json:"code"`
	// Name is the short kebab-case rule name.
	Name string `json:"name"`
	// Severity is the default severity of the rule's diagnostics.
	Severity Severity `json:"severity"`
	// Summary is a one-line description.
	Summary string `json:"summary"`
	// Doc is the longer rule description rendered as the SARIF
	// fullDescription, explaining what the rule proves and how to fix a
	// finding.
	Doc string `json:"doc,omitempty"`
}

// Rules lists every diagnostic code, in code order. The table drives the
// SARIF rule metadata and the DESIGN.md documentation.
var Rules = []Rule{
	{CodeMalformed, "malformed-topology", SeverityError, "graph shape violates the rooted-flow-graph model (Section 3.1)",
		"The topology must be a rooted flow graph: exactly one source, no duplicate or unknown operators, operator kinds consistent with their position, no self-loops, and no cycles unless -allow-cycles is set."},
	{CodeProbabilityMass, "probability-mass", SeverityError, "routing probabilities outside (0, 1] or not summing to 1",
		"Each edge probability must lie in (0, 1] and the outgoing probabilities of every operator must sum to 1, so the routing matrix conserves tuple mass."},
	{CodeUnreachable, "unreachable-operator", SeverityError, "operator not reachable from the source",
		"Every operator must be reachable from the source along forward edges; unreachable operators would idle forever and usually indicate a mis-wired edge."},
	{CodeFusionCandidate, "cycle-in-fusion-candidate", SeverityError, "fusion candidate violates the Section 3.3 preconditions",
		"A fusion candidate must have a single front-end operator and its contraction must leave the surrounding graph acyclic (Section 3.3); otherwise fusing would create a scheduling cycle."},
	{CodeStatefulFission, "stateful-fission-unsafe", SeverityError, "replication requested for a non-replicable operator kind",
		"Replication degrees above 1 are only sound for stateless and partitioned-stateful operators; plain stateful operators and sinks cannot be fissioned without breaking state semantics."},
	{CodeSelectivityRange, "selectivity-range", SeverityError, "selectivity is NaN, infinite, or negative",
		"Operator selectivity scales downstream traffic in the cost model and must be a finite non-negative number."},
	{CodeReplicaBudget, "replica-budget-exceeded", SeverityWarning, "replication degrees exceed the budget or the key-domain size",
		"The requested replication degrees exceed the deployment's worker budget or the key-domain size of a partitioned-stateful operator; the deployment will be silently capped."},
	{CodeKeyMass, "key-frequency-mass", SeverityError, "key frequencies missing, non-positive, or not summing to 1",
		"Partitioned-stateful operators need a key-frequency distribution with positive entries summing to 1 so the balanced-partition analysis (Algorithm 2) is well-defined."},
	{CodeServiceTime, "service-time-range", SeverityError, "service time is NaN, infinite, or not positive",
		"Service times feed the queueing model as rates (1/T) and must be finite positive durations."},
	{CodeSPSCDemoted, "spsc-demoted-by-replication", SeverityInfo, "single-producer edge demoted to the MPSC path by the deployed replication",
		"This edge has a single producer at replication degree 1 and would bind to the lock-free SPSC ring, but the deployed replication degrees give it multiple producers, demoting it to the batched MPSC path."},
	{CodeNonConvergent, "solver-non-convergent", SeverityError, "steady-state analysis does not converge",
		"The gain-weighted traffic around a feedback loop is >= 1, so arrival rates diverge and no steady state exists; reduce the loop gain or selectivities."},
	{CodeSaturatedNoRemedy, "saturated-no-remedy", SeverityWarning, "saturated operator that fission cannot unblock",
		"An operator is saturated (utilization >= 1) and fission cannot help: it is stateful or a sink, or its most frequent key alone saturates one replica of a partitioned-stateful operator."},
	{CodeTraceReplay, "trace-replay-mismatch", SeverityError, "rewrite trace does not replay against the input topology",
		"The spinstreams/rewrite-trace/v1 passes no longer replay cleanly against this topology (fingerprint or structural mismatch); the trace was produced from a different input and must be regenerated."},
	{CodeDriftMismatch, "drift-station-mismatch", SeverityError, "drift report station set no longer matches the topology",
		"The drift report references stations that do not exist in the deployed topology, so re-optimization from it would mis-attribute measured rates."},
	{CodeBlockingCycle, "blocking-cycle", SeverityError, "bounded-queue interpretation finds a back-pressure deadlock cycle",
		"Abstract interpretation of the plan under bounded mailboxes (BAS blocking semantics) reaches a state where the stations of a feedback loop all wait on full downstream queues owned by the same loop. The fluid solver converges, but the deployment wedges: any saturated station inside a cycle eventually propagates blocking all the way around. Break the loop, speed up the saturated station, or enlarge -mailbox-size."},
	{CodeBurstCapacity, "spsc-burst-capacity", SeverityWarning, "SPSC ring capacity cannot absorb the declared burst envelope",
		"Under the declared burst envelope (-burst-factor for -burst-seconds), the excess arrival rate at this single-producer ring fills its capacity before the burst ends, so back-pressure reaches the producer mid-burst. Size the mailbox to at least excess-rate x burst-seconds or accept BAS throttling during bursts."},
	{CodeTransportVerdict, "stale-transport-verdict", SeverityError, "recorded SPSC transport verdict not re-derivable from the deployed plan",
		"The optimizer trace records an SPSC (single-producer) verdict for this station's inbox, but re-deriving the fan-in sets from the plan as actually deployed (replication degrees included) contradicts it. Binding a ring here would violate the single-producer proof; regenerate the trace against the deployed configuration."},
}

// RuleFor returns the metadata of code; unknown codes get an error-level
// placeholder so rendering never drops a diagnostic.
func RuleFor(code string) Rule {
	for _, r := range Rules {
		if r.Code == code {
			return r
		}
	}
	return Rule{Code: code, Name: "unknown", Severity: SeverityError, Summary: "unknown diagnostic code"}
}

// Diagnostic is one finding.
type Diagnostic struct {
	Code     string   `json:"code"`
	Severity Severity `json:"severity"`
	// Operator names the implicated operator, when one exists.
	Operator string `json:"operator,omitempty"`
	Message  string `json:"message"`
	// File/Line/Col locate the finding in the source document; Line is 0
	// when the input was an in-memory topology.
	File string `json:"file,omitempty"`
	Line int    `json:"line,omitempty"`
	Col  int    `json:"col,omitempty"`
}

// String renders the diagnostic in the grep-friendly one-line form the
// text output and the corpus goldens use.
func (d Diagnostic) String() string {
	var b strings.Builder
	if d.File != "" {
		b.WriteString(d.File)
		if d.Line > 0 {
			fmt.Fprintf(&b, ":%d:%d", d.Line, d.Col)
		}
		b.WriteString(": ")
	}
	fmt.Fprintf(&b, "%s %s: %s [%s]", d.Code, d.Severity, d.Message, RuleFor(d.Code).Name)
	return b.String()
}

// Report is the outcome of one lint run.
type Report struct {
	// File is the source document path, copied into every diagnostic.
	File string `json:"file,omitempty"`
	// Diagnostics are the findings, in deterministic document order.
	Diagnostics []Diagnostic `json:"diagnostics"`
}

func (r *Report) add(d Diagnostic) {
	if d.Severity == 0 {
		d.Severity = RuleFor(d.Code).Severity
	}
	if d.File == "" {
		d.File = r.File
	}
	r.Diagnostics = append(r.Diagnostics, d)
}

// addAt attaches a document position to the diagnostic.
func (r *Report) addAt(p xmlio.Pos, d Diagnostic) {
	d.Line, d.Col = p.Line, p.Col
	r.add(d)
}

// Counts returns the number of findings per severity.
func (r *Report) Counts() (errs, warns, infos int) {
	for _, d := range r.Diagnostics {
		switch d.Severity {
		case SeverityError:
			errs++
		case SeverityWarning:
			warns++
		default:
			infos++
		}
	}
	return
}

// HasErrors reports whether any finding is error-severity.
func (r *Report) HasErrors() bool {
	errs, _, _ := r.Counts()
	return errs > 0
}

// Err returns nil when the report carries no errors, and an *Error
// wrapping the error-severity diagnostics otherwise.
func (r *Report) Err() error {
	if !r.HasErrors() {
		return nil
	}
	e := &Error{}
	for _, d := range r.Diagnostics {
		if d.Severity == SeverityError {
			e.Diagnostics = append(e.Diagnostics, d)
		}
	}
	return e
}

// Error is a lint failure carrying its diagnostics, so callers (the
// optimizer pipeline, the CLI) can render codes rather than prose.
type Error struct {
	Diagnostics []Diagnostic
}

func (e *Error) Error() string {
	if len(e.Diagnostics) == 1 {
		return e.Diagnostics[0].String()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d diagnostics:", len(e.Diagnostics))
	for _, d := range e.Diagnostics {
		b.WriteString("\n\t")
		b.WriteString(d.String())
	}
	return b.String()
}

// Config tunes a lint run. The zero value checks structure and cost
// model only.
type Config struct {
	// File is the source document path recorded in diagnostics.
	File string
	// KeyLoader resolves keysFile references in document-level runs.
	KeyLoader xmlio.KeyLoader
	// FuseMembers, when non-empty, names a fusion candidate subgraph to
	// verify against the Section 3.3 preconditions (SS1003).
	FuseMembers []string
	// Replicas are the deployed/requested replication degrees,
	// index-aligned with the topology; nil means all ones. RunDocument
	// ignores it and vets the degrees the document declares.
	Replicas []int
	// ReplicaBudget bounds the total worker count (SS1006); 0 = unbounded.
	ReplicaBudget int
	// AllowCycles accepts feedback edges and analyzes them with the
	// fixed-point solver, mirroring opt.Options.AllowCycles.
	AllowCycles bool
	// MailboxCapacity is the bounded mailbox size the SS3xxx abstract
	// interpretation assumes; 0 means the runtime default (64).
	MailboxCapacity int
	// BurstFactor and BurstSeconds declare the burst envelope for the
	// SPSC capacity-feasibility check (SS3002): the source emits at
	// BurstFactor x its declared rate for BurstSeconds. SS3002 only runs
	// when BurstFactor > 1 and BurstSeconds > 0.
	BurstFactor  float64
	BurstSeconds float64
	// Trace, when non-nil, is a spinstreams/rewrite-trace/v1 JSON to
	// replay against the topology (SS2001).
	Trace []byte
	// Solver runs the cost-model dry-run; nil means core.DirectSolver.
	// The optimizer pipeline passes its memoizing cache here so the
	// pre-pass adds no extra solves.
	Solver core.Solver
}

func (cfg Config) solver() core.Solver {
	if cfg.Solver != nil {
		return cfg.Solver
	}
	return core.DirectSolver{}
}

// Run lints an in-memory topology: structural checks, replica/kind
// consistency, the cost-model dry-run, the optional fusion-candidate and
// trace-replay checks.
func Run(t *core.Topology, cfg Config) *Report {
	rep := &Report{File: cfg.File}
	structuralTopology(rep, t, cfg)
	if !rep.HasErrors() {
		extras(rep, t, nil, cfg)
	}
	return rep
}

// RunDocument lints a raw XML document as the deployment it declares:
// its replicas attributes are the degrees the replica, transport and plan
// checks see. Findings carry element positions. It does not require the
// document to survive xmlio.Read: document-level checks run first, and
// the deeper analyses only run when the document is structurally sound
// enough to build.
func RunDocument(doc *xmlio.Document, pos *xmlio.Positions, cfg Config) *Report {
	rep := &Report{File: cfg.File}
	structuralDocument(rep, doc, pos, cfg)
	if rep.HasErrors() {
		return rep
	}
	cfg.Replicas = make([]int, len(doc.Operators))
	for i, od := range doc.Operators {
		cfg.Replicas[i] = max(od.Replicas, 1)
	}
	t, err := xmlio.FromDocument(doc, cfg.KeyLoader)
	if err != nil {
		// The document checks above should subsume build failures; anything
		// left is a malformed-topology finding rather than a crash.
		rep.add(Diagnostic{Code: CodeMalformed, Message: err.Error()})
		return rep
	}
	extras(rep, t, pos, cfg)
	return rep
}

// extras runs the analyses shared by Run and RunDocument once a buildable
// topology exists: replica consistency, fusion-candidate validation, the
// cost-model dry-run, and trace replay. pos, when non-nil, positions the
// per-operator replica findings.
func extras(rep *Report, t *core.Topology, pos *xmlio.Positions, cfg Config) {
	checkReplicas(rep, t, pos, cfg)
	checkFusionCandidate(rep, t, cfg)
	checkTransports(rep, t, cfg)
	costModel(rep, t, cfg)
	planChecks(rep, t, cfg)
	if cfg.Trace != nil {
		replayTrace(rep, t, cfg)
		checkTransportVerdicts(rep, t, cfg)
	}
}
