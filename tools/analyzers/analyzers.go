// Package analyzers holds the project's custom static-analysis passes,
// run over the whole repository via `go vet -vettool=$(which ssvet)`.
// The passes encode runtime invariants the type system cannot:
//
//   - atomiccell: fields of sync/atomic types (the obs counter cells) may
//     only be touched through their methods or by address — copying or
//     plain-assigning one silently tears the counter;
//   - mailboxaccount: the results of mailbox Send/SendMany/Drain carry
//     the tuple-accounting outcome (Sent/Dropped/Closed, drained counts);
//     discarding them breaks the dataplane's capacity bookkeeping;
//   - ringalias: the slice windows Peek/Reserve hand out alias mailbox
//     buffers and die at the matching Consume/Publish — retaining or
//     escaping one reads a buffer the mailbox already reuses;
//   - epochfence: every mutation of the runtime's epoch tables (routing
//     plan, inboxes, keyed state) must be dominated by a pause-fence
//     acquire, and a station's inbox is never replaced;
//   - conservesum: every Totals conservation counter must be accumulated
//     somewhere, and Sum/String must cover the identity's legs exactly.
//
// The framework below is deliberately tiny — the standard go/analysis
// machinery lives in golang.org/x/tools, which this repository does not
// depend on. cmd/ssvet adapts these passes to the `go vet -vettool`
// unitchecker protocol.
package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Pass is one analyzer's view of a type-checked package.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Diagnostic is one finding, positioned in the package's sources.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Analyzer is one named pass.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) []Diagnostic
}

// All lists every pass, in the order ssvet runs them.
var All = []*Analyzer{AtomicCell, MailboxAccount, RingAlias, EpochFence, ConserveSum}
