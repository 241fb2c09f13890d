package analyzers

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// The tests typecheck synthetic snippets against stub packages registered
// under the real import paths ("sync/atomic", the mailbox package): the
// analyzers key only on package paths and method names, so minimal
// non-generic stubs exercise the same detection logic without depending
// on export data for the real packages.

const atomicStub = `package atomic
type Uint64 struct{ v uint64 }
func (u *Uint64) Add(d uint64) uint64 { u.v += d; return u.v }
func (u *Uint64) Load() uint64        { return u.v }
func (u *Uint64) Store(x uint64)      { u.v = x }
type Bool struct{ v bool }
func (b *Bool) Load() bool   { return b.v }
func (b *Bool) Store(x bool) { b.v = x }
`

const mailboxStub = `package mailbox
type SendResult int
type Sender struct{}
func (s *Sender) Send(v int) SendResult                { return 0 }
func (s *Sender) SendMany(vs []int) (int, int, bool)   { return 0, 0, false }
type Mailbox struct{}
func (m *Mailbox) Drain() int { return 0 }
func (m *Mailbox) Peek(done chan struct{}) ([]int, bool)    { return nil, false }
func (m *Mailbox) Consume(n int)                            {}
func (m *Mailbox) Reserve(n int, done chan struct{}) []int  { return nil }
func (m *Mailbox) Publish(n int)                            {}
`

// mapImporter resolves imports from pre-typechecked stub packages.
type mapImporter map[string]*types.Package

func (m mapImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := m[path]; ok {
		return pkg, nil
	}
	return importer.Default().Import(path)
}

func checkStub(t *testing.T, fset *token.FileSet, path, src string) *types.Package {
	t.Helper()
	f, err := parser.ParseFile(fset, path+".go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := (&types.Config{Importer: mapImporter{}}).Check(path, fset, []*ast.File{f}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

// analyze typechecks src against the stubs and runs a over it.
func analyze(t *testing.T, a *Analyzer, src string) []Diagnostic {
	t.Helper()
	return analyzeAt(t, a, "p", src)
}

// analyzeAt typechecks src under an explicit package path — the
// epochfence pass keys on the runtime package's import path.
func analyzeAt(t *testing.T, a *Analyzer, path, src string) []Diagnostic {
	t.Helper()
	fset := token.NewFileSet()
	imp := mapImporter{
		"sync/atomic":  checkStub(t, fset, "sync/atomic", atomicStub),
		mailboxPkgPath: checkStub(t, fset, mailboxPkgPath, mailboxStub),
	}
	f, err := parser.ParseFile(fset, "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	pkg, err := (&types.Config{Importer: imp}).Check(path, fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	return a.Run(&Pass{Fset: fset, Files: []*ast.File{f}, Pkg: pkg, Info: info})
}

func lines(t *testing.T, fset *token.FileSet, ds []Diagnostic) []int {
	t.Helper()
	out := make([]int, len(ds))
	for i, d := range ds {
		out[i] = fset.Position(d.Pos).Line
	}
	return out
}

func TestAtomicCellAllowsMethodAndAddress(t *testing.T) {
	ds := analyze(t, AtomicCell, `package p
import "sync/atomic"
type Cell struct {
	Consumed atomic.Uint64
	Degraded atomic.Bool
}
func ok(c *Cell) uint64 {
	c.Consumed.Add(1)
	c.Degraded.Store(true)
	p := &c.Consumed
	return p.Load()
}
`)
	if len(ds) != 0 {
		t.Fatalf("clean code flagged: %v", ds)
	}
}

func TestAtomicCellFlagsCopies(t *testing.T) {
	src := `package p
import "sync/atomic"
type Cell struct {
	Consumed atomic.Uint64
}
func bad(c, d *Cell) {
	x := c.Consumed
	_ = x
	c.Consumed = d.Consumed
}
`
	ds := analyze(t, AtomicCell, src)
	// Line 7 copies the cell; line 9 assigns it (both sides flagged).
	if len(ds) != 3 {
		t.Fatalf("want 3 diagnostics, got %d: %v", len(ds), ds)
	}
	for _, d := range ds {
		if d.Message == "" {
			t.Error("empty message")
		}
	}
}

func TestMailboxAccountAllowsCheckedResults(t *testing.T) {
	ds := analyze(t, MailboxAccount, fmt.Sprintf(`package p
import mb %q
func ok(s *mb.Sender, m *mb.Mailbox) int {
	if s.Send(1) != 0 {
		return 0
	}
	sent, dropped, _ := s.SendMany(nil)
	return sent + dropped + m.Drain()
}
`, mailboxPkgPath))
	if len(ds) != 0 {
		t.Fatalf("clean code flagged: %v", ds)
	}
}

func TestMailboxAccountFlagsDiscards(t *testing.T) {
	ds := analyze(t, MailboxAccount, fmt.Sprintf(`package p
import mb %q
func bad(s *mb.Sender, m *mb.Mailbox) {
	s.Send(1)
	_ = s.Send(2)
	_, _, _ = s.SendMany(nil)
	m.Drain()
	go s.Send(3)
	defer m.Drain()
}
`, mailboxPkgPath))
	if len(ds) != 6 {
		t.Fatalf("want 6 diagnostics, got %d: %v", len(ds), ds)
	}
}

func TestRingAliasAllowsProtocolUse(t *testing.T) {
	ds := analyze(t, RingAlias, fmt.Sprintf(`package p
import mb %q
func okPeek(m *mb.Mailbox, done chan struct{}) int {
	win, okp := m.Peek(done)
	if !okp {
		return 0
	}
	n := 0
	for i := range win {
		n += win[i]
	}
	m.Consume(len(win))
	return n + len(win)
}
func okReserve(m *mb.Mailbox, done chan struct{}) {
	win := m.Reserve(4, done)
	for i := range win {
		win[i] = i
	}
	m.Publish(len(win))
}
func okRebind(m *mb.Mailbox, done chan struct{}) {
	for {
		win, okp := m.Peek(done)
		if !okp {
			return
		}
		_ = win[0]
		m.Consume(len(win))
	}
}
func okMixed(m *mb.Mailbox, done chan struct{}) {
	win, _ := m.Peek(done)
	m.Publish(3)
	_ = win[0]
	m.Consume(len(win))
}
`, mailboxPkgPath))
	if len(ds) != 0 {
		t.Fatalf("protocol-respecting code flagged: %v", ds)
	}
}

func TestRingAliasFlagsUseAfterRelease(t *testing.T) {
	ds := analyze(t, RingAlias, fmt.Sprintf(`package p
import mb %q
func bad(m *mb.Mailbox, done chan struct{}) int {
	win, _ := m.Peek(done)
	m.Consume(len(win))
	return win[0]
}
func badBranch(m *mb.Mailbox, done chan struct{}, sink bool) int {
	for {
		win, _ := m.Peek(done)
		if sink {
			m.Consume(len(win))
			continue
		}
		_ = win[0]
		m.Consume(len(win))
		return 0
	}
}
`, mailboxPkgPath))
	// The order is lexical: the early release in badBranch poisons the
	// read below it even though that path continues — one release point
	// per window is the shape the pass accepts.
	if len(ds) != 2 {
		t.Fatalf("want 2 diagnostics, got %d: %v", len(ds), ds)
	}
}

func TestRingAliasFlagsEscapes(t *testing.T) {
	ds := analyze(t, RingAlias, fmt.Sprintf(`package p
import mb %q
var g []int
func escapes(m *mb.Mailbox, done chan struct{}) []int {
	win, _ := m.Peek(done)
	g = win
	ch := make(chan []int, 1)
	ch <- win[1:]
	s := struct{ w []int }{w: win}
	_ = s
	go func() { _ = win }()
	return win
}
`, mailboxPkgPath))
	if len(ds) != 5 {
		t.Fatalf("want 5 escape diagnostics, got %d: %v", len(ds), ds)
	}
}

// epochStub declares local stand-ins for the runtime's fence/tables
// machinery; epochfence keys on type names within the runtime package
// path, so a snippet typechecked at that path exercises the real logic.
const epochStub = `
type fence struct{}
func (f *fence) pause(id int, drain bool) (int, error) { return 0, nil }
type planT struct{ Stations []int }
type cell struct{}
func (c *cell) Store(t *tables) {}
type tables struct {
	epoch     uint64
	p         *planT
	mailboxes []int
	senders   [][]int
	st        []int
	stFaults  []int
	retired   []bool
}
type engine struct{ live cell }
type keyed struct{}
func (k *keyed) ImportKey(id int, v int) {}
func newInbox() int    { return 0 }
func demoteInbox() (int, error) { return 0, nil }
`

// applyDiffShape mirrors the runtime's one fenced apply: tables cloned by
// a helper, a demoted inbox swapped in, added
// inboxes appended, a station retired, keyed state handed over and the
// tables published. %s is the parameter list.
const applyDiffShape = `
type diff struct{ next *planT }
func cloneTables(tb *tables, next *planT) *tables { return &tables{epoch: tb.epoch + 1, p: next} }
func applyDiff(%s) {
	nt := cloneTables(tb, d.next)
	nt.mailboxes[0], _ = demoteInbox()
	nt.mailboxes = append(nt.mailboxes, newInbox())
	nt.retired[0] = true
	k.ImportKey(1, 2)
	e.live.Store(nt)
}
`

func TestEpochFenceFlagsUnfencedMutations(t *testing.T) {
	ds := analyzeAt(t, EpochFence, runtimePkgPath, `package runtime
`+epochStub+fmt.Sprintf(applyDiffShape, "e *engine, tb *tables, d diff, k *keyed"))
	if len(ds) != 5 {
		t.Fatalf("want 5 diagnostics, got %d: %v", len(ds), ds)
	}
}

func TestEpochFenceAllowsFenceParam(t *testing.T) {
	ds := analyzeAt(t, EpochFence, runtimePkgPath, `package runtime
`+epochStub+fmt.Sprintf(applyDiffShape, "f *fence, e *engine, tb *tables, d diff, k *keyed"))
	if len(ds) != 0 {
		t.Fatalf("fence-holding code flagged: %v", ds)
	}
}

func TestEpochFenceLexicalPauseOrder(t *testing.T) {
	ds := analyzeAt(t, EpochFence, runtimePkgPath, `package runtime
`+epochStub+`
func mixed(nt *tables, e *engine) {
	nt.epoch = 1
	f := &fence{}
	f.pause(0, true)
	nt.senders[0] = nil
	e.live.Store(nt)
}
`)
	// Only the pre-pause mutation is flagged.
	if len(ds) != 1 {
		t.Fatalf("want 1 diagnostic, got %d: %v", len(ds), ds)
	}
}

// TestEpochFenceFlagsFreshTables pins that tables built in the function
// get no exemption: the deployment goes through the fence like every
// other diff, so building and publishing tables outside one is a bug.
func TestEpochFenceFlagsFreshTables(t *testing.T) {
	ds := analyzeAt(t, EpochFence, runtimePkgPath, `package runtime
`+epochStub+`
func build(e *engine) {
	nt := &tables{}
	nt.epoch = 1
	nt.mailboxes = append(nt.mailboxes, newInbox())
	nt.mailboxes[0] = newInbox()
	e.live.Store(nt)
}
`)
	// Three unfenced writes, the non-demoteInbox inbox replacement, and
	// the unfenced publish.
	if len(ds) != 5 {
		t.Fatalf("want 5 diagnostics, got %d: %v", len(ds), ds)
	}
}

func TestEpochFenceDemotionNeverRepromotes(t *testing.T) {
	ds := analyzeAt(t, EpochFence, runtimePkgPath, `package runtime
`+epochStub+`
func swap(f *fence, nt *tables) (err error) {
	nt.mailboxes[0] = newInbox()
	m, _ := demoteInbox()
	nt.mailboxes[1] = m
	nt.mailboxes[2], err = demoteInbox()
	return err
}
`)
	// Fenced, so only the replacements that are not a direct demoteInbox
	// call are flagged: the constructor that may yield a ring, and the
	// value whose origin the pass does not chase.
	if len(ds) != 2 {
		t.Fatalf("want 2 diagnostics, got %d: %v", len(ds), ds)
	}
}

func TestEpochFenceIgnoresOtherPackages(t *testing.T) {
	ds := analyze(t, EpochFence, `package p
`+epochStub+`
func bad(nt *tables) {
	nt.epoch = 1
}
`)
	if len(ds) != 0 {
		t.Fatalf("non-runtime package flagged: %v", ds)
	}
}

func TestConserveSumAllowsBalancedTotals(t *testing.T) {
	ds := analyze(t, ConserveSum, `package p
type Totals struct {
	Generated, Delivered, Shed, Failed, Drained, Abandoned uint64
}
func acc(t *Totals) {
	t.Generated++
	t.Delivered += 2
	t.Shed = 1
	t.Failed++
	t.Drained++
	t.Abandoned++
}
func (t Totals) Sum() uint64 {
	return t.Delivered + t.Shed + t.Failed + t.Drained + t.Abandoned
}
func (t Totals) String() string {
	_ = t.Generated + t.Delivered + t.Shed + t.Failed + t.Drained + t.Abandoned
	return ""
}
`)
	if len(ds) != 0 {
		t.Fatalf("balanced Totals flagged: %v", ds)
	}
}

func TestConserveSumCountsCompositeLiterals(t *testing.T) {
	ds := analyze(t, ConserveSum, `package p
type Totals struct {
	Generated, Delivered, Shed, Failed, Drained, Abandoned uint64
}
func mk() Totals {
	return Totals{Generated: 1, Delivered: 1, Shed: 1, Failed: 1, Drained: 1, Abandoned: 1}
}
`)
	if len(ds) != 0 {
		t.Fatalf("keyed composite literal not counted as writes: %v", ds)
	}
}

func TestConserveSumFlagsGaps(t *testing.T) {
	ds := analyze(t, ConserveSum, `package p
type Totals struct {
	Generated, Delivered, Shed, Failed, Drained, Abandoned uint64
}
func acc(t *Totals) {
	t.Generated++
	t.Delivered++
	t.Shed++
	t.Failed++
	t.Drained++
}
func (t Totals) Sum() uint64 {
	return t.Generated + t.Delivered + t.Shed + t.Failed + t.Drained
}
func (t Totals) String() string {
	_ = t.Delivered + t.Shed + t.Failed + t.Drained + t.Abandoned
	return ""
}
`)
	// Abandoned never accumulated; Sum omits Abandoned and folds in
	// Generated; String omits Generated.
	if len(ds) != 4 {
		t.Fatalf("want 4 diagnostics, got %d: %v", len(ds), ds)
	}
}

func TestConserveSumIgnoresUnrelatedTotals(t *testing.T) {
	ds := analyze(t, ConserveSum, `package p
type Totals struct{ Rows int }
`)
	if len(ds) != 0 {
		t.Fatalf("unrelated Totals type flagged: %v", ds)
	}
}
