// Package atomicmix enforces the single-discipline rule for atomic state:
// a struct field that is ever touched through sync/atomic — either a typed
// atomic (atomic.Int64, atomic.Uint64, ...) or a plain integer passed by
// address to the sync/atomic functions — must never be read or written
// plainly. Mixing the two produces a data race the race detector only
// catches on schedules the tests happen to exercise; this pass proves the
// property on every path.
//
// Two rules, applied package-locally in the configured packages:
//
//  1. Legacy atomics: when &x.f is passed to a sync/atomic function
//     (atomic.AddInt64(&x.f, 1)), every other access to that field must
//     also go through sync/atomic. Plain reads (v := x.f) and writes
//     (x.f = 0) are reported, except inside init functions and composite
//     literals — the package's init path, where the value is not yet
//     shared.
//
//  2. Typed atomics: a field (or slice/array element) of type atomic.T
//     may only be used as a method-call receiver (x.f.Load()) or have its
//     address taken. Copying it by value — assignment, a range that copies
//     elements, passing it as an argument — smuggles the current value out
//     from under the atomic protocol and is reported. (go vet's copylocks
//     catches some of these; this pass also catches reads that copylocks
//     permits, such as ranging over a []atomic.Int64 by value.)
//
// This is the static guard on the internal/obs Histogram/Counter/Gauge
// internals: their contract is "every touch is one atomic op", and a
// plainly-read counts slot is a torn snapshot waiting for a weak-memory
// machine. Suppress intentional exceptions with
// `//trajlint:allow atomicmix -- reason`.
package atomicmix

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"trajpattern/tools/analyzers/internal/directive"
)

const doc = `check that atomic fields are never read or written plainly

A field touched through sync/atomic (typed atomic or address passed to the
atomic functions) must be accessed through sync/atomic everywhere outside
the package's init path; a plain access races every atomic one.`

const name = "atomicmix"

var Analyzer = &analysis.Analyzer{
	Name:     name,
	Doc:      doc,
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

var pkgs string

func init() {
	Analyzer.Flags.StringVar(&pkgs, "pkgs",
		"trajpattern/internal/obs,trajpattern/internal/obs/slogx,trajpattern/internal/trace,"+
			"trajpattern/internal/serve,trajpattern/internal/serve/guard,trajpattern/internal/serve/chaos,"+
			"trajpattern/internal/core/shard,"+
			"trajpattern/internal/retry,trajpattern/internal/cli,trajpattern/internal/ingest,trajpattern/internal/ingest/chaos",
		"comma-separated package paths (or /-suffixes) held to the atomic-access discipline")
}

func run(pass *analysis.Pass) (any, error) {
	ix := directive.NewIndex(pass, name)
	defer ix.FlushBad(pass)
	if !directive.MatchPkg(pass.Pkg.Path(), pkgs) {
		return nil, nil
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	legacy := legacyAtomicFields(pass, ins)
	checkAccesses(pass, ix, ins, legacy)
	return nil, nil
}

// legacyAtomicFields collects every struct field whose address is passed
// to a sync/atomic function anywhere in the package.
func legacyAtomicFields(pass *analysis.Pass, ins *inspector.Inspector) map[*types.Var]bool {
	fields := make(map[*types.Var]bool)
	ins.Preorder([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node) {
		call := n.(*ast.CallExpr)
		if !isAtomicCall(pass, call) {
			return
		}
		for _, arg := range call.Args {
			un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
			if !ok || un.Op != token.AND {
				continue
			}
			if f := fieldOf(pass, un.X); f != nil {
				fields[f] = true
			}
		}
	})
	return fields
}

// isAtomicCall reports whether call invokes a package-level function of
// sync/atomic (AddInt64, LoadUint32, CompareAndSwapPointer, ...).
func isAtomicCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil && fn.Pkg().Path() == "sync/atomic"
}

// fieldOf returns the struct field object a selector (possibly through an
// index expression) resolves to, or nil.
func fieldOf(pass *analysis.Pass, e ast.Expr) *types.Var {
	e = ast.Unparen(e)
	if ix, ok := e.(*ast.IndexExpr); ok {
		e = ast.Unparen(ix.X) // x.f[i]: the field is x.f
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	s := pass.TypesInfo.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return nil
	}
	f, _ := s.Obj().(*types.Var)
	return f
}

// atomicTypeName reports whether t is one of sync/atomic's typed atomics,
// returning its name ("Int64", ...).
func atomicTypeName(t types.Type) (string, bool) {
	named, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "sync/atomic" {
		return "", false
	}
	switch obj.Name() {
	case "Bool", "Int32", "Int64", "Uint32", "Uint64", "Uintptr", "Pointer", "Value":
		return obj.Name(), true
	}
	return "", false
}

// elemAtomic reports whether t is a slice or array of a typed atomic.
func elemAtomic(t types.Type) (string, bool) {
	switch u := t.Underlying().(type) {
	case *types.Slice:
		return atomicTypeName(u.Elem())
	case *types.Array:
		return atomicTypeName(u.Elem())
	}
	return "", false
}

// checkAccesses walks every selector expression with a parent stack and
// reports plain accesses to atomic state.
func checkAccesses(pass *analysis.Pass, ix *directive.Index, ins *inspector.Inspector, legacy map[*types.Var]bool) {
	ins.WithStack([]ast.Node{(*ast.SelectorExpr)(nil), (*ast.RangeStmt)(nil)}, func(n ast.Node, push bool, stack []ast.Node) bool {
		if !push {
			return true
		}
		if rs, ok := n.(*ast.RangeStmt); ok {
			checkRangeCopy(pass, ix, rs)
			return true
		}
		sel := n.(*ast.SelectorExpr)
		s := pass.TypesInfo.Selections[sel]
		if s == nil || s.Kind() != types.FieldVal {
			return true
		}
		f, ok := s.Obj().(*types.Var)
		if !ok {
			return true
		}
		if inInitPath(stack) {
			return true
		}
		if legacy[f] {
			if !viaAtomic(pass, stack) {
				ix.Report(pass, analysis.Diagnostic{
					Pos: sel.Pos(),
					Message: fmt.Sprintf(
						"field %s is accessed with sync/atomic elsewhere but read/written plainly here; every access to an atomic field must go through sync/atomic",
						f.Name()),
				})
			}
			return true
		}
		if tn, ok := atomicTypeName(f.Type()); ok {
			if copied, how := valueCopied(pass, sel, stack); copied {
				ix.Report(pass, analysis.Diagnostic{
					Pos: sel.Pos(),
					Message: fmt.Sprintf(
						"atomic.%s field %s is %s; typed atomics may only be used as method-call receivers or by address — a value copy escapes the atomic protocol",
						tn, f.Name(), how),
				})
			}
		}
		return true
	})
}

// inInitPath reports whether the innermost enclosing function is an init
// function, or the selector sits inside a composite literal (construction,
// before the value is shared).
func inInitPath(stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch d := stack[i].(type) {
		case *ast.CompositeLit:
			return true
		case *ast.FuncDecl:
			return d.Recv == nil && d.Name.Name == "init"
		}
	}
	return false
}

// viaAtomic reports whether the selector is accessed through sync/atomic:
// its address (possibly via an index expression) is taken and passed
// directly to a sync/atomic call. A plain read that merely appears as
// another argument of an atomic call does not qualify.
func viaAtomic(pass *analysis.Pass, stack []ast.Node) bool {
	i := len(stack) - 2
	for ; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.IndexExpr, *ast.ParenExpr:
			continue
		}
		break
	}
	if i < 1 {
		return false
	}
	un, ok := stack[i].(*ast.UnaryExpr)
	if !ok || un.Op != token.AND {
		return false
	}
	for i--; i >= 0; i-- {
		if _, ok := stack[i].(*ast.ParenExpr); ok {
			continue
		}
		break
	}
	call, ok := stack[i].(*ast.CallExpr)
	return ok && isAtomicCall(pass, call)
}

// valueCopied classifies the use of an atomic-typed selector at the top of
// stack; it returns how the value escapes ("assigned", "copied", ...) when
// the use is neither a method call via the field nor an address-of.
func valueCopied(pass *analysis.Pass, sel *ast.SelectorExpr, stack []ast.Node) (bool, string) {
	var parent ast.Node
	if len(stack) >= 2 {
		parent = stack[len(stack)-2]
	}
	switch p := parent.(type) {
	case *ast.SelectorExpr:
		// x.f.Load(): the field is the receiver of a further selection —
		// method call or (for atomic.Value etc.) nothing else exists.
		return false, ""
	case *ast.UnaryExpr:
		if p.Op.String() == "&" {
			return false, ""
		}
	case *ast.IndexExpr:
		// x.f[i] where f is []atomic.T: the element must itself be used
		// via method or address; that use is classified one level up when
		// the IndexExpr's parent is inspected — the slice base itself is
		// not a copy.
		if p.X == sel {
			if copied, how := indexUseCopied(stack); copied {
				return true, how
			}
			return false, ""
		}
	case *ast.AssignStmt:
		for _, l := range p.Lhs {
			if ast.Unparen(l) == ast.Node(sel) {
				return true, "assigned plainly"
			}
		}
		return true, "copied by value in an assignment"
	case *ast.ValueSpec:
		return true, "copied by value in a declaration"
	case *ast.CallExpr:
		for _, a := range p.Args {
			if ast.Unparen(a) == ast.Node(sel) {
				return true, "passed by value to a call"
			}
		}
	case *ast.ReturnStmt:
		return true, "returned by value"
	case *ast.CompositeLit, *ast.KeyValueExpr:
		return true, "copied into a composite literal"
	case *ast.RangeStmt:
		return false, "" // handled by checkRangeCopy (the base is not copied)
	}
	return false, ""
}

// indexUseCopied classifies the use of x.f[i] (an atomic slice element):
// stack ends [..., parentOfIndex?, IndexExpr, SelectorExpr]; the relevant
// parent is two frames up from the selector.
func indexUseCopied(stack []ast.Node) (bool, string) {
	if len(stack) < 3 {
		return false, ""
	}
	switch p := stack[len(stack)-3].(type) {
	case *ast.SelectorExpr:
		return false, "" // x.f[i].Add(1)
	case *ast.UnaryExpr:
		if p.Op.String() == "&" {
			return false, ""
		}
	}
	return true, "read or written plainly through an index expression"
}

// checkRangeCopy reports ranging over a slice/array of typed atomics with
// a value variable: each iteration copies an element out from under the
// protocol. Ranging by index alone is fine.
func checkRangeCopy(pass *analysis.Pass, ix *directive.Index, rs *ast.RangeStmt) {
	if rs.Value == nil {
		return
	}
	tv, ok := pass.TypesInfo.Types[rs.X]
	if !ok || tv.Type == nil {
		return
	}
	if tn, ok := elemAtomic(tv.Type); ok {
		ix.Report(pass, analysis.Diagnostic{
			Pos: rs.Value.Pos(),
			Message: fmt.Sprintf(
				"range copies atomic.%s elements by value; iterate by index and use the element's methods instead",
				tn),
		})
	}
}
