// Package goleak proves, per `go func` literal in the configured
// concurrent packages, that the goroutine is joined — some party can
// observe its termination — so no fire-and-forget goroutine survives a
// drain. The serve soak and drain tests check the same property
// dynamically (internal/testutil/leakcheck); this pass checks it on every
// path, not just the schedules a test run happens to exercise.
//
// A `go func() {...}()` statement is accepted when the analysis finds any
// of the following join witnesses:
//
//   - WaitGroup join: the body calls Done (possibly deferred) on a
//     sync.WaitGroup. (The matching Wait is the waiter's side; a Done'd
//     goroutine is assumed awaited — Wait-less WaitGroups are their own
//     bug class and easy to spot in review.)
//
//   - Acknowledged send: the body sends on a channel that the function
//     launching the goroutine also receives from (directly, in a select
//     case, or by range). The receive is the join.
//
//   - Close handshake: the body closes a channel the launching function
//     receives from — or, symmetrically, the body receives/selects on a
//     channel the launching function closes (the close is a broadcast
//     that releases the goroutine).
//
//   - Context join: the body selects on (or receives from) a
//     context.Context's Done channel, so cancellation bounds its
//     lifetime.
//
// `go someFunc()` on a named function is not analyzed — the body is out of
// reach intraprocedurally; keep long-lived spawns as literals or waive the
// site. Suppress a true intentional daemon with
// `//trajlint:allow goleak -- reason`.
package goleak

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

const doc = `check that every go func literal is joined

A goroutine must be observable at termination: a WaitGroup.Done, a channel
send the launcher receives, a close handshake with the launcher, or a
select on a context's Done channel. Anything else is fire-and-forget and
survives a drain.`

const name = "goleak"

var Analyzer = &analysis.Analyzer{
	Name:     name,
	Doc:      doc,
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

var pkgs string

func init() {
	Analyzer.Flags.StringVar(&pkgs, "pkgs",
		"trajpattern/internal/core/shard,"+
			"trajpattern/internal/serve,trajpattern/internal/serve/guard,"+
			"trajpattern/internal/serve/chaos,trajpattern/internal/cli,trajpattern/internal/trace,"+
			"trajpattern/internal/obs,trajpattern/internal/obs/slogx,trajpattern/internal/ingest,trajpattern/internal/ingest/chaos",
		"comma-separated package paths (or /-suffixes) whose goroutines must be joined")
}

func run(pass *analysis.Pass) (any, error) {
	ix := directive.NewIndex(pass, name)
	defer ix.FlushBad(pass)
	if !directive.MatchPkg(pass.Pkg.Path(), pkgs) {
		return nil, nil
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	ins.WithStack([]ast.Node{(*ast.GoStmt)(nil)}, func(n ast.Node, push bool, stack []ast.Node) bool {
		if !push {
			return true
		}
		gs := n.(*ast.GoStmt)
		lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit)
		if !ok {
			return true // named function: body out of intraprocedural reach
		}
		encl := enclosingFunc(stack)
		if encl == nil {
			return true
		}
		if joined(pass, lit, encl, gs) {
			return true
		}
		ix.Report(pass, analysis.Diagnostic{
			Pos: gs.Pos(),
			Message: "goroutine is not joined: no WaitGroup.Done, no channel send or close the launcher " +
				"acknowledges, and no ctx.Done()/close-signalled exit; a fire-and-forget goroutine survives a drain " +
				"(join it, or waive with `//trajlint:allow goleak -- reason`)",
		})
		return true
	})
	return nil, nil
}

// enclosingFunc returns the body of the innermost function enclosing the
// go statement (a declaration or a literal).
func enclosingFunc(stack []ast.Node) *ast.BlockStmt {
	for i := len(stack) - 2; i >= 0; i-- {
		switch f := stack[i].(type) {
		case *ast.FuncDecl:
			return f.Body
		case *ast.FuncLit:
			return f.Body
		}
	}
	return nil
}

// joined reports whether the goroutine body presents a join witness.
func joined(pass *analysis.Pass, lit *ast.FuncLit, encl *ast.BlockStmt, gs *ast.GoStmt) bool {
	if callsWaitGroupDone(pass, lit.Body) {
		return true
	}
	if selectsOnContextDone(pass, lit.Body) {
		return true
	}
	// Channel handshakes between the body and the launching function.
	sent, closed, received := chanUses(pass, lit.Body)
	enclClosed, enclReceived := chanUsesOutsideGo(pass, encl, gs)
	for k := range sent {
		if enclReceived[k] {
			return true // acknowledged send
		}
	}
	for k := range closed {
		if enclReceived[k] {
			return true // close handshake, goroutine side closes
		}
	}
	for k := range received {
		if enclClosed[k] {
			return true // close handshake, launcher side closes
		}
	}
	return false
}

// callsWaitGroupDone reports whether body contains a Done() call on a
// sync.WaitGroup (deferred or not).
func callsWaitGroupDone(pass *analysis.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return !found
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Done" {
			return !found
		}
		if isSyncType(pass, sel.X, "WaitGroup") {
			found = true
		}
		return !found
	})
	return found
}

// selectsOnContextDone reports whether body receives from a
// context.Context's Done channel (in a select case or a direct receive).
func selectsOnContextDone(pass *analysis.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		un, ok := n.(*ast.UnaryExpr)
		if !ok || un.Op != token.ARROW {
			return !found
		}
		call, ok := ast.Unparen(un.X).(*ast.CallExpr)
		if !ok {
			return !found
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Done" {
			return !found
		}
		if isContext(pass, sel.X) {
			found = true
		}
		return !found
	})
	return found
}

// isSyncType reports whether e's type is sync.<name> or a pointer to it.
func isSyncType(pass *analysis.Pass, e ast.Expr, typeName string) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == typeName
}

// isContext reports whether e's type is context.Context.
func isContext(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	named, ok := tv.Type.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// chanKey canonicalizes a channel expression (identifier or field chain)
// into a stable key; ok is false for unresolvable expressions.
func chanKey(pass *analysis.Pass, e ast.Expr) (string, bool) {
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.Ident:
		obj := pass.TypesInfo.Uses[x]
		if obj == nil {
			obj = pass.TypesInfo.Defs[x]
		}
		if obj == nil {
			return "", false
		}
		// Key on object identity: a captured local resolves to the same
		// object inside and outside the literal.
		return objKey(obj), true
	case *ast.SelectorExpr:
		base, ok := chanKey(pass, x.X)
		if !ok {
			return "", false
		}
		return base + "." + x.Sel.Name, true
	}
	return "", false
}

// objKey keys a channel variable on its object identity, so a captured
// local resolves identically inside and outside the goroutine literal.
func objKey(obj types.Object) string {
	return fmt.Sprintf("%p/%s", obj, obj.Name())
}

// chanUses collects the channels a subtree sends on, closes, and receives
// from (direct receives, select cases, range statements).
func chanUses(pass *analysis.Pass, root ast.Node) (sent, closed, received map[string]bool) {
	sent, closed, received = map[string]bool{}, map[string]bool{}, map[string]bool{}
	collectChanUses(pass, root, nil, sent, closed, received)
	return
}

// chanUsesOutsideGo collects the closes and receives of the launching
// function's body with the go statement itself excluded (the goroutine's
// own uses are not the launcher's).
func chanUsesOutsideGo(pass *analysis.Pass, body *ast.BlockStmt, skip *ast.GoStmt) (closed, received map[string]bool) {
	sent := map[string]bool{}
	closed, received = map[string]bool{}, map[string]bool{}
	collectChanUses(pass, body, skip, sent, closed, received)
	return
}

func collectChanUses(pass *analysis.Pass, root ast.Node, skip ast.Node, sent, closedSet, received map[string]bool) {
	ast.Inspect(root, func(n ast.Node) bool {
		if n == skip {
			return false
		}
		switch x := n.(type) {
		case *ast.SendStmt:
			if k, ok := chanKey(pass, x.Chan); ok {
				sent[k] = true
			}
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				if k, ok := chanKey(pass, x.X); ok {
					received[k] = true
				}
			}
		case *ast.RangeStmt:
			if tv, ok := pass.TypesInfo.Types[x.X]; ok && tv.Type != nil {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					if k, ok := chanKey(pass, x.X); ok {
						received[k] = true
					}
				}
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "close" {
				if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "close" {
					if len(x.Args) == 1 {
						if k, ok := chanKey(pass, x.Args[0]); ok {
							closedSet[k] = true
						}
					}
				}
			}
		}
		return true
	})
}
