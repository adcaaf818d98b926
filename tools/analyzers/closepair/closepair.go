// Package closepair checks that every *os.File acquired from an approved
// "opener" (os.Open, os.Create, os.OpenFile, os.CreateTemp) is released on
// every control-flow path, so long experiment sweeps cannot exhaust
// descriptors.
//
// For each call to an opener whose result is bound to a local variable v,
// the analyzer walks the function's control-flow graph from the open site.
// A path is satisfied when it reaches a v.Close() call or a defer that
// closes v; a path that reaches a return (or falls off the end of the
// function) without one is reported at the open site. The error-return
// path of a two-result opener (`if err != nil { return ... }`) is exempt —
// there is nothing to close when the open failed.
//
// The analysis is intraprocedural and deliberately conservative about
// escapes: if v is returned, stored, captured by a non-defer closure, or
// passed to another function, ownership may have transferred and the
// variable is not tracked. Suppress a true intentional leak with
// `//trajlint:allow closepair -- reason`.
package closepair

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/ctrlflow"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/cfg"

	"trajpattern/tools/analyzers/internal/directive"
)

const doc = `check that opened files are closed on all control-flow paths

Every call to an approved opener must be paired with a Close (or a defer
that closes) reachable on every path out of the function, excluding the
opener's own error-return path.`

const name = "closepair"

var Analyzer = &analysis.Analyzer{
	Name:     name,
	Doc:      doc,
	Requires: []*analysis.Analyzer{inspect.Analyzer, ctrlflow.Analyzer},
	Run:      run,
}

var openerList string

func init() {
	Analyzer.Flags.StringVar(&openerList, "funcs",
		"os.Open,os.Create,os.OpenFile,os.CreateTemp",
		"comma-separated pkgpath.Func openers whose results must be closed")
}

// opener is one parsed -funcs entry.
type opener struct{ pkg, name string }

func parseOpeners() []opener {
	var out []opener
	for _, s := range strings.Split(openerList, ",") {
		s = strings.TrimSpace(s)
		i := strings.LastIndexByte(s, '.')
		if i <= 0 || i == len(s)-1 {
			continue
		}
		out = append(out, opener{s[:i], s[i+1:]})
	}
	return out
}

func run(pass *analysis.Pass) (any, error) {
	ix := directive.NewIndex(pass, name)
	defer ix.FlushBad(pass)
	openers := parseOpeners()
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	cfgs := pass.ResultOf[ctrlflow.Analyzer].(*ctrlflow.CFGs)

	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		decl := n.(*ast.FuncDecl)
		if decl.Body == nil || directive.InTestFile(pass, decl.Pos()) {
			return
		}
		g := cfgs.FuncDecl(decl)
		if g == nil {
			return
		}
		checkBody(pass, ix, openers, decl.Body, g)
	})
	return nil, nil
}

// checkBody finds opener calls in body and verifies each is closed on all
// CFG paths. Function literals inside body have their own CFGs and are not
// descended into here (a resource opened in a closure is the closure's).
func checkBody(pass *analysis.Pass, ix *directive.Index, openers []opener, body *ast.BlockStmt, g *cfg.CFG) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(assign.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return true
		}
		op := matchOpener(pass, call, openers)
		if op == nil {
			return true
		}
		if len(assign.Lhs) == 0 {
			return true
		}
		vID, ok := ast.Unparen(assign.Lhs[0]).(*ast.Ident)
		if !ok {
			return true // stored straight into a field/index: escapes
		}
		if vID.Name == "_" {
			ix.Report(pass, analysis.Diagnostic{
				Pos:     call.Pos(),
				Message: fmt.Sprintf("result of %s.%s discarded; the opened resource can never be closed", shortPkg(op.pkg), op.name),
			})
			return true
		}
		v := objectOf(pass, vID)
		if v == nil {
			return true
		}
		var errVar *types.Var
		if len(assign.Lhs) == 2 {
			if errID, ok := ast.Unparen(assign.Lhs[1]).(*ast.Ident); ok && errID.Name != "_" {
				errVar = objectOf(pass, errID)
			}
		}
		if escapes(pass, body, v, assign) {
			return true
		}
		closes := closeNodes(pass, body, v)
		if leak := leakyPath(pass, g, assign, closes, errVar); leak != token.NoPos {
			ix.Report(pass, analysis.Diagnostic{
				Pos: call.Pos(),
				Message: fmt.Sprintf(
					"%s opened from %s.%s is not closed on the path exiting at line %d; close it on every path (e.g. defer %s.Close())",
					v.Name(), shortPkg(op.pkg), op.name,
					pass.Fset.Position(leak).Line, v.Name()),
			})
		}
		return true
	})
}

func shortPkg(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

func objectOf(pass *analysis.Pass, id *ast.Ident) *types.Var {
	if v, ok := pass.TypesInfo.Defs[id].(*types.Var); ok {
		return v
	}
	v, _ := pass.TypesInfo.Uses[id].(*types.Var)
	return v
}

// matchOpener returns the opener entry the call resolves to, or nil.
func matchOpener(pass *analysis.Pass, call *ast.CallExpr, openers []opener) *opener {
	var fn *types.Func
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ = pass.TypesInfo.Uses[f].(*types.Func)
	case *ast.SelectorExpr:
		fn, _ = pass.TypesInfo.Uses[f.Sel].(*types.Func)
	}
	if fn == nil || fn.Pkg() == nil {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		return nil
	}
	path := fn.Pkg().Path()
	for i := range openers {
		o := &openers[i]
		if fn.Name() != o.name {
			continue
		}
		if path == o.pkg || strings.HasSuffix(path, "/"+o.pkg) {
			return o
		}
	}
	return nil
}

// escapes reports whether v is used in a way that may transfer or share
// ownership: returned, reassigned, stored elsewhere, address taken, passed
// to a call, or captured by a closure outside a closing defer.
func escapes(pass *analysis.Pass, body *ast.BlockStmt, v *types.Var, open *ast.AssignStmt) bool {
	escaped := false
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		if escaped {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok || pass.TypesInfo.Uses[id] != v {
			return true
		}
		if usageEscapes(pass, stack, v) {
			escaped = true
		}
		return true
	})
	_ = open
	return escaped
}

// usageEscapes classifies the use of v at the top of stack.
func usageEscapes(pass *analysis.Pass, stack []ast.Node, v *types.Var) bool {
	id := stack[len(stack)-1].(*ast.Ident)
	var parent ast.Node
	if len(stack) >= 2 {
		parent = stack[len(stack)-2]
	}
	// Inside a function literal: only fine when the closure is deferred
	// (a deferred close); any other capture escapes.
	inDefer := false
	for i := len(stack) - 2; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.DeferStmt:
			inDefer = true
		}
	}
	inClosure := false
	for i := len(stack) - 2; i >= 0; i-- {
		if _, ok := stack[i].(*ast.FuncLit); ok {
			inClosure = true
			break
		}
	}
	if inClosure && !inDefer {
		return true
	}

	switch p := parent.(type) {
	case *ast.SelectorExpr:
		// v.M(...) — a method call on v keeps ownership local. v.M as a
		// method value or field read is fine too (an *os.File has no
		// exported fields).
		return false
	case *ast.AssignStmt:
		// v on the LHS of its defining assignment: the open itself. v on
		// any other LHS (reassignment) or on a RHS (aliasing) escapes.
		for _, l := range p.Lhs {
			if ast.Unparen(l) == ast.Node(id) {
				if _, isOpen := isOpenAssign(pass, p, v); isOpen {
					return false
				}
				return true // reassigned
			}
		}
		return true // aliased into another variable
	case *ast.ValueSpec:
		return true
	case *ast.ReturnStmt:
		return true
	case *ast.UnaryExpr:
		return p.Op == token.AND // &v escapes
	case *ast.CallExpr:
		// v passed as an argument (not the callee): ownership may transfer.
		for _, arg := range p.Args {
			if ast.Unparen(arg) == ast.Node(id) {
				return true
			}
		}
		return false
	case *ast.CompositeLit, *ast.KeyValueExpr, *ast.IndexExpr:
		return true
	}
	return false
}

// isOpenAssign reports whether assign is the opener assignment defining v.
func isOpenAssign(pass *analysis.Pass, assign *ast.AssignStmt, v *types.Var) (int, bool) {
	for i, l := range assign.Lhs {
		if id, ok := ast.Unparen(l).(*ast.Ident); ok {
			if pass.TypesInfo.Defs[id] == v || (assign.Tok == token.ASSIGN && pass.TypesInfo.Uses[id] == v) {
				if len(assign.Rhs) == 1 {
					if _, ok := ast.Unparen(assign.Rhs[0]).(*ast.CallExpr); ok {
						return i, true
					}
				}
			}
		}
	}
	return 0, false
}

// closeNodes collects the statements in body that release v: an expression
// statement calling v.Close(), or a defer whose call tree closes v.
func closeNodes(pass *analysis.Pass, body *ast.BlockStmt, v *types.Var) map[ast.Node]bool {
	out := make(map[ast.Node]bool)
	for _, stmt := range collectStmts(body) {
		switch s := stmt.(type) {
		case *ast.ExprStmt:
			if callsClose(pass, s.X, v) {
				out[ast.Node(s)] = true
			}
		case *ast.AssignStmt:
			// err = v.Close() / err := v.Close()
			for _, r := range s.Rhs {
				if callsClose(pass, r, v) {
					out[ast.Node(s)] = true
				}
			}
		case *ast.ReturnStmt:
			// return v.Close()
			for _, r := range s.Results {
				if callsClose(pass, r, v) {
					out[ast.Node(s)] = true
				}
			}
		case *ast.DeferStmt:
			closed := false
			ast.Inspect(s, func(n ast.Node) bool {
				if e, ok := n.(ast.Expr); ok && callsClose(pass, e, v) {
					closed = true
				}
				return !closed
			})
			if closed {
				out[ast.Node(s)] = true
			}
		}
	}
	return out
}

// collectStmts flattens every statement in body, including nested blocks.
func collectStmts(body *ast.BlockStmt) []ast.Stmt {
	var out []ast.Stmt
	ast.Inspect(body, func(n ast.Node) bool {
		if s, ok := n.(ast.Stmt); ok {
			out = append(out, s)
		}
		return true
	})
	return out
}

// callsClose reports whether e is exactly the call v.Close().
func callsClose(pass *analysis.Pass, e ast.Expr, v *types.Var) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Close" {
		return false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	return ok && pass.TypesInfo.Uses[id] == v
}

// leakyPath walks the CFG from the opener assignment and returns the
// position of the first function exit reachable without passing a close
// node, or token.NoPos if every path closes v. Successors reached only
// through the opener's `err != nil` branch are exempt.
func leakyPath(pass *analysis.Pass, g *cfg.CFG, open *ast.AssignStmt, closes map[ast.Node]bool, errVar *types.Var) token.Pos {
	// Locate the block and node index of the open statement.
	var b0 *cfg.Block
	i0 := -1
	for _, b := range g.Blocks {
		for i, n := range b.Nodes {
			if n == ast.Node(open) {
				b0, i0 = b, i
			}
		}
	}
	if b0 == nil {
		return token.NoPos
	}

	type state struct {
		b     *cfg.Block
		start int
		// errLive is true while errVar still holds the opener's error: only
		// then is an `err != nil` branch exempt. Any reassignment of errVar
		// (a later call reusing the variable) ends the exemption.
		errLive bool
	}
	type seenKey struct {
		b       *cfg.Block
		errLive bool
	}
	seen := make(map[seenKey]bool)
	stack := []state{{b0, i0 + 1, errVar != nil}}
	for len(stack) > 0 {
		st := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		closed := false
		errLive := st.errLive
		var errCond token.Token // EQL or NEQ when the block ends testing errVar against nil
		for i := st.start; i < len(st.b.Nodes); i++ {
			n := st.b.Nodes[i]
			if closes[n] {
				closed = true
				break
			}
			if errLive && n != ast.Node(open) && reassigns(pass, n, errVar) {
				errLive = false
			}
			if i == len(st.b.Nodes)-1 && errLive {
				if tok, ok := nilTest(pass, n, errVar); ok {
					errCond = tok
				}
			}
		}
		if closed {
			continue
		}
		if ret := st.b.Return(); ret != nil {
			return ret.Pos()
		}
		// A block with no successors and no return ends in panic (or is
		// unreachable); a leak on a panicking path is not this analyzer's
		// concern.
		for _, succ := range st.b.Succs {
			// Exempt the opener's error path: after `err != nil` the then
			// branch holds a failed open; after `err == nil` the else branch
			// does.
			if errCond == token.NEQ && succ.Kind == cfg.KindIfThen {
				continue
			}
			if errCond == token.EQL && succ.Kind == cfg.KindIfElse {
				continue
			}
			k := seenKey{succ, errLive}
			if seen[k] {
				continue
			}
			seen[k] = true
			stack = append(stack, state{succ, 0, errLive})
		}
	}
	return token.NoPos
}

// reassigns reports whether n assigns a new value to errVar.
func reassigns(pass *analysis.Pass, n ast.Node, errVar *types.Var) bool {
	assign, ok := n.(*ast.AssignStmt)
	if !ok {
		return false
	}
	for _, l := range assign.Lhs {
		if id, ok := ast.Unparen(l).(*ast.Ident); ok {
			if pass.TypesInfo.Uses[id] == errVar || pass.TypesInfo.Defs[id] == errVar {
				return true
			}
		}
	}
	return false
}

// nilTest reports whether n is the expression `errVar == nil` or
// `errVar != nil`, returning the comparison operator.
func nilTest(pass *analysis.Pass, n ast.Node, errVar *types.Var) (token.Token, bool) {
	cmp, ok := n.(*ast.BinaryExpr)
	if !ok || (cmp.Op != token.EQL && cmp.Op != token.NEQ) {
		return 0, false
	}
	isErr := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && pass.TypesInfo.Uses[id] == errVar
	}
	isNil := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && id.Name == "nil"
	}
	if isErr(cmp.X) && isNil(cmp.Y) || isNil(cmp.X) && isErr(cmp.Y) {
		return cmp.Op, true
	}
	return 0, false
}
