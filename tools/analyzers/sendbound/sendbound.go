// Package sendbound proves that channel sends in the configured
// concurrent packages cannot block forever — the static counterpart of
// the stuck-producer hangs the chaos tests hunt dynamically. An
// unguarded send on an unbuffered (or full) channel parks its goroutine
// until a receiver shows up; when the receiver has been drained away,
// that producer survives shutdown and the drain never converges.
//
// A send statement `ch <- v` is accepted when any of the following holds:
//
//   - Escapable select: the send is a case of a select that also has a
//     default clause or at least one receive case (cancellation — a
//     `<-ctx.Done()` case — being the canonical form), so the goroutine
//     has a way out when no receiver arrives.
//
//   - Buffered by construction: ch resolves to a local variable whose
//     defining `make(chan T, n)` in the same file has a non-zero
//     capacity, or to a struct field every `make` assigned to it in the
//     package is buffered (composite literals and field assignments both
//     count). The send can park only if the buffer is full — a capacity
//     bug, not a rendezvous-with-nobody bug, and one the queue-depth
//     telemetry makes visible.
//
// Sends on parameters, interface-wrapped channels, or channels made
// unbuffered are reported. Suppress a send that is provably paired with a
// dedicated receiver by design with
// `//trajlint:allow sendbound -- reason`.
package sendbound

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"trajpattern/tools/analyzers/internal/directive"
)

const doc = `check that channel sends are select-guarded or provably buffered

A bare send on an unbuffered channel parks the goroutine until a receiver
arrives; when the receiver is gone (a drained server, a cancelled
request) the producer hangs forever. Sends must sit in a select with an
escape (default or a receive case such as <-ctx.Done()) or target a
channel made with a non-zero buffer.`

const name = "sendbound"

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
		"comma-separated package paths (or /-suffixes) whose channel sends must be bounded")
}

func run(pass *analysis.Pass) (any, error) {
	ix := directive.NewIndex(pass, name)
	defer ix.FlushBad(pass)
	if !directive.MatchPkg(pass.Pkg.Path(), pkgs) {
		return nil, nil
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	buffered := bufferedFields(pass, ins)

	ins.WithStack([]ast.Node{(*ast.SendStmt)(nil)}, func(n ast.Node, push bool, stack []ast.Node) bool {
		if !push {
			return true
		}
		send := n.(*ast.SendStmt)
		if inEscapableSelect(stack) {
			return true
		}
		if isBuffered(pass, send.Chan, buffered) {
			return true
		}
		ix.Report(pass, analysis.Diagnostic{
			Pos: send.Pos(),
			Message: "unbounded channel send: not select-guarded (no default or receive case such as <-ctx.Done()) " +
				"and the channel is not provably buffered; a vanished receiver parks this goroutine forever",
		})
		return true
	})
	return nil, nil
}

// inEscapableSelect reports whether the send is the communication of a
// select case whose select has an escape: a default clause or a receive
// case. A send inside a case *body* is not guarded — the select has
// already fired by the time it runs.
func inEscapableSelect(stack []ast.Node) bool {
	send := stack[len(stack)-1]
	for i := len(stack) - 2; i >= 0; i-- {
		switch x := stack[i].(type) {
		case *ast.FuncLit:
			return false // crossed into the enclosing function: no select guards this send
		case *ast.CommClause:
			if x.Comm != send {
				return false
			}
			sel, ok := stackSelect(stack, i)
			return ok && selectHasEscape(sel)
		}
	}
	return false
}

// stackSelect returns the SelectStmt enclosing the CommClause at stack[i].
func stackSelect(stack []ast.Node, i int) (*ast.SelectStmt, bool) {
	for j := i - 1; j >= 0; j-- {
		if s, ok := stack[j].(*ast.SelectStmt); ok {
			return s, true
		}
	}
	return nil, false
}

// selectHasEscape reports whether sel has a default clause or a receive
// case.
func selectHasEscape(sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		if cc.Comm == nil {
			return true // default
		}
		switch comm := cc.Comm.(type) {
		case *ast.ExprStmt, *ast.AssignStmt:
			_ = comm
			return true // a receive case (<-c, v := <-c)
		}
	}
	return false
}

// bufferedFields maps "structTypeName.fieldName" to whether every make
// assigned to that field in this package is buffered. A field with any
// unbuffered (or absent) make, or never made locally, is absent or false.
func bufferedFields(pass *analysis.Pass, ins *inspector.Inspector) map[string]bool {
	out := map[string]bool{}
	note := func(field *types.Var, buffered bool) {
		if field == nil {
			return
		}
		key := fieldKey(field)
		if prev, seen := out[key]; seen {
			out[key] = prev && buffered
		} else {
			out[key] = buffered
		}
	}
	ins.Preorder([]ast.Node{(*ast.CompositeLit)(nil), (*ast.AssignStmt)(nil)}, func(n ast.Node) {
		switch x := n.(type) {
		case *ast.CompositeLit:
			tv, ok := pass.TypesInfo.Types[x]
			if !ok || tv.Type == nil {
				return
			}
			st, ok := deref(tv.Type).Underlying().(*types.Struct)
			if !ok {
				return
			}
			for _, el := range x.Elts {
				kv, ok := el.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				keyID, ok := kv.Key.(*ast.Ident)
				if !ok {
					continue
				}
				if !isChanExpr(pass, kv.Value) {
					continue
				}
				for i := 0; i < st.NumFields(); i++ {
					if st.Field(i).Name() == keyID.Name {
						note(st.Field(i), isBufferedMake(pass, kv.Value))
					}
				}
			}
		case *ast.AssignStmt:
			if len(x.Lhs) != len(x.Rhs) {
				return
			}
			for i, l := range x.Lhs {
				sel, ok := ast.Unparen(l).(*ast.SelectorExpr)
				if !ok || !isChanExpr(pass, x.Rhs[i]) {
					continue
				}
				s := pass.TypesInfo.Selections[sel]
				if s == nil || s.Kind() != types.FieldVal {
					continue
				}
				if f, ok := s.Obj().(*types.Var); ok {
					note(f, isBufferedMake(pass, x.Rhs[i]))
				}
			}
		}
	})
	return out
}

func deref(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

func fieldKey(f *types.Var) string {
	owner := ""
	if f.Pkg() != nil {
		owner = f.Pkg().Path()
	}
	return owner + "#" + f.Name() + "#" + f.Type().String()
}

func isChanExpr(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, isChan := tv.Type.Underlying().(*types.Chan)
	return isChan
}

// isBufferedMake reports whether e is a make(chan T, n) with a non-zero
// capacity: a constant > 0, or a non-constant expression (a variable
// capacity such as make(chan error, clients) — treated as buffered; a
// deliberately zero variable capacity is an admitted blind spot).
func isBufferedMake(pass *analysis.Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); !ok || b.Name() != "make" {
		return false
	}
	if tv, ok := pass.TypesInfo.Types[call.Args[1]]; ok && tv.Value != nil {
		return tv.Value.String() != "0"
	}
	return true // non-constant capacity: assume the construction sized it
}

// isBuffered reports whether the send target is provably buffered: a
// local identifier defined by a buffered make in this file, or a struct
// field whose every package-local make is buffered.
func isBuffered(pass *analysis.Pass, ch ast.Expr, fields map[string]bool) bool {
	switch x := ast.Unparen(ch).(type) {
	case *ast.Ident:
		obj := pass.TypesInfo.Uses[x]
		if obj == nil {
			obj = pass.TypesInfo.Defs[x]
		}
		v, ok := obj.(*types.Var)
		if !ok {
			return false
		}
		return localMakeBuffered(pass, v)
	case *ast.SelectorExpr:
		s := pass.TypesInfo.Selections[x]
		if s == nil || s.Kind() != types.FieldVal {
			return false
		}
		f, ok := s.Obj().(*types.Var)
		if !ok {
			return false
		}
		return fields[fieldKey(f)]
	}
	return false
}

// localMakeBuffered scans the file defining v for its defining
// assignment/declaration and reports whether it is a buffered make. All
// makes assigned to v must be buffered.
func localMakeBuffered(pass *analysis.Pass, v *types.Var) bool {
	var made, allBuffered bool
	allBuffered = true
	for _, f := range pass.Files {
		if pass.Fset.File(f.Pos()) != pass.Fset.File(v.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				if len(x.Lhs) != len(x.Rhs) {
					return true
				}
				for i, l := range x.Lhs {
					id, ok := ast.Unparen(l).(*ast.Ident)
					if !ok {
						continue
					}
					if pass.TypesInfo.Defs[id] != v && pass.TypesInfo.Uses[id] != v {
						continue
					}
					if isChanExpr(pass, x.Rhs[i]) {
						made = true
						allBuffered = allBuffered && isBufferedMake(pass, x.Rhs[i])
					}
				}
			case *ast.ValueSpec:
				for i, nm := range x.Names {
					if pass.TypesInfo.Defs[nm] != v || i >= len(x.Values) {
						continue
					}
					if isChanExpr(pass, x.Values[i]) {
						made = true
						allBuffered = allBuffered && isBufferedMake(pass, x.Values[i])
					}
				}
			}
			return true
		})
	}
	return made && allBuffered
}
