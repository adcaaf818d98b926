// Package ctxfirst enforces the repo's context-plumbing convention in the
// cancellable packages (internal/core and the layers above it): a
// context.Context is always the first parameter of the function that uses
// it, and is never stored in a struct.
//
// Both rules come from the cancellation design: Mine, ScoreAll and
// RunBench thread one request-scoped Context down the call tree, so every
// hop must accept it positionally (first, named ctx by Go convention) and
// none may squirrel it away in a field where its lifetime silently
// outlives the request — a stored Context is how a "cancelled" miner keeps
// running.
//
// It reports two classes of violation:
//
//  1. A function or method declaring a context.Context parameter anywhere
//     but first (methods count positions after the receiver).
//  2. A struct type with a field of type context.Context (embedded or
//     named).
//
// Suppress intentional uses with `//trajlint:allow ctxfirst -- reason`.
package ctxfirst

import (
	"fmt"
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"trajpattern/tools/analyzers/internal/directive"
)

const doc = `check that context.Context is the first parameter and never a struct field

The cancellable packages thread one request-scoped Context through the
call tree. A Context in any other parameter position breaks the
convention callers rely on; a Context stored in a struct outlives its
request and defeats cancellation.`

const name = "ctxfirst"

var Analyzer = &analysis.Analyzer{
	Name:     name,
	Doc:      doc,
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

var pkgs string

func init() {
	Analyzer.Flags.StringVar(&pkgs, "pkgs",
		"trajpattern/internal/core,trajpattern/internal/cli,trajpattern/internal/exp,trajpattern/internal/classify,trajpattern,trajpattern/internal/serve,trajpattern/internal/serve/guard,trajpattern/internal/serve/chaos,trajpattern/internal/ingest,trajpattern/internal/ingest/chaos",
		"comma-separated package paths (or /-suffixes) held to the context convention")
}

func run(pass *analysis.Pass) (any, error) {
	ix := directive.NewIndex(pass, name)
	defer ix.FlushBad(pass)
	if !directive.MatchPkg(pass.Pkg.Path(), pkgs) {
		return nil, nil
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil), (*ast.StructType)(nil), (*ast.InterfaceType)(nil)}, func(n ast.Node) {
		switch d := n.(type) {
		case *ast.FuncDecl:
			checkParams(pass, ix, d.Type, d.Name.Name)
		case *ast.StructType:
			for _, f := range d.Fields.List {
				if !isContext(pass, f.Type) {
					continue
				}
				label := "embedded field"
				if len(f.Names) > 0 {
					label = fmt.Sprintf("field %s", f.Names[0].Name)
				}
				ix.Report(pass, analysis.Diagnostic{
					Pos: f.Pos(),
					Message: fmt.Sprintf(
						"context.Context stored in a struct (%s): a stored Context outlives its request and defeats cancellation; pass it as the first parameter instead",
						label),
				})
			}
		case *ast.InterfaceType:
			for _, m := range d.Methods.List {
				ft, ok := m.Type.(*ast.FuncType)
				if !ok || len(m.Names) == 0 {
					continue
				}
				checkParams(pass, ix, ft, m.Names[0].Name)
			}
		}
	})
	return nil, nil
}

// checkParams reports any context.Context parameter of fn that is not in
// the first position.
func checkParams(pass *analysis.Pass, ix *directive.Index, ft *ast.FuncType, fname string) {
	if ft.Params == nil {
		return
	}
	pos := 0 // parameter index, counting each name in a shared-type group
	for _, field := range ft.Params.List {
		n := len(field.Names)
		if n == 0 {
			n = 1 // unnamed parameter
		}
		if isContext(pass, field.Type) && pos != 0 {
			ix.Report(pass, analysis.Diagnostic{
				Pos: field.Pos(),
				Message: fmt.Sprintf(
					"context.Context is parameter %d of %s: the Context goes first so call sites read uniformly",
					pos+1, fname),
			})
		}
		pos += n
	}
}

// isContext reports whether the expression's type is context.Context.
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
