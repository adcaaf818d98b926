// Package directive implements the trajlint suppression syntax shared by
// every analyzer in the suite:
//
//	//trajlint:allow <analyzer> -- <reason>
//
// A directive suppresses diagnostics from the named analyzer on the line
// it occupies and on the line that follows it (so it can sit on the
// offending line or immediately above it). When written as the doc comment
// of a function declaration it suppresses the whole function. The reason
// after " -- " is mandatory: an allow without a reason is itself reported
// by the analyzer it names, so every suppression in the tree documents why
// the invariant does not apply.
package directive

import (
	"go/ast"
	"go/token"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// Prefix is the comment prefix that introduces a trajlint directive.
const Prefix = "//trajlint:allow"

// Index records, for one analysis pass, where a given analyzer's
// diagnostics are suppressed.
type Index struct {
	name  string
	lines map[string]map[int]bool // filename -> suppressed lines
	spans []span                  // whole-declaration suppressions
	bad   []analysis.Diagnostic   // malformed directives naming this analyzer
}

type span struct{ lo, hi token.Pos }

// NewIndex scans every file in the pass for directives naming analyzer
// name and returns the resulting suppression index.
func NewIndex(pass *analysis.Pass, name string) *Index {
	ix := &Index{name: name, lines: make(map[string]map[int]bool)}
	for _, f := range pass.Files {
		docs := make(map[*ast.CommentGroup]ast.Node)
		ast.Inspect(f, func(n ast.Node) bool {
			switch d := n.(type) {
			case *ast.FuncDecl:
				if d.Doc != nil {
					docs[d.Doc] = d
				}
			case *ast.GenDecl:
				if d.Doc != nil {
					docs[d.Doc] = d
				}
			}
			return true
		})
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				target, ok := parse(c.Text)
				if !ok {
					continue
				}
				switch target {
				case ix.name:
					if decl, isDoc := docs[cg]; isDoc {
						ix.spans = append(ix.spans, span{decl.Pos(), decl.End()})
						continue
					}
					pos := pass.Fset.Position(c.Pos())
					m := ix.lines[pos.Filename]
					if m == nil {
						m = make(map[int]bool)
						ix.lines[pos.Filename] = m
					}
					m[pos.Line] = true
					m[pos.Line+1] = true
				case "":
					// Malformed: no analyzer name or no " -- reason". Report it
					// from every analyzer whose name appears in the raw text, or
					// from all if none does, so at least one analyzer flags it.
					if strings.Contains(c.Text, ix.name) || !namesAnyAnalyzer(c.Text) {
						ix.bad = append(ix.bad, analysis.Diagnostic{
							Pos: c.Pos(),
							Message: "malformed trajlint directive: want " +
								"`//trajlint:allow <analyzer> -- <reason>`",
						})
					}
				}
			}
		}
	}
	return ix
}

// knownAnalyzers lets a malformed directive that still names an analyzer be
// reported exactly once (by that analyzer) instead of by all eight. Keep in
// sync with cmd/trajlint and tools/ci/check-waivers.sh.
var knownAnalyzers = []string{
	"nilguard", "determinism", "floatcmp", "closepair", "ctxfirst",
	"lockdiscipline", "goleak", "sendbound",
}

func namesAnyAnalyzer(text string) bool {
	for _, a := range knownAnalyzers {
		if strings.Contains(text, a) {
			return true
		}
	}
	return false
}

// parse returns the analyzer a well-formed directive names, or ok=false if
// the comment is not a trajlint directive at all. A comment that starts
// with Prefix but lacks a name or a " -- reason" yields ("", true).
func parse(text string) (target string, ok bool) {
	if !strings.HasPrefix(text, Prefix) {
		return "", false
	}
	rest := strings.TrimPrefix(text, Prefix)
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return "", false // e.g. //trajlint:allowed — not ours
	}
	name, reason, found := strings.Cut(rest, " -- ")
	name = strings.TrimSpace(name)
	if !found || name == "" || strings.TrimSpace(reason) == "" {
		return "", true
	}
	return name, true
}

// Allowed reports whether a diagnostic at pos is suppressed.
func (ix *Index) Allowed(pass *analysis.Pass, pos token.Pos) bool {
	for _, s := range ix.spans {
		if s.lo <= pos && pos < s.hi {
			return true
		}
	}
	p := pass.Fset.Position(pos)
	return ix.lines[p.Filename][p.Line]
}

// Report emits diag unless it is suppressed; it also flushes any malformed
// directives found during indexing the first time it is called.
func (ix *Index) Report(pass *analysis.Pass, diag analysis.Diagnostic) {
	ix.FlushBad(pass)
	if ix.Allowed(pass, diag.Pos) {
		return
	}
	pass.Report(diag)
}

// FlushBad reports malformed directives (at most once per index).
func (ix *Index) FlushBad(pass *analysis.Pass) {
	for _, d := range ix.bad {
		pass.Report(d)
	}
	ix.bad = nil
}

// MatchPkg reports whether the package path matches any pattern in the
// comma-separated list: an exact match, or a "/"-separated suffix (so
// "internal/core" matches "trajpattern/internal/core").
func MatchPkg(pkgPath, patterns string) bool {
	for _, pat := range strings.Split(patterns, ",") {
		pat = strings.TrimSpace(pat)
		if pat == "" {
			continue
		}
		if pkgPath == pat || strings.HasSuffix(pkgPath, "/"+pat) {
			return true
		}
	}
	return false
}

// InTestFile reports whether pos lies in a _test.go file. The suite skips
// test files: tests legitimately read clocks, seed the global RNG and
// compare floats produced by fixed inputs.
func InTestFile(pass *analysis.Pass, pos token.Pos) bool {
	return strings.HasSuffix(pass.Fset.Position(pos).Filename, "_test.go")
}
