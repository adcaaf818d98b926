// Package lockdiscipline enforces the repo's mutex discipline in the
// concurrent packages, on every control-flow path rather than only the
// schedules the race detector happens to see:
//
//  1. Release on all paths: every sync.Mutex/RWMutex Lock or RLock must
//     reach a matching Unlock/RUnlock on every path out of the function.
//     A `defer mu.Unlock()` satisfies all later exits, including panic
//     unwinds — which is why the diagnostic suggests it; a manual unlock
//     satisfies only the paths that execute it.
//
//  2. No self-deadlock: acquiring a lock while the same lock expression
//     is already held on that path is reported. This includes
//     RLock-after-RLock — a reader re-entering its own read lock
//     deadlocks the moment a writer queues between the two acquisitions.
//
// Lock copies are go vet's copylocks check, which CI runs.
//
// The analysis is intraprocedural and tracks locks only when the locked
// expression is a chain of identifiers and field selections ("mu",
// "a.mu", "s.state.mu") rooted at a resolvable object; locks reached
// through calls, map/slice indexing or interface values are not tracked.
// Suppress an intentional hand-off (a function that returns holding the
// lock) with `//trajlint:allow lockdiscipline -- reason`.
package lockdiscipline

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

const doc = `check lock release on all paths and self-deadlock

Every Lock/RLock must reach its Unlock/RUnlock on every exit path (defer
covers panic unwinds), and re-acquiring a held lock self-deadlocks.`

const name = "lockdiscipline"

var Analyzer = &analysis.Analyzer{
	Name:     name,
	Doc:      doc,
	Requires: []*analysis.Analyzer{inspect.Analyzer, ctrlflow.Analyzer},
	Run:      run,
}

var pkgs string

func init() {
	Analyzer.Flags.StringVar(&pkgs, "pkgs",
		"trajpattern/internal/obs,trajpattern/internal/obs/slogx,trajpattern/internal/trace,"+
			"trajpattern/internal/serve,trajpattern/internal/serve/guard,trajpattern/internal/serve/chaos,"+
			"trajpattern/internal/core/shard,"+
			"trajpattern/internal/cli,trajpattern/internal/ingest,trajpattern/internal/ingest/chaos",
		"comma-separated package paths (or /-suffixes) held to the lock discipline")
}

func run(pass *analysis.Pass) (any, error) {
	ix := directive.NewIndex(pass, name)
	defer ix.FlushBad(pass)
	if !directive.MatchPkg(pass.Pkg.Path(), pkgs) {
		return nil, nil
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	cfgs := pass.ResultOf[ctrlflow.Analyzer].(*ctrlflow.CFGs)

	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil), (*ast.FuncLit)(nil)}, func(n ast.Node) {
		var body *ast.BlockStmt
		var g *cfg.CFG
		switch d := n.(type) {
		case *ast.FuncDecl:
			if d.Body == nil {
				return
			}
			body, g = d.Body, cfgs.FuncDecl(d)
		case *ast.FuncLit:
			body, g = d.Body, cfgs.FuncLit(d)
		}
		if g != nil {
			checkPaths(pass, ix, g, body)
		}
	})
	return nil, nil
}

// --- lock-event extraction -------------------------------------------------

type lockOp int

const (
	opLock lockOp = iota
	opRLock
	opUnlock
	opRUnlock
)

// lockEvent is one Lock/Unlock-family call found in a CFG node.
type lockEvent struct {
	op       lockOp
	key      string // canonical lock expression, e.g. "a.mu"
	pos      token.Pos
	deferred bool
}

// lockCall interprets call as a mutex operation on a trackable lock
// expression, returning its event. ok is false for non-mutex calls and
// for locks the analysis cannot name.
func lockCall(pass *analysis.Pass, call *ast.CallExpr) (lockEvent, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockEvent{}, false
	}
	var op lockOp
	switch sel.Sel.Name {
	case "Lock":
		op = opLock
	case "RLock":
		op = opRLock
	case "Unlock":
		op = opUnlock
	case "RUnlock":
		op = opRUnlock
	default:
		return lockEvent{}, false
	}
	tv, ok := pass.TypesInfo.Types[sel.X]
	if !ok || !isMutexType(tv.Type) {
		return lockEvent{}, false
	}
	key, ok := exprKey(pass, sel.X)
	if !ok {
		return lockEvent{}, false
	}
	return lockEvent{op: op, key: key, pos: call.Pos()}, true
}

// isMutexType reports whether t (or *t) is sync.Mutex or sync.RWMutex.
func isMutexType(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// exprKey canonicalizes a chain of identifiers and field selections into a
// stable key rooted at the base identifier's object identity (so shadowed
// variables get distinct keys).
func exprKey(pass *analysis.Pass, e ast.Expr) (string, bool) {
	var parts []string
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			obj := pass.TypesInfo.Uses[x]
			if obj == nil {
				obj = pass.TypesInfo.Defs[x]
			}
			if obj == nil {
				return "", false
			}
			parts = append(parts, fmt.Sprintf("%p/%s", obj, x.Name))
			for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
				parts[i], parts[j] = parts[j], parts[i]
			}
			return strings.Join(parts, "."), true
		case *ast.SelectorExpr:
			parts = append(parts, x.Sel.Name)
			e = x.X
		default:
			return "", false
		}
	}
}

// nodeEvents extracts the lock events of one CFG node in source order.
// Function literals inside the node are skipped: their bodies have their
// own CFGs and are analyzed separately.
func nodeEvents(pass *analysis.Pass, n ast.Node) []lockEvent {
	var evs []lockEvent
	var walk func(n ast.Node, deferred bool)
	walk = func(n ast.Node, deferred bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch c := m.(type) {
			case *ast.FuncLit:
				return false
			case *ast.DeferStmt:
				if m == n {
					return true
				}
				walk(c.Call, true)
				return false
			case *ast.CallExpr:
				if ev, ok := lockCall(pass, c); ok {
					ev.deferred = deferred
					evs = append(evs, ev)
				}
			}
			return true
		})
	}
	if d, ok := n.(*ast.DeferStmt); ok {
		walk(d.Call, true)
		return evs
	}
	walk(n, false)
	return evs
}

// --- path analysis ---------------------------------------------------------

// held is the per-path lock state: which keys are held, at which Lock
// site, and which keys a reached defer will release at every later exit.
type held struct {
	locks    map[string]lockEvent
	deferred map[string]bool
}

func (h held) clone() held {
	c := held{locks: make(map[string]lockEvent, len(h.locks)), deferred: make(map[string]bool, len(h.deferred))}
	for k, v := range h.locks {
		c.locks[k] = v
	}
	for k := range h.deferred {
		c.deferred[k] = true
	}
	return c
}

// sig is a canonical signature of the state for the visited-set.
func (h held) sig() string {
	keys := make([]string, 0, len(h.locks)+len(h.deferred))
	for k := range h.locks {
		keys = append(keys, "L"+k)
	}
	for k := range h.deferred {
		keys = append(keys, "D"+k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return strings.Join(keys, "|")
}

// checkPaths walks the CFG tracking the lock state along every path and
// reports locks that escape through a return and re-acquisitions of held
// locks. Reports are deduplicated per site.
func checkPaths(pass *analysis.Pass, ix *directive.Index, g *cfg.CFG, body *ast.BlockStmt) {
	if len(g.Blocks) == 0 {
		return
	}
	reported := make(map[token.Pos]bool)
	report := func(pos token.Pos, msg string) {
		if reported[pos] {
			return
		}
		reported[pos] = true
		ix.Report(pass, analysis.Diagnostic{Pos: pos, Message: msg})
	}

	type state struct {
		b *cfg.Block
		h held
	}
	type visitKey struct {
		b   *cfg.Block
		sig string
	}
	seen := make(map[visitKey]bool)
	start := state{g.Blocks[0], held{locks: map[string]lockEvent{}, deferred: map[string]bool{}}}
	stack := []state{start}
	steps := 0
	for len(stack) > 0 {
		if steps++; steps > 50000 {
			return // pathological CFG: stay silent rather than slow
		}
		st := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		h := st.h.clone()
		for _, n := range st.b.Nodes {
			for _, ev := range nodeEvents(pass, n) {
				switch ev.op {
				case opLock, opRLock:
					if ev.deferred {
						continue // defer mu.Lock() is nonsense; out of scope
					}
					if prev, ok := h.locks[ev.key]; ok {
						report(ev.pos, fmt.Sprintf(
							"%s is acquired at line %d while already held (locked at line %d): this path self-deadlocks",
							keyDisplay(ev.key), pass.Fset.Position(ev.pos).Line, pass.Fset.Position(prev.pos).Line))
						continue
					}
					h.locks[ev.key] = ev
				case opUnlock, opRUnlock:
					if ev.deferred {
						h.deferred[ev.key] = true
					} else {
						delete(h.locks, ev.key)
					}
				}
			}
		}
		if ret := st.b.Return(); ret != nil {
			for k, ev := range h.locks {
				if !h.deferred[k] {
					report(ev.pos, fmt.Sprintf(
						"%s locked here is still held on the path returning at line %d; unlock it on every path (or use `defer %s.Unlock()`)",
						keyDisplay(k), pass.Fset.Position(ret.Pos()).Line, keyDisplay(k)))
				}
			}
			continue
		}
		if len(st.b.Succs) == 0 {
			// Fall-off-the-end or panic block. cfg gives the body's exit
			// block no successors and no return statement; treat it as a
			// normal exit. Pure panic blocks are exempt (defer-released
			// locks cover them; a manual unlock cannot).
			if st.b.Live && !endsInPanic(st.b) {
				for k, ev := range h.locks {
					if !h.deferred[k] {
						report(ev.pos, fmt.Sprintf(
							"%s locked here is still held when the function falls off the end; unlock it on every path (or use `defer %s.Unlock()`)",
							keyDisplay(k), keyDisplay(k)))
					}
				}
			}
			continue
		}
		for _, succ := range st.b.Succs {
			k := visitKey{succ, h.sig()}
			if seen[k] {
				continue
			}
			seen[k] = true
			stack = append(stack, state{succ, h.clone()})
		}
	}
	_ = body
}

// endsInPanic reports whether the block's last node is a call to panic.
func endsInPanic(b *cfg.Block) bool {
	if len(b.Nodes) == 0 {
		return false
	}
	found := false
	ast.Inspect(b.Nodes[len(b.Nodes)-1], func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				found = true
			}
		}
		return !found
	})
	return found
}

// keyDisplay strips the object-identity prefixes from a lock key for
// human-readable diagnostics ("a.mu").
func keyDisplay(key string) string {
	parts := strings.Split(key, ".")
	if i := strings.IndexByte(parts[0], '/'); i >= 0 {
		parts[0] = parts[0][i+1:]
	}
	return strings.Join(parts, ".")
}
