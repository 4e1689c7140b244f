package analysis

import (
	"go/ast"
	"go/types"
)

// GoroutineLifecycle enforces that every goroutine started in a
// long-running package has a reachable shutdown path. The daemon
// (PR 6) guarantees drain-on-SIGTERM and checkpoint-quiesce; both are
// void if any goroutine ignores the stop signal and keeps touching
// shared state. The analyzer accepts a `go` statement when the spawn
// demonstrably participates in a lifecycle protocol:
//
//   - an argument of channel or context.Context type is passed to the
//     started function (the classic done-channel / ctx handoff), or
//   - the started function's body — a func literal, or a same-package
//     declared function/method — contains a lifecycle construct: a
//     channel receive, a range over a channel, a select, a
//     (*sync.WaitGroup).Done or .Wait, or any use of a context.Context.
//
// Everything else is flagged: either the goroutine genuinely leaks
// past shutdown, or its termination is too indirect for a reader (or
// this analyzer) to see — both deserve a //bsvet:allow
// goroutinelifecycle with the reason spelled out.
//
// The rule applies only to long-running packages (the daemon and the
// layers under it); one-shot CLI and test-support code may fire and
// forget. The driver names the covered packages explicitly.
type GoroutineLifecycle struct {
	// Packages restricts the check to these import paths. Empty means
	// every package the suite runs over (used by the golden tests).
	Packages map[string]bool
}

// NewGoroutineLifecycle builds the analyzer covering the given import
// paths (all packages when none are given).
func NewGoroutineLifecycle(paths ...string) *GoroutineLifecycle {
	g := &GoroutineLifecycle{}
	if len(paths) > 0 {
		g.Packages = make(map[string]bool, len(paths))
		for _, p := range paths {
			g.Packages[p] = true
		}
	}
	return g
}

// Name implements Analyzer.
func (*GoroutineLifecycle) Name() string { return "goroutinelifecycle" }

// scope implements scopedAnalyzer.
func (g *GoroutineLifecycle) scope() []string { return sortedSet(g.Packages) }

// Check implements Analyzer.
func (g *GoroutineLifecycle) Check(pkg *Pkg) []Diagnostic {
	if g.Packages != nil && !g.Packages[pkg.Path] {
		return nil
	}
	// Index same-package function and method declarations so a
	// `go s.worker(i)` spawn can be judged by worker's body.
	decls := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
				decls[obj] = fd
			}
		}
	}

	var out []Diagnostic
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			stmt, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if g.hasLifecycle(pkg, stmt, decls) {
				return true
			}
			out = append(out, diag(pkg, stmt.Pos(), g.Name(),
				"goroutine has no visible shutdown path: pass a done channel or context, wait on it with a WaitGroup, or //bsvet:allow goroutinelifecycle <reason>"))
			return true
		})
	}
	return out
}

// hasLifecycle reports whether the spawned call participates in a
// shutdown protocol.
func (g *GoroutineLifecycle) hasLifecycle(pkg *Pkg, stmt *ast.GoStmt, decls map[*types.Func]*ast.FuncDecl) bool {
	call := stmt.Call
	// (1) A channel or context argument is a lifecycle handoff.
	for _, arg := range call.Args {
		if tv, ok := pkg.Info.Types[arg]; ok && isLifecycleType(tv.Type) {
			return true
		}
	}
	// (2) Judge the body when it is resolvable.
	var body *ast.BlockStmt
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.FuncLit:
		body = fun.Body
	default:
		if fn := funcFor(pkg, call); fn != nil {
			if fd, ok := decls[fn]; ok {
				body = fd.Body
			}
		}
	}
	if body == nil {
		return false
	}
	return bodyHasLifecycle(pkg, body)
}

// isLifecycleType reports channel types and context.Context.
func isLifecycleType(t types.Type) bool {
	if _, ok := t.Underlying().(*types.Chan); ok {
		return true
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// bodyHasLifecycle scans a function body for any shutdown construct.
func bodyHasLifecycle(pkg *Pkg, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SelectStmt:
			found = true
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				found = true
			}
		case *ast.RangeStmt:
			if tv, ok := pkg.Info.Types[n.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					found = true
				}
			}
		case *ast.CallExpr:
			if fn := funcFor(pkg, n); fn != nil {
				if pkgPathOf(fn) == "sync" && (fn.Name() == "Done" || fn.Name() == "Wait") {
					found = true
				}
			}
		case *ast.Ident:
			if obj := pkg.Info.Uses[n]; obj != nil && isLifecycleType(obj.Type()) {
				found = true
			}
		}
		return !found
	})
	return found
}
