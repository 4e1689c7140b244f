// Package analysis is booterscope's bespoke static-analysis suite (the
// engine behind cmd/bsvet). The repository's headline guarantees —
// byte-identical parallel vs. serial golden results, exact chaos-ledger
// accounting, replay-equals-live archive analysis — rest on invariants
// the compiler does not check: simulation code must never read the wall
// clock or the global math/rand source, pooled pipe.Batch slabs have
// linear ownership, and stats-bearing packages must register their
// accounting with the telemetry registry. This package verifies those
// invariants mechanically, the same treatment the paper gives its
// measurements.
//
// The suite is stdlib-only (go/parser + go/types, with dependency
// export data located via `go list -export`), so go.mod stays free of
// module dependencies. Six analyzers ship today: determinism,
// batchownership, telemetry, lockdiscipline, goroutinelifecycle, and
// the whole-program deadcode — see their files for the exact rules, and
// DESIGN.md §10/§15 for the catalogue. Per-record allocation budgets
// are not a static rule: each package measures its own with
// testing.AllocsPerRun in a TestHotPathAllocs table.
//
// # Allow directives
//
// A finding that flags legitimately wall-clock (or otherwise exempt)
// code is suppressed with a directive comment carrying the rule name
// and a mandatory reason:
//
//	t := time.Now() //bsvet:allow determinism telemetry timestamps are wall-clock by design
//
// The directive covers its own source line and the line immediately
// below it, so it can trail the flagged expression or sit on its own
// line directly above. A directive naming an unknown rule, or carrying
// no reason, is itself a diagnostic.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"time"
)

// Diagnostic is one finding, positioned for the standard vet output
// format (file:line:col: message) so editors can jump to it.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

// String formats the diagnostic in vet form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
}

// Analyzer checks one type-checked package and reports findings.
// Check is never called on a package that failed to load or
// type-check; the driver reports those as errors instead.
type Analyzer interface {
	// Name is the rule name used in diagnostics and allow directives.
	Name() string
	// Check returns the analyzer's findings for pkg, unsuppressed;
	// the suite applies allow directives afterwards.
	Check(pkg *Pkg) []Diagnostic
}

// programAnalyzer is an Analyzer whose findings in one package depend
// on every loaded package. Suite.Run hands it the whole load before
// any Check.
type programAnalyzer interface {
	Analyzer
	// prepare sees every loaded package; whole reports that they are
	// the entire main module.
	prepare(pkgs []*Pkg, whole bool)
}

// scopedAnalyzer is an Analyzer configured with package import paths.
type scopedAnalyzer interface {
	Analyzer
	// scope lists every import path its configuration names.
	scope() []string
}

// Suite runs a set of analyzers over loaded packages and applies the
// allow directives.
type Suite struct {
	Analyzers []Analyzer

	// timings accumulates per-analyzer wall time across Run calls, in
	// Analyzers order; the driver reports it in the run summary.
	timings []Timing
}

// Timing is one analyzer's share of a suite run.
type Timing struct {
	Rule     string
	Elapsed  time.Duration
	Findings int
}

// NewSuite builds a suite over the given analyzers.
func NewSuite(as ...Analyzer) *Suite { return &Suite{Analyzers: as} }

// rules returns the set of valid rule names for directive validation.
func (s *Suite) rules() map[string]bool {
	m := make(map[string]bool, len(s.Analyzers))
	for _, a := range s.Analyzers {
		m[a.Name()] = true
	}
	return m
}

// Run checks every loaded package and returns the surviving
// diagnostics sorted by position. Packages that failed to type-check
// contribute their load errors as diagnostics under the "typecheck"
// rule rather than being analyzed (a broken package must produce a
// clear error, not a panic). Malformed directives surface under the
// "directive" rule.
func (s *Suite) Run(pkgs []*Pkg) []Diagnostic {
	rules := s.rules()
	if s.timings == nil {
		s.timings = make([]Timing, len(s.Analyzers))
		for i, a := range s.Analyzers {
			s.timings[i].Rule = a.Name()
		}
	}
	var out []Diagnostic
	// The go list call behind wholeModule is paid only by suites with a
	// whole-program rule or a package-scoped configuration to check.
	whole := false
	for _, a := range s.Analyzers {
		_, program := a.(programAnalyzer)
		sa, scoped := a.(scopedAnalyzer)
		if program || scoped && len(sa.scope()) > 0 {
			whole = wholeModule(pkgs)
			break
		}
	}
	for i, a := range s.Analyzers {
		if pa, ok := a.(programAnalyzer); ok {
			start := time.Now()
			pa.prepare(pkgs, whole)
			s.timings[i].Elapsed += time.Since(start)
		}
	}
	if whole {
		out = append(out, staleScopes(pkgs, s.Analyzers)...)
	}
	for _, pkg := range pkgs {
		if len(pkg.Errs) > 0 {
			out = append(out, pkg.Errs...)
			continue
		}
		dirs, derrs := collectDirectives(pkg, rules)
		out = append(out, derrs...)
		for i, a := range s.Analyzers {
			start := time.Now()
			for _, d := range a.Check(pkg) {
				if !dirs.allows(d) {
					out = append(out, d)
					s.timings[i].Findings++
				}
			}
			s.timings[i].Elapsed += time.Since(start)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return out[i].Rule < out[j].Rule
	})
	return out
}

// staleScopes reports every import path an analyzer's configuration
// names that the loaded module does not contain — a deleted or renamed
// package whose entry would otherwise linger, silently checking
// nothing. The diagnostic sits on the string literal that spells the
// path, when a loaded file has one, so it points at the line to
// delete; otherwise on the first package's directory.
func staleScopes(pkgs []*Pkg, analyzers []Analyzer) []Diagnostic {
	have := make(map[string]bool, len(pkgs))
	for _, p := range pkgs {
		have[p.Path] = true
	}
	var out []Diagnostic
	for _, a := range analyzers {
		sa, ok := a.(scopedAnalyzer)
		if !ok {
			continue
		}
		seen := make(map[string]bool)
		for _, path := range sa.scope() {
			if have[path] || seen[path] {
				continue
			}
			seen[path] = true
			out = append(out, Diagnostic{
				Pos:     literalPosition(pkgs, path),
				Rule:    a.Name(),
				Message: fmt.Sprintf("configuration names package %q, which the module does not contain; remove the entry", path),
			})
		}
	}
	return out
}

// literalPosition finds the first string literal spelling s in the
// loaded sources, falling back to the first package's directory.
func literalPosition(pkgs []*Pkg, s string) token.Position {
	quoted := strconv.Quote(s)
	for _, p := range pkgs {
		for _, f := range p.Files {
			var found token.Pos
			ast.Inspect(f, func(n ast.Node) bool {
				if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING && lit.Value == quoted {
					found = lit.Pos()
				}
				return found == token.NoPos
			})
			if found != token.NoPos {
				return p.Fset.Position(found)
			}
		}
	}
	return token.Position{Filename: pkgs[0].Dir}
}

// Timings reports the per-analyzer wall time and surviving-finding
// count accumulated over every Run call so far, in Analyzers order.
func (s *Suite) Timings() []Timing {
	out := make([]Timing, len(s.timings))
	copy(out, s.timings)
	return out
}

// diag builds a Diagnostic at pos within pkg.
func diag(pkg *Pkg, pos token.Pos, rule, format string, args ...any) Diagnostic {
	return Diagnostic{
		Pos:     pkg.Fset.Position(pos),
		Rule:    rule,
		Message: fmt.Sprintf(format, args...),
	}
}

// funcFor resolves the *types.Func a call expression dispatches to, or
// nil when the callee is not a declared function or method (a builtin,
// a func-typed variable, a conversion).
func funcFor(pkg *Pkg, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := pkg.Info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := pkg.Info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// pkgPathOf reports the import path of the package a function belongs
// to ("" for builtins and method sets of unnamed types).
func pkgPathOf(f *types.Func) string {
	if f == nil || f.Pkg() == nil {
		return ""
	}
	return f.Pkg().Path()
}
