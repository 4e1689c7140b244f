package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// telemetryPkgPath is the metrics registry package whose call sites
// this analyzer inspects.
const telemetryPkgPath = "booterscope/internal/telemetry"

// eventlogPkgPath is the flight-recorder package; Emit call sites
// follow the same component-prefixed naming contract as metrics.
const eventlogPkgPath = "booterscope/internal/telemetry/eventlog"

// maxLabelCardinality mirrors telemetry.DefaultMaxCardinality: a
// SetMaxCardinality above it defeats the registry's bounded-label
// guarantee (a scrape must never be blown up by adversarial label
// churn — DESIGN.md §6).
const maxLabelCardinality = 64

// metricNameRE mirrors the registry's runtime check, hoisted to
// compile time: component_subsystem_name_unit, lower-case snake case.
var metricNameRE = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// accessorNames are the bespoke stats accessors whose presence obliges
// a package to register the same accounting with the telemetry
// registry (the rule scripts/lint-telemetry.sh used to grep for, now
// type-aware: methods only, any receiver, zero parameters).
var accessorNames = map[string]bool{"Stats": true, "Health": true, "Ledger": true}

// registerFuncs are the registry entry points whose first argument is
// a metric name.
var registerFuncs = map[string]bool{
	"Register": true, "MustRegister": true, "Counter": true, "Gauge": true,
}

// TelemetryConfig parameterizes the Telemetry analyzer per driver.
type TelemetryConfig struct {
	// ExemptPaths are packages the registration rule skips (the
	// registry itself, packages with value-type accounting only).
	ExemptPaths []string
	// RequiredPaths must define RegisterTelemetry even without a
	// bespoke accessor — their registry wiring is load-bearing for
	// operability (flowstore, pipe).
	RequiredPaths []string
	// RequiredMetrics maps an import path to metric names that must be
	// registered as string literals somewhere in that package — the
	// observability contract the debug surface and bench harness
	// scrape by name.
	RequiredMetrics map[string][]string
	// AllowPrefixes grants an import path extra metric-name prefixes
	// beyond its package name (cmd/reproduce owns the funnel_* names).
	AllowPrefixes map[string][]string
}

// Telemetry enforces the registry contract in type-aware form:
//
//  1. Registration: a package under internal/ that defines a bespoke
//     Stats(), Health(), or Ledger() accessor method must also define
//     RegisterTelemetry (function or method), so its accounting is
//     scrapeable, not just printable. Packages in RequiredPaths must
//     define it unconditionally.
//  2. Naming: every metric name passed as a compile-time constant to
//     Register/MustRegister/Counter/Gauge must match ^[a-z][a-z0-9_]*$
//     and start with the owning component's prefix (the package name,
//     or an AllowPrefixes grant) — the
//     component_subsystem_name_unit scheme of DESIGN.md §6, checked
//     before the registry's runtime panic can fire.
//  3. Cardinality: SetMaxCardinality must be called with a constant in
//     [1, 64] — raising a vector's label cap past the registry default
//     reopens the unbounded-label memory hole the cap exists to close.
type Telemetry struct {
	cfg      TelemetryConfig
	exempt   map[string]bool
	required map[string]bool
}

// NewTelemetry builds the analyzer from cfg.
func NewTelemetry(cfg TelemetryConfig) *Telemetry {
	t := &Telemetry{cfg: cfg, exempt: map[string]bool{}, required: map[string]bool{}}
	for _, p := range cfg.ExemptPaths {
		t.exempt[p] = true
	}
	for _, p := range cfg.RequiredPaths {
		t.required[p] = true
	}
	return t
}

// Name implements Analyzer.
func (*Telemetry) Name() string { return "telemetry" }

// scope implements scopedAnalyzer: every path any part of the
// configuration names.
func (t *Telemetry) scope() []string {
	paths := append(append([]string(nil), t.cfg.ExemptPaths...), t.cfg.RequiredPaths...)
	for _, m := range []map[string][]string{t.cfg.RequiredMetrics, t.cfg.AllowPrefixes} {
		for p := range m {
			paths = append(paths, p)
		}
	}
	sort.Strings(paths)
	return paths
}

// Check implements Analyzer.
func (t *Telemetry) Check(pkg *Pkg) []Diagnostic {
	var out []Diagnostic
	out = append(out, t.checkRegistration(pkg)...)
	out = append(out, t.checkCallSites(pkg)...)
	out = append(out, t.checkRequiredMetrics(pkg)...)
	out = append(out, t.checkEventCalls(pkg)...)
	return out
}

// checkRegistration enforces rule 1.
func (t *Telemetry) checkRegistration(pkg *Pkg) []Diagnostic {
	if t.exempt[pkg.Path] {
		return nil
	}
	inScope := t.required[pkg.Path] || strings.Contains(pkg.Path, "/internal/")
	if !inScope {
		return nil
	}
	var accessorPos []ast.Node
	var accessor string
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fd.Recv != nil && accessorNames[fd.Name.Name] &&
				(fd.Type.Params == nil || fd.Type.Params.NumFields() == 0) {
				accessorPos = append(accessorPos, fd.Name)
				if accessor == "" {
					accessor = fd.Name.Name
				}
			}
		}
	}
	if hasRegisterTelemetry(pkg) {
		return nil
	}
	if t.required[pkg.Path] {
		pos := pkg.Files[0].Name.Pos()
		return []Diagnostic{diag(pkg, pos, t.Name(),
			"package %s must define RegisterTelemetry: its registry wiring is load-bearing for operability (see DESIGN.md §6)", pkg.Path)}
	}
	if len(accessorPos) > 0 {
		return []Diagnostic{diag(pkg, accessorPos[0].Pos(), t.Name(),
			"package %s defines a %s() accessor but no RegisterTelemetry; bespoke stats structs must be views over registry metrics (DESIGN.md §6)", pkg.Path, accessor)}
	}
	return nil
}

// hasRegisterTelemetry reports whether the package declares a
// RegisterTelemetry function or method — or registerTelemetry, when
// only the package's own constructor wires it (the deadcode rule
// unexports what no other package calls).
func hasRegisterTelemetry(pkg *Pkg) bool {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && (fd.Name.Name == "RegisterTelemetry" || fd.Name.Name == "registerTelemetry") {
				return true
			}
		}
	}
	return false
}

// checkCallSites enforces rules 2 and 3 at every registry call.
func (t *Telemetry) checkCallSites(pkg *Pkg) []Diagnostic {
	if t.exempt[pkg.Path] {
		return nil
	}
	var out []Diagnostic
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := funcFor(pkg, call)
			if fn == nil || pkgPathOf(fn) != telemetryPkgPath {
				return true
			}
			switch {
			case registerFuncs[fn.Name()] && isRegistryMethod(fn):
				out = append(out, t.checkMetricName(pkg, call)...)
			case fn.Name() == "SetMaxCardinality":
				out = append(out, t.checkCardinality(pkg, call)...)
			}
			return true
		})
	}
	return out
}

// isRegistryMethod reports whether fn is a method on
// *telemetry.Registry (Counter/Gauge/… exist as constructors too, but
// only the registry methods take a metric name).
func isRegistryMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	tname := sig.Recv().Type()
	if p, ok := tname.(*types.Pointer); ok {
		tname = p.Elem()
	}
	named, ok := tname.(*types.Named)
	return ok && named.Obj().Name() == "Registry"
}

// checkMetricName validates a constant metric name's shape and prefix.
func (t *Telemetry) checkMetricName(pkg *Pkg, call *ast.CallExpr) []Diagnostic {
	if len(call.Args) == 0 {
		return nil
	}
	arg := call.Args[0]
	tv, ok := pkg.Info.Types[arg]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		// Dynamic names (the span tracer builds them per stage) are
		// checked by the registry at runtime instead.
		return nil
	}
	name := constant.StringVal(tv.Value)
	if !metricNameRE.MatchString(name) {
		return []Diagnostic{diag(pkg, arg.Pos(), t.Name(),
			"metric name %q does not match component_subsystem_name_unit (%s)", name, metricNameRE)}
	}
	prefixes := t.allowedPrefixes(pkg)
	for _, p := range prefixes {
		if strings.HasPrefix(name, p+"_") {
			return nil
		}
	}
	return []Diagnostic{diag(pkg, arg.Pos(), t.Name(),
		"metric name %q must start with the owning component prefix (expected one of: %s_)", name, strings.Join(prefixes, "_, "))}
}

// allowedPrefixes computes the metric-name prefixes pkg may register:
// the package name (the import path's base directory for main
// packages) plus any AllowPrefixes grants.
func (t *Telemetry) allowedPrefixes(pkg *Pkg) []string {
	base := pkg.Name
	if base == "main" {
		base = pathBase(pkg.Path)
	}
	out := []string{base}
	out = append(out, t.cfg.AllowPrefixes[pkg.Path]...)
	return out
}

// checkCardinality validates SetMaxCardinality's constant argument.
func (t *Telemetry) checkCardinality(pkg *Pkg, call *ast.CallExpr) []Diagnostic {
	if len(call.Args) != 1 {
		return nil
	}
	tv, ok := pkg.Info.Types[call.Args[0]]
	if !ok || tv.Value == nil {
		return []Diagnostic{diag(pkg, call.Args[0].Pos(), t.Name(),
			"SetMaxCardinality argument must be a compile-time constant in [1, %d] so the label bound is auditable", maxLabelCardinality)}
	}
	n, ok := constant.Int64Val(constant.ToInt(tv.Value))
	if !ok || n < 1 || n > maxLabelCardinality {
		return []Diagnostic{diag(pkg, call.Args[0].Pos(), t.Name(),
			"SetMaxCardinality(%s) is outside [1, %d]; raising a vector's label cap past the registry default reopens unbounded label growth", tv.Value, maxLabelCardinality)}
	}
	return nil
}

// checkRequiredMetrics enforces the per-package must-register metric
// names (the pipe_* contract the bench harness scrapes).
func (t *Telemetry) checkRequiredMetrics(pkg *Pkg) []Diagnostic {
	want := t.cfg.RequiredMetrics[pkg.Path]
	if len(want) == 0 {
		return nil
	}
	seen := map[string]bool{}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok {
				return true
			}
			if tv, ok := pkg.Info.Types[lit]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
				seen[constant.StringVal(tv.Value)] = true
			}
			return true
		})
	}
	var out []Diagnostic
	for _, name := range want {
		if !seen[name] {
			out = append(out, diag(pkg, pkg.Files[0].Name.Pos(), t.Name(),
				"package %s must register metric %q: the debug surface and bench harness scrape it by name", pkg.Path, name))
		}
	}
	return out
}

// checkEventCalls extends the naming contract to the flight recorder:
// every constant event kind passed to (*eventlog.Log).Emit must be
// component-prefixed snake_case (the component argument is the
// prefix), the component must be one the package owns, and a package
// that emits events must also define RegisterTelemetry — the ring's
// occupancy and per-component emit counters are part of the same
// scrape surface as its metrics.
func (t *Telemetry) checkEventCalls(pkg *Pkg) []Diagnostic {
	if t.exempt[pkg.Path] || pkg.Path == eventlogPkgPath {
		return nil
	}
	var out []Diagnostic
	emits := false
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := funcFor(pkg, call)
			if fn == nil || pkgPathOf(fn) != eventlogPkgPath ||
				fn.Name() != "Emit" || !isLogMethod(fn) {
				return true
			}
			emits = true
			out = append(out, t.checkEventKind(pkg, call)...)
			return true
		})
	}
	if emits && !hasRegisterTelemetry(pkg) {
		out = append(out, diag(pkg, pkg.Files[0].Name.Pos(), t.Name(),
			"package %s emits flight-recorder events but defines no RegisterTelemetry; event emission is part of the same scrape surface as metrics (DESIGN.md §12)", pkg.Path))
	}
	return out
}

// isLogMethod reports whether fn is a method on *eventlog.Log.
func isLogMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	tname := sig.Recv().Type()
	if p, ok := tname.(*types.Pointer); ok {
		tname = p.Elem()
	}
	named, ok := tname.(*types.Named)
	return ok && named.Obj().Name() == "Log"
}

// checkEventKind validates one Emit call's constant component and kind
// arguments (dynamic values are left to runtime conventions, exactly
// like dynamic metric names).
func (t *Telemetry) checkEventKind(pkg *Pkg, call *ast.CallExpr) []Diagnostic {
	if len(call.Args) < 2 {
		return nil
	}
	var out []Diagnostic
	component, haveComponent := constString(pkg, call.Args[0])
	if haveComponent {
		allowed := false
		for _, p := range t.allowedPrefixes(pkg) {
			if component == p {
				allowed = true
				break
			}
		}
		if !allowed {
			out = append(out, diag(pkg, call.Args[0].Pos(), t.Name(),
				"event component %q is not owned by package %s (expected one of: %s)",
				component, pkg.Path, strings.Join(t.allowedPrefixes(pkg), ", ")))
		}
	}
	kind, haveKind := constString(pkg, call.Args[1])
	if !haveKind {
		return out
	}
	if !metricNameRE.MatchString(kind) {
		return append(out, diag(pkg, call.Args[1].Pos(), t.Name(),
			"event kind %q does not match component-prefixed snake_case (%s)", kind, metricNameRE))
	}
	if haveComponent && !strings.HasPrefix(kind, component+"_") {
		out = append(out, diag(pkg, call.Args[1].Pos(), t.Name(),
			"event kind %q must start with its component prefix %q", kind, component+"_"))
	}
	return out
}

// constString resolves an expression to its compile-time string value.
func constString(pkg *Pkg, e ast.Expr) (string, bool) {
	tv, ok := pkg.Info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}
