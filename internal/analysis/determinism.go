package analysis

import (
	"go/ast"
	"go/types"
)

// Determinism flags wall-clock and global-randomness reads, plus map
// iteration that feeds output, in packages whose results must be
// reproducible. The golden tests (TestParallelismGolden, the replay
// suite, the reproduce harness) pin byte-identical output across runs
// and parallelism levels — an unseeded rand or a stray time.Now in a
// simulation path is a bug against those tests, not a style nit.
//
// Three checks:
//
//  1. The wall-clock functions of package time — Now, Since, Until,
//     and the timer family (Sleep, After, Tick, NewTimer, NewTicker,
//     AfterFunc) — whether called or referenced (an exporter storing
//     time.Sleep as its backoff waiter is still wall-clock code).
//     Simulation time must come from the simulated clock, never the
//     host's.
//  2. Top-level math/rand and math/rand/v2 functions that draw from
//     the process-global source (rand.Intn, rand.Float64, rand.Shuffle,
//     …), called or referenced. Constructors over explicit seeds
//     (rand.New, rand.NewSource, rand.NewPCG, rand.NewChaCha8,
//     rand.NewZipf) are deterministic and stay legal.
//  3. `for … range m` over a map whose body writes directly to an
//     output sink (fmt printing, io/bufio/bytes/strings writers, json
//     or csv encoders): Go randomizes map iteration order, so such a
//     loop serializes in a different order every run. Collect the keys,
//     sort, then emit.
//
// Legitimately wall-clock code (telemetry latency observations, the
// debug server, exporter backoff jitter) carries a
// //bsvet:allow determinism <reason> directive instead.
type Determinism struct {
	// paths are the import paths the analyzer applies to; a nil map
	// applies to every package.
	paths map[string]bool
}

// NewDeterminism builds the analyzer restricted to the given import
// paths (all packages when none are given).
func NewDeterminism(paths ...string) *Determinism {
	d := &Determinism{}
	if len(paths) > 0 {
		d.paths = make(map[string]bool, len(paths))
		for _, p := range paths {
			d.paths[p] = true
		}
	}
	return d
}

// Name implements Analyzer.
func (*Determinism) Name() string { return "determinism" }

// scope implements scopedAnalyzer.
func (d *Determinism) scope() []string { return sortedSet(d.paths) }

// clockFuncs are the time-package functions that read, or wait on,
// the host clock.
var clockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"Sleep": true, "After": true, "Tick": true,
	"NewTimer": true, "NewTicker": true, "AfterFunc": true,
}

// seededRandFuncs are the math/rand constructors that operate on an
// explicit source or seed and are therefore deterministic.
var seededRandFuncs = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// Check implements Analyzer.
func (d *Determinism) Check(pkg *Pkg) []Diagnostic {
	if d.paths != nil && !d.paths[pkg.Path] {
		return nil
	}
	var out []Diagnostic
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if dg, ok := d.checkIdent(pkg, n); ok {
					out = append(out, dg)
				}
			case *ast.RangeStmt:
				out = append(out, d.checkMapRange(pkg, n)...)
			}
			return true
		})
	}
	return out
}

// checkIdent flags any use — call or reference — of a wall-clock or
// global-randomness function. Catching references too matters: code
// that stores time.Sleep as an injectable waiter is still wall-clock
// code on its production path.
func (d *Determinism) checkIdent(pkg *Pkg, id *ast.Ident) (Diagnostic, bool) {
	fn, ok := pkg.Info.Uses[id].(*types.Func)
	if !ok {
		return Diagnostic{}, false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() != nil {
		// Methods (rand.Rand.Intn, time.Time.Sub) carry their own
		// state or operate on values already obtained — fine.
		return Diagnostic{}, false
	}
	switch pkgPathOf(fn) {
	case "time":
		if clockFuncs[fn.Name()] {
			return diag(pkg, id.Pos(), d.Name(),
				"time.%s depends on the host wall clock in a deterministic package; derive time from the simulated clock or annotate with //bsvet:allow determinism <reason>", fn.Name()), true
		}
	case "math/rand", "math/rand/v2":
		if !seededRandFuncs[fn.Name()] {
			return diag(pkg, id.Pos(), d.Name(),
				"%s.%s draws from the process-global random source; use a rand.New(rand.NewSource(seed)) instance threaded through the config", pathBase(pkgPathOf(fn)), fn.Name()), true
		}
	}
	return Diagnostic{}, false
}

// sinkPkgs are the packages whose write/encode methods count as output
// sinks for the map-iteration check.
var sinkPkgs = map[string]bool{
	"fmt": true, "io": true, "os": true, "bufio": true, "bytes": true,
	"strings": true, "encoding/json": true, "encoding/csv": true,
	"text/tabwriter": true,
}

// sinkMethods are the method names that emit bytes in order.
var sinkMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true,
	"WriteRune": true, "Encode": true, "Fprint": true, "Fprintf": true,
	"Fprintln": true, "Print": true, "Printf": true, "Println": true,
}

// checkMapRange flags map iteration whose body calls an output sink:
// the emission order then depends on Go's randomized map order.
func (d *Determinism) checkMapRange(pkg *Pkg, rng *ast.RangeStmt) []Diagnostic {
	tv, ok := pkg.Info.Types[rng.X]
	if !ok {
		return nil
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return nil
	}
	var out []Diagnostic
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := funcFor(pkg, call)
		if fn == nil || !sinkMethods[fn.Name()] || !sinkPkgs[pkgPathOf(fn)] {
			return true
		}
		out = append(out, diag(pkg, call.Pos(), d.Name(),
			"%s.%s inside range over map: iteration order is randomized, so the output order changes between runs; sort the keys first", pathBase(pkgPathOf(fn)), fn.Name()))
		return true
	})
	return out
}

// pathBase returns the last element of an import path.
func pathBase(p string) string {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] == '/' {
			return p[i+1:]
		}
	}
	return p
}
