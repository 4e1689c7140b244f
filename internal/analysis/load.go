package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/scanner"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Pkg is one loaded, type-checked package: the unit an Analyzer sees.
type Pkg struct {
	// Path is the import path; Name the package name.
	Path string
	Name string
	// Dir is the package directory on disk.
	Dir string
	// Module is the path of the main module the package belongs to,
	// "" for a package outside it.
	Module string
	// Fset positions every file in Files.
	Fset *token.FileSet
	// Files are the parsed non-test source files, with comments.
	Files []*ast.File
	// Types and Info carry the go/types results. Nil when Errs is
	// non-empty.
	Types *types.Package
	Info  *types.Info
	// Errs holds load, parse, or type-check failures as diagnostics
	// under the "typecheck" rule. A package with errors is reported,
	// never analyzed.
	Errs []Diagnostic
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Standard   bool
	Export     string
	DepOnly    bool
	Module     *struct {
		Path string
		Main bool
	}
	Error *struct {
		Pos string
		Err string
	}
}

// maxTypeErrs bounds how many type errors are reported per package —
// enough to locate the breakage without drowning the run.
const maxTypeErrs = 10

// Loader lists, parses, and type-checks packages, caching everything it
// resolves: one `go list -deps -export -json` per distinct pattern set,
// one shared FileSet and dependency importer, and one type-check per
// target package for the loader's lifetime. A multi-analyzer run (and a
// test binary loading a dozen testdata packages) pays the toolchain
// resolution once instead of once per invocation.
//
// A Loader is not safe for concurrent use.
type Loader struct {
	fset    *token.FileSet
	exports map[string]string
	imp     types.Importer
	pkgs    map[string]*Pkg
}

// NewLoader returns an empty loader.
func NewLoader() *Loader {
	l := &Loader{
		fset:    token.NewFileSet(),
		exports: make(map[string]string),
		pkgs:    make(map[string]*Pkg),
	}
	lookup := func(path string) (io.ReadCloser, error) {
		e, ok := l.exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(e)
	}
	// One importer for the loader's lifetime: loaded dependencies are
	// cached across target packages and across Load calls.
	l.imp = importer.ForCompiler(l.fset, "gc", lookup)
	return l
}

// Load lists the packages matching patterns (in dir, "" for the
// current directory), parses their non-test sources, and type-checks
// them against dependency export data produced by the go toolchain.
// It is the stdlib-only equivalent of an x/tools packages.Load: the
// `go list -deps -export` invocation compiles dependencies into the
// build cache and reports where their export data lives, so each
// target package can be checked from source with full type
// information and zero module dependencies.
//
// A package that fails to list, parse, or type-check is returned with
// Errs populated rather than aborting the whole run: bsvet must
// degrade to a clear file:line error, not a panic, when the tree is
// broken. A pattern set that matches no packages at all is a hard
// error — a typo in `make analyze` must fail CI, not silently analyze
// nothing.
//
// Packages already resolved by this loader are returned from cache
// without re-parsing or re-checking.
func (l *Loader) Load(dir string, patterns ...string) ([]*Pkg, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-deps", "-export", "-e", "-json=ImportPath,Name,Dir,GoFiles,Standard,Export,DepOnly,Module,Error"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	var targets []*listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		if p.Export != "" {
			l.exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly {
			q := p
			targets = append(targets, &q)
		}
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("go list %s: matched no packages (a typoed pattern would silently analyze nothing)", strings.Join(patterns, " "))
	}

	var pkgs []*Pkg
	for _, t := range targets {
		if cached, ok := l.pkgs[t.ImportPath]; ok {
			pkgs = append(pkgs, cached)
			continue
		}
		p := loadOne(l.fset, l.imp, t)
		l.pkgs[t.ImportPath] = p
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// loadOne parses and type-checks a single listed package.
func loadOne(fset *token.FileSet, imp types.Importer, t *listPkg) *Pkg {
	pkg := &Pkg{Path: t.ImportPath, Name: t.Name, Dir: t.Dir, Fset: fset}
	if t.Module != nil && t.Module.Main {
		pkg.Module = t.Module.Path
	}
	if t.Error != nil && len(t.GoFiles) == 0 {
		// Nothing to parse (pattern matched no package, build
		// constraints excluded everything, …): surface go list's error.
		// When GoFiles exist, fall through — type-checking from source
		// below produces better-positioned errors than the toolchain's
		// package-level report.
		pkg.Errs = append(pkg.Errs, Diagnostic{
			Pos:     token.Position{Filename: t.Dir},
			Rule:    "typecheck",
			Message: fmt.Sprintf("package %s: %s", t.ImportPath, strings.TrimSpace(t.Error.Err)),
		})
		return pkg
	}
	for _, f := range t.GoFiles {
		path := filepath.Join(t.Dir, f)
		af, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			pkg.Errs = append(pkg.Errs, parseErrDiag(path, err))
			continue
		}
		pkg.Files = append(pkg.Files, af)
	}
	if len(pkg.Errs) > 0 || len(pkg.Files) == 0 {
		if len(pkg.Errs) == 0 {
			pkg.Errs = append(pkg.Errs, Diagnostic{
				Pos:     token.Position{Filename: t.Dir},
				Rule:    "typecheck",
				Message: fmt.Sprintf("package %s has no Go files", t.ImportPath),
			})
		}
		return pkg
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	var terrs []Diagnostic
	conf := types.Config{
		Importer: imp,
		Error: func(err error) {
			te, ok := err.(types.Error)
			if !ok {
				terrs = append(terrs, Diagnostic{Rule: "typecheck", Message: err.Error()})
				return
			}
			if te.Soft {
				return
			}
			terrs = append(terrs, Diagnostic{
				Pos:     te.Fset.Position(te.Pos),
				Rule:    "typecheck",
				Message: te.Msg,
			})
		},
	}
	tpkg, err := conf.Check(t.ImportPath, fset, pkg.Files, info)
	if len(terrs) > 0 {
		if len(terrs) > maxTypeErrs {
			terrs = terrs[:maxTypeErrs]
			terrs = append(terrs, Diagnostic{
				Pos:     token.Position{Filename: t.Dir},
				Rule:    "typecheck",
				Message: fmt.Sprintf("package %s: additional type errors suppressed", t.ImportPath),
			})
		}
		pkg.Errs = terrs
		return pkg
	}
	if err != nil {
		// No collected errors but Check failed (e.g. importer trouble).
		pkg.Errs = append(pkg.Errs, Diagnostic{
			Pos:     token.Position{Filename: t.Dir},
			Rule:    "typecheck",
			Message: fmt.Sprintf("package %s: %v", t.ImportPath, err),
		})
		return pkg
	}
	pkg.Types = tpkg
	pkg.Info = info
	return pkg
}

// wholeModule reports whether pkgs are every package of one main
// module, asking the go toolchain which packages that module holds.
// Whole-program rules (deadcode, stale configuration) report only then:
// on a partial load a missing caller would read as dead code.
func wholeModule(pkgs []*Pkg) bool {
	if len(pkgs) == 0 || pkgs[0].Module == "" {
		return false
	}
	mod := pkgs[0].Module
	have := make(map[string]bool, len(pkgs))
	for _, p := range pkgs {
		if p.Module != mod {
			return false
		}
		have[p.Path] = true
	}
	cmd := exec.Command("go", "list", "-e", "-f", "{{.ImportPath}}", mod+"/...")
	cmd.Dir = pkgs[0].Dir
	out, err := cmd.Output()
	if err != nil {
		return false
	}
	for _, path := range strings.Fields(string(out)) {
		if !have[path] {
			return false
		}
	}
	return true
}

// parseErrDiag converts a parser error (possibly a scanner.ErrorList)
// into a positioned diagnostic.
func parseErrDiag(path string, err error) Diagnostic {
	if list, ok := err.(scanner.ErrorList); ok && len(list) > 0 {
		return Diagnostic{
			Pos:     list[0].Pos,
			Rule:    "typecheck",
			Message: list[0].Msg,
		}
	}
	return Diagnostic{
		Pos:     token.Position{Filename: path, Line: 1, Column: 1},
		Rule:    "typecheck",
		Message: err.Error(),
	}
}
