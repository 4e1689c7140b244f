package analysis

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// hotpathPrefix marks a function whose body must not allocate:
//
//	//bsvet:hotpath
//	func (b *colBlock) decodeCol(...) ...
//
// The directive takes no arguments; justified escapes go in the budget
// file, each with a reason, not on the annotation.
const hotpathPrefix = "//bsvet:hotpath"

// HotPath gates heap allocations in functions annotated
// //bsvet:hotpath against a checked-in budget. The columnar decode
// loop's 6.1M rec/s (BENCH_9.json) depends on staying allocation-free;
// benchmarks catch regressions only when someone runs and reads them,
// while this analyzer fails `make analyze` the moment a new value
// escapes.
//
// Mechanism: for each package containing hotpath annotations, run
//
//	go build -gcflags=<pkg>=-m=2 <pkg>
//
// and parse the compiler's escape-analysis diagnostics ("x escapes to
// heap", "moved to heap: x"). The Go build cache replays -m output on
// cache hits, so a clean incremental run costs one cache probe, not a
// rebuild. Every escape positioned inside an annotated function body
// must be covered by an entry in the budget file
// (analysis/hotpath_budget.json); anything uncovered is a diagnostic
// at the escape site naming the escaping value.
//
// What it sees is what the compiler positions inside the annotated
// body: the body's own escapes and those of callees inlined into it.
// It does not follow a call the compiler does not inline, so a
// non-inlined callee's allocations are not gated, and whether a
// callee's allocation counts can change with an inlining decision.
//
// A //bsvet:hotpath directive on anything other than a function or
// method declaration is itself an error — a misplaced annotation that
// silently gated nothing would defeat the point.
type HotPath struct {
	// Budget holds the known, justified escapes. Populate with
	// LoadBudget; a nil budget means every escape is a finding.
	Budget *Budget
}

// NewHotPath builds the analyzer with the given budget (nil allowed).
func NewHotPath(b *Budget) *HotPath { return &HotPath{Budget: b} }

// Name implements Analyzer.
func (*HotPath) Name() string { return "hotpath" }

// Budget is the checked-in allowance of justified heap escapes in
// hotpath functions.
type Budget struct {
	// Entries lists the allowed escapes. Each names the package, the
	// annotated function, the escaping value as the compiler prints it,
	// and why the escape is acceptable; Count bounds how many distinct
	// source positions of that value may escape (0 means 1).
	Entries []budgetEntry `json:"entries"`
}

// budgetEntry is one justified escape.
type budgetEntry struct {
	Pkg    string `json:"pkg"`
	Func   string `json:"func"`
	Value  string `json:"value"`
	Reason string `json:"reason"`
	Count  int    `json:"count,omitempty"`
}

// LoadBudget reads a budget file. A missing file is an error: the gate
// must never silently run without its allowance list.
func LoadBudget(path string) (*Budget, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("hotpath budget: %v", err)
	}
	var b Budget
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		return nil, fmt.Errorf("hotpath budget %s: %v", path, err)
	}
	for i, e := range b.Entries {
		if e.Pkg == "" || e.Func == "" || e.Value == "" || e.Reason == "" {
			return nil, fmt.Errorf("hotpath budget %s: entry %d needs pkg, func, value, and reason", path, i)
		}
	}
	return &b, nil
}

// hotFunc is one annotated function: its name and body line range.
type hotFunc struct {
	name      string // receiver-qualified: "(*colBlock).decodeCol" or "FanOut.routeRows"
	file      string // basename of the declaring file
	startLine int
	endLine   int
	pos       ast.Node
}

// escape is one compiler-reported heap escape.
type escape struct {
	file  string // basename, as matched against hotFunc.file
	line  int
	col   int
	value string
}

// Check implements Analyzer.
func (h *HotPath) Check(pkg *Pkg) []Diagnostic {
	funcs, out := h.collectHotFuncs(pkg)
	used := make(map[int]int) // budget entry index -> positions consumed
	if len(funcs) > 0 {
		escapes, err := escapesOf(pkg)
		if err != nil {
			return append(out, Diagnostic{
				Pos:     pkg.Fset.Position(funcs[0].pos.Pos()),
				Rule:    h.Name(),
				Message: fmt.Sprintf("escape analysis of %s failed: %v", pkg.Path, err),
			})
		}
		for _, esc := range escapes {
			fn := enclosing(funcs, esc)
			if fn == nil {
				continue
			}
			if h.budgeted(pkg, fn, esc, used) {
				continue
			}
			out = append(out, Diagnostic{
				Pos:  positionIn(pkg, esc),
				Rule: h.Name(),
				Message: fmt.Sprintf("%s escapes to heap inside //bsvet:hotpath function %s; keep the hot path allocation-free or add a justified entry to the hotpath budget",
					esc.value, fn.name),
			})
		}
	}
	return append(out, h.stale(pkg, funcs, used)...)
}

// stale reports this package's budget entries that covered no escape:
// an allowance left behind when its allocation moved or went away
// would silently pre-approve the next one.
func (h *HotPath) stale(pkg *Pkg, funcs []hotFunc, used map[int]int) []Diagnostic {
	if h.Budget == nil || len(pkg.Files) == 0 {
		return nil
	}
	var out []Diagnostic
	for i, entry := range h.Budget.Entries {
		if entry.Pkg != pkg.Path || used[i] > 0 {
			continue
		}
		pos := pkg.Files[0].Name.Pos()
		for _, fn := range funcs {
			if fn.name == entry.Func {
				pos = fn.pos.Pos()
				break
			}
		}
		out = append(out, diag(pkg, pos, h.Name(),
			"hotpath budget entry %s %q matches no escape in a //bsvet:hotpath function; delete or retarget it",
			entry.Func, entry.Value))
	}
	return out
}

// collectHotFuncs finds the //bsvet:hotpath-annotated declarations,
// reporting misplaced directives.
func (h *HotPath) collectHotFuncs(pkg *Pkg) ([]hotFunc, []Diagnostic) {
	var funcs []hotFunc
	var errs []Diagnostic

	// Directives attached to function declarations.
	annotated := make(map[*ast.Comment]bool)
	for _, f := range pkg.Files {
		base := filepath.Base(pkg.Fset.Position(f.Pos()).Filename)
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Doc == nil || fd.Body == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				fields, ok := directiveFields(c.Text, hotpathPrefix)
				if !ok {
					continue
				}
				annotated[c] = true
				if len(fields) != 0 {
					errs = append(errs, diag(pkg, c.Pos(), h.Name(),
						"bsvet:hotpath takes no arguments; justify escapes in the budget file instead"))
					continue
				}
				funcs = append(funcs, hotFunc{
					name:      qualifiedName(fd),
					file:      base,
					startLine: pkg.Fset.Position(fd.Body.Pos()).Line,
					endLine:   pkg.Fset.Position(fd.Body.End()).Line,
					pos:       fd,
				})
			}
		}
	}
	// Any hotpath directive not consumed above is misplaced.
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if _, ok := directiveFields(c.Text, hotpathPrefix); !ok || annotated[c] {
					continue
				}
				errs = append(errs, diag(pkg, c.Pos(), h.Name(),
					"bsvet:hotpath must be in the doc comment of a function or method declaration"))
			}
		}
	}
	return funcs, errs
}

// qualifiedName renders a declaration as the budget file names it:
// "Func" or "(*Recv).Method" / "Recv.Method".
func qualifiedName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	recv := fd.Recv.List[0].Type
	var b strings.Builder
	switch t := ast.Unparen(recv).(type) {
	case *ast.StarExpr:
		b.WriteString("(*")
		writeTypeName(&b, t.X)
		b.WriteString(")")
	default:
		writeTypeName(&b, t)
	}
	b.WriteString(".")
	b.WriteString(fd.Name.Name)
	return b.String()
}

// writeTypeName renders a receiver base type (identifier, possibly
// generic: Ident or IndexExpr/IndexListExpr over one).
func writeTypeName(b *strings.Builder, expr ast.Expr) {
	switch t := ast.Unparen(expr).(type) {
	case *ast.Ident:
		b.WriteString(t.Name)
	case *ast.IndexExpr:
		writeTypeName(b, t.X)
	case *ast.IndexListExpr:
		writeTypeName(b, t.X)
	default:
		b.WriteString("?")
	}
}

// escapesOf runs the compiler's escape analysis over pkg and parses the
// diagnostics. -m=2 output is replayed from the build cache on cache
// hits, so repeated clean runs are cheap.
func escapesOf(pkg *Pkg) ([]escape, error) {
	cmd := exec.Command("go", "build", "-gcflags="+pkg.Path+"=-m=2", pkg.Path)
	cmd.Dir = pkg.Dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go build -gcflags=-m=2: %v\n%s", err, stderr.String())
	}
	return parseEscapes(stderr.String()), nil
}

// parseEscapes extracts heap escapes from -m=2 output. The compiler
// prints two shapes:
//
//	file.go:12:9: v escapes to heap:        (with an explanation block)
//	file.go:12:9: v escapes to heap         (bare duplicate)
//	file.go:34:6: moved to heap: x
//
// Both forms for the same (position, value) are deduplicated.
func parseEscapes(out string) []escape {
	seen := make(map[escape]bool)
	var escapes []escape
	sc := bufio.NewScanner(strings.NewReader(out))
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		file, ln, col, msg, ok := splitDiag(line)
		if !ok {
			continue
		}
		var value string
		if v, found := strings.CutSuffix(msg, " escapes to heap:"); found {
			value = v
		} else if v, found := strings.CutSuffix(msg, " escapes to heap"); found {
			value = v
		} else if v, found := strings.CutPrefix(msg, "moved to heap: "); found {
			value = v
		} else {
			continue
		}
		e := escape{file: filepath.Base(file), line: ln, col: col, value: value}
		if !seen[e] {
			seen[e] = true
			escapes = append(escapes, e)
		}
	}
	sort.Slice(escapes, func(i, j int) bool {
		if escapes[i].file != escapes[j].file {
			return escapes[i].file < escapes[j].file
		}
		if escapes[i].line != escapes[j].line {
			return escapes[i].line < escapes[j].line
		}
		return escapes[i].col < escapes[j].col
	})
	return escapes
}

// splitDiag parses "path:line:col: message". The explanation lines the
// compiler indents under an escape ("flow: ...") fail the parse and
// are skipped by the caller.
func splitDiag(line string) (file string, ln, col int, msg string, ok bool) {
	rest := line
	idx := strings.Index(rest, ".go:")
	if idx < 0 {
		return "", 0, 0, "", false
	}
	file = rest[:idx+3]
	rest = rest[idx+4:]
	parts := strings.SplitN(rest, ":", 3)
	if len(parts) != 3 {
		return "", 0, 0, "", false
	}
	ln, err1 := strconv.Atoi(parts[0])
	col, err2 := strconv.Atoi(parts[1])
	if err1 != nil || err2 != nil {
		return "", 0, 0, "", false
	}
	return file, ln, col, strings.TrimSpace(parts[2]), true
}

// enclosing finds the annotated function whose body spans the escape.
func enclosing(funcs []hotFunc, e escape) *hotFunc {
	for i := range funcs {
		f := &funcs[i]
		if f.file == e.file && e.line >= f.startLine && e.line <= f.endLine {
			return f
		}
	}
	return nil
}

// budgeted reports whether the escape is covered by a budget entry,
// consuming one position of the entry's Count.
func (h *HotPath) budgeted(pkg *Pkg, fn *hotFunc, e escape, used map[int]int) bool {
	if h.Budget == nil {
		return false
	}
	for i, entry := range h.Budget.Entries {
		if entry.Pkg != pkg.Path || entry.Func != fn.name || entry.Value != e.value {
			continue
		}
		limit := entry.Count
		if limit == 0 {
			limit = 1
		}
		if used[i] < limit {
			used[i]++
			return true
		}
	}
	return false
}

// positionIn reconstructs an absolute position for an escape (the
// compiler reports paths relative to its working directory).
func positionIn(pkg *Pkg, e escape) token.Position {
	return token.Position{
		Filename: filepath.Join(pkg.Dir, e.file),
		Line:     e.line,
		Column:   e.col,
	}
}
