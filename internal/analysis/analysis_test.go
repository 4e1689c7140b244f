package analysis

import (
	"bufio"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// wantMarkerRE recognizes an expectation comment: `// want "…"` with
// an optional signed line offset (`// want:-1 "…"`). Requiring the
// quote keeps prose that merely mentions want comments from parsing as
// one.
var wantMarkerRE = regexp.MustCompile(`// want(?::([+-]?\d+))? (?:")`)

// wantRE matches one expectation inside a `// want` comment: a Go
// double-quoted string holding a regexp the diagnostic message must
// match.
var wantRE = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)

// expectation is one `// want` entry: a message pattern anchored to a
// file and line.
type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// parseWants scans every .go file in dir for `// want` comments. The
// plain form anchors to its own line; `// want:-1 "…"` (any signed
// offset) anchors relative to the comment's line — needed where a
// trailing comment would be swallowed by another directive's text.
func parseWants(t *testing.T, dir string) []*expectation {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []*expectation
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			text := sc.Text()
			m := wantMarkerRE.FindStringSubmatchIndex(text)
			if m == nil {
				continue
			}
			offset := 0
			if m[2] >= 0 {
				n, err := strconv.Atoi(text[m[2]:m[3]])
				if err != nil {
					t.Fatalf("%s:%d: bad want offset %q", path, line, text[m[2]:m[3]])
				}
				offset = n
			}
			// m[1] sits just past the opening quote; back up one so the
			// first quoted pattern is matched whole.
			quoted := wantRE.FindAllString(text[m[1]-1:], -1)
			if len(quoted) == 0 {
				t.Fatalf("%s:%d: // want comment with no quoted pattern", path, line)
			}
			for _, q := range quoted {
				s, err := strconv.Unquote(q)
				if err != nil {
					t.Fatalf("%s:%d: bad want string %s: %v", path, line, q, err)
				}
				re, err := regexp.Compile(s)
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", path, line, s, err)
				}
				wants = append(wants, &expectation{file: path, line: line + offset, pattern: re})
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	return wants
}

// loadTestdata loads one testdata package through the real loader.
func loadTestdata(t *testing.T, name string) *Pkg {
	t.Helper()
	pkgs, err := NewLoader().Load("", "./testdata/"+name)
	if err != nil {
		t.Fatalf("loading testdata/%s: %v", name, err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loading testdata/%s: got %d packages, want 1", name, len(pkgs))
	}
	return pkgs[0]
}

// runGolden checks a suite's findings for one testdata package against
// its `// want` expectations: every expectation must be hit at its
// exact file:line, and no unexpected diagnostic may appear.
func runGolden(t *testing.T, suite *Suite, name string) {
	t.Helper()
	pkg := loadTestdata(t, name)
	if len(pkg.Errs) > 0 {
		t.Fatalf("testdata/%s failed to load: %v", name, pkg.Errs[0])
	}
	checkGolden(t, suite, []*Pkg{pkg})
}

// runGoldenModule is runGolden for a testdata directory holding a
// module of its own, loaded whole — the only load on which the
// whole-program rules report.
func runGoldenModule(t *testing.T, suite *Suite, name string) {
	t.Helper()
	pkgs, err := NewLoader().Load(filepath.Join("testdata", name), "./...")
	if err != nil {
		t.Fatalf("loading testdata/%s: %v", name, err)
	}
	for _, pkg := range pkgs {
		if len(pkg.Errs) > 0 {
			t.Fatalf("testdata/%s failed to load: %v", name, pkg.Errs[0])
		}
	}
	checkGolden(t, suite, pkgs)
}

// checkGolden matches a suite run over pkgs against the `// want`
// expectations in their directories.
func checkGolden(t *testing.T, suite *Suite, pkgs []*Pkg) {
	t.Helper()
	var wants []*expectation
	for _, pkg := range pkgs {
		wants = append(wants, parseWants(t, pkg.Dir)...)
	}
	for _, d := range suite.Run(pkgs) {
		matched := false
		for _, w := range wants {
			if w.matched || w.line != d.Pos.Line || w.file != d.Pos.Filename {
				continue
			}
			if w.pattern.MatchString(d.Message) {
				w.matched, matched = true, true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.pattern)
		}
	}
}

// testdataPath returns the module import path of a testdata package.
func testdataPath(name string) string {
	return "booterscope/internal/analysis/testdata/" + name
}

func TestDeterminismGolden(t *testing.T) {
	suite := NewSuite(NewDeterminism(testdataPath("determ")))
	runGolden(t, suite, "determ")
}

func TestBatchOwnershipGolden(t *testing.T) {
	suite := NewSuite(NewBatchOwnership())
	runGolden(t, suite, "batchown")
}

func TestTelemetryGolden(t *testing.T) {
	suite := NewSuite(NewTelemetry(TelemetryConfig{}))
	runGolden(t, suite, "telem")
}

func TestTelemetryRequiredGolden(t *testing.T) {
	suite := NewSuite(NewTelemetry(TelemetryConfig{
		RequiredPaths: []string{testdataPath("telemreq")},
		RequiredMetrics: map[string][]string{
			testdataPath("telemreq"): {"telemreq_required_total"},
		},
	}))
	runGolden(t, suite, "telemreq")
}

// TestTelemetryRequiredPartialGolden covers the partial-coverage case:
// the package defines RegisterTelemetry and registers some of its
// required metric set, but one name never reaches the registry as a
// string literal. This is the shape the federation contract in
// cmd/bsvet guards — a metric dropped in a refactor while the package
// as a whole still "has telemetry".
func TestTelemetryRequiredPartialGolden(t *testing.T) {
	suite := NewSuite(NewTelemetry(TelemetryConfig{
		RequiredPaths: []string{testdataPath("fedtelem")},
		RequiredMetrics: map[string][]string{
			testdataPath("fedtelem"): {
				"fedtelem_scans_total",
				"fedtelem_disagreements_total",
			},
		},
	}))
	runGolden(t, suite, "fedtelem")
}

func TestEventlogGolden(t *testing.T) {
	suite := NewSuite(NewTelemetry(TelemetryConfig{}))
	runGolden(t, suite, "evlog")
}

func TestEventlogRegistrationGolden(t *testing.T) {
	suite := NewSuite(NewTelemetry(TelemetryConfig{}))
	runGolden(t, suite, "evlognoreg")
}

func TestLockDisciplineGolden(t *testing.T) {
	suite := NewSuite(NewLockDiscipline())
	runGolden(t, suite, "lockdisc")
}

func TestGoroutineLifecycleGolden(t *testing.T) {
	suite := NewSuite(NewGoroutineLifecycle())
	runGolden(t, suite, "golife")
}

// TestGoroutineLifecycleScoped pins the package scoping: the same
// seeded violations stay silent when the analyzer is configured for a
// different package list, the way cmd/bsvet scopes it to the
// long-running packages.
func TestGoroutineLifecycleScoped(t *testing.T) {
	pkg := loadTestdata(t, "golife")
	suite := NewSuite(NewGoroutineLifecycle("booterscope/internal/service"))
	if diags := suite.Run([]*Pkg{pkg}); len(diags) != 0 {
		t.Errorf("out-of-scope package produced %d diagnostics, want 0: %v", len(diags), diags[0])
	}
}

func TestDeadcodeGolden(t *testing.T) {
	runGoldenModule(t, NewSuite(NewDeadcode()), "deadcode")
}

// TestDeadcodeSilentOnPartialLoad pins the whole-program guard: a load
// that is not the whole module reports nothing, because a caller
// outside the load would read as dead code — not for this repository's
// stats package, and not for the golden's own dead code.
func TestDeadcodeSilentOnPartialLoad(t *testing.T) {
	stats, err := NewLoader().Load("", "../../internal/stats")
	if err != nil {
		t.Fatal(err)
	}
	lib, err := NewLoader().Load(filepath.Join("testdata", "deadcode"), "./internal/lib")
	if err != nil {
		t.Fatal(err)
	}
	for _, pkgs := range [][]*Pkg{stats, lib} {
		for _, d := range NewSuite(NewDeadcode()).Run(pkgs) {
			if d.Rule == "deadcode" {
				t.Errorf("partial load of %s reported: %s", pkgs[0].Path, d)
			}
		}
	}
}

// TestDeadcodeInjectedUnused is the end-to-end driver contract: an
// exported function nothing calls, written into a generated module, is
// reported at its line.
func TestDeadcodeInjectedUnused(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module inject\n\ngo 1.24\n",
		"main.go": `package main

import "inject/internal/gen"

func main() { gen.Used() }
`,
		"internal/gen/gen.go": `// Package gen is generated by TestDeadcodeInjectedUnused.
package gen

// Used is called by main.
func Used() {}

// Injected is the unused function the rule must find.
func Injected() {}
`,
	}
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pkgs, err := NewLoader().Load(dir, "./...")
	if err != nil {
		t.Fatal(err)
	}
	diags := NewSuite(NewDeadcode()).Run(pkgs)
	if len(diags) != 1 {
		t.Fatalf("injected unused function produced %d diagnostics, want 1: %v", len(diags), diags)
	}
	d := diags[0]
	if !strings.HasSuffix(d.Pos.Filename, "gen.go") || d.Pos.Line != 8 {
		t.Errorf("diagnostic not positioned at the injected function (gen.go:8): %s", d)
	}
	if d.Rule != "deadcode" || !strings.Contains(d.Message, "gen.Injected is used by no non-test code") {
		t.Errorf("diagnostic does not name the injected function: %s", d)
	}
}

// TestStaleScopeGolden pins the configuration check: on a whole-module
// load, a package path an analyzer is configured with but the module
// does not contain is reported, once per analyzer, at the string
// literal that spells it.
func TestStaleScopeGolden(t *testing.T) {
	gone := "staleconf/internal/gone"
	runGoldenModule(t, NewSuite(
		NewDeterminism("staleconf/cmd/vet", gone),
		NewGoroutineLifecycle(gone),
	), "staleconf")
}

// TestZeroPackagesIsError pins the satellite fix: a wildcard pattern
// matching no packages at all (go list exits 0 with empty output for
// those) is a hard load error, not an empty — and trivially passing —
// analysis run. A nonexistent path stays loud through the other
// channel: go list -e reports it as an error pseudo-package, which the
// driver surfaces as a typecheck diagnostic.
func TestZeroPackagesIsError(t *testing.T) {
	dir := filepath.Join("testdata", "nogofiles")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	if err := os.WriteFile(filepath.Join(dir, "README"), []byte("no Go files here\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := NewLoader().Load("", "./"+dir+"/...")
	if err == nil {
		t.Fatal("zero-match pattern loaded without error")
	}
	if !strings.Contains(err.Error(), "matched no packages") {
		t.Errorf("zero-match error does not say so: %v", err)
	}

	pkgs, err := NewLoader().Load("", "./testdata/nonexistent/...")
	if err != nil {
		return // also acceptable: the harder failure
	}
	if len(pkgs) != 1 || len(pkgs[0].Errs) == 0 {
		t.Errorf("nonexistent pattern produced neither an error nor an error package: %v", pkgs)
	}
}

// TestLoaderCachesPackages pins the load cache: a second Load of the
// same pattern returns the identical *Pkg, not a re-parse.
func TestLoaderCachesPackages(t *testing.T) {
	l := NewLoader()
	a, err := l.Load("", "./testdata/determ")
	if err != nil {
		t.Fatal(err)
	}
	b, err := l.Load("", "./testdata/determ")
	if err != nil {
		t.Fatal(err)
	}
	if a[0] != b[0] {
		t.Error("second Load returned a different *Pkg: loader did not cache")
	}
}

// TestSuiteTimings pins the per-analyzer timing summary: one entry per
// analyzer, in suite order, with the surviving-finding counts.
func TestSuiteTimings(t *testing.T) {
	pkg := loadTestdata(t, "golife")
	suite := NewSuite(NewLockDiscipline(), NewGoroutineLifecycle())
	diags := suite.Run([]*Pkg{pkg})
	timings := suite.Timings()
	if len(timings) != 2 {
		t.Fatalf("got %d timings, want 2", len(timings))
	}
	if timings[0].Rule != "lockdiscipline" || timings[1].Rule != "goroutinelifecycle" {
		t.Errorf("timings out of suite order: %v", timings)
	}
	found := 0
	for _, d := range diags {
		if d.Rule == "goroutinelifecycle" {
			found++
		}
	}
	if timings[1].Findings != found {
		t.Errorf("goroutinelifecycle timing recorded %d findings, diagnostics show %d", timings[1].Findings, found)
	}
}

func TestDirectiveErrorsGolden(t *testing.T) {
	// The determinism analyzer is in the suite so the unsuppressed
	// findings below the broken directives are exercised too.
	suite := NewSuite(NewDeterminism(testdataPath("dirbad")))
	runGolden(t, suite, "dirbad")
}

// TestBrokenPackageReportsError pins the driver contract for a package
// that fails to type-check: a positioned "typecheck" diagnostic, no
// panic, and no analyzer findings from the broken syntax tree.
func TestBrokenPackageReportsError(t *testing.T) {
	pkg := loadTestdata(t, "broken")
	if len(pkg.Errs) == 0 {
		t.Fatal("broken package loaded without errors")
	}
	suite := NewSuite(NewDeterminism(), NewBatchOwnership(), NewTelemetry(TelemetryConfig{}))
	diags := suite.Run([]*Pkg{pkg})
	if len(diags) == 0 {
		t.Fatal("broken package produced no diagnostics")
	}
	for _, d := range diags {
		if d.Rule != "typecheck" {
			t.Errorf("broken package produced a %q diagnostic, want only typecheck: %s", d.Rule, d)
		}
	}
	first := diags[0]
	if !strings.HasSuffix(first.Pos.Filename, "broken.go") || first.Pos.Line == 0 {
		t.Errorf("typecheck diagnostic not positioned in broken.go: %s", first)
	}
	if !strings.Contains(first.Message, "cannot use") {
		t.Errorf("typecheck diagnostic does not carry the compiler message: %s", first)
	}
}

// TestCleanTreeStaysClean runs the full production suite configuration
// over a package known to be clean, as a smoke test that the loader
// handles real dependency graphs (telemetry, pipe, flow) end to end.
func TestCleanTreeStaysClean(t *testing.T) {
	pkgs, err := NewLoader().Load("", "../../internal/stats")
	if err != nil {
		t.Fatal(err)
	}
	suite := NewSuite(
		NewDeterminism("booterscope/internal/stats"),
		NewBatchOwnership(),
		NewTelemetry(TelemetryConfig{}),
		NewDeadcode(),
	)
	if diags := suite.Run(pkgs); len(diags) != 0 {
		for _, d := range diags {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
}

// TestDiagnosticFormat pins the vet output format editors parse.
func TestDiagnosticFormat(t *testing.T) {
	d := Diagnostic{
		Pos:     token.Position{Filename: "x.go", Line: 3, Column: 7},
		Rule:    "determinism",
		Message: "boom",
	}
	if got, want := d.String(), "x.go:3:7: determinism: boom"; got != want {
		t.Errorf("Diagnostic.String() = %q, want %q", got, want)
	}
}
