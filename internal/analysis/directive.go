package analysis

import (
	"go/ast"
	"sort"
	"strconv"
	"strings"
)

// directivePrefix introduces an allow directive:
//
//	//bsvet:allow <rule> <reason...>
//
// No space after // — the Go convention for machine-readable
// directives (gofmt preserves them verbatim and they never read as
// prose documentation).
const directivePrefix = "//bsvet:allow"

// knownDirectives are the //bsvet: names the suite reads: allow here,
// guards in the lockdiscipline rule. Any other is reported — a
// misspelt or retired directive would otherwise check nothing without
// saying so.
var knownDirectives = map[string]bool{"allow": true, "guards": true}

// allowSet records, per file and line, which rules are suppressed.
type allowSet map[string]map[int]map[string]bool

// allows reports whether d is suppressed by a directive on its own
// line or on the line directly above.
func (s allowSet) allows(d Diagnostic) bool {
	lines := s[d.Pos.Filename]
	if lines == nil {
		return false
	}
	return lines[d.Pos.Line][d.Rule] || lines[d.Pos.Line-1][d.Rule]
}

// add marks rule as allowed on (file, line).
func (s allowSet) add(file string, line int, rule string) {
	lines := s[file]
	if lines == nil {
		lines = make(map[int]map[string]bool)
		s[file] = lines
	}
	rules := lines[line]
	if rules == nil {
		rules = make(map[string]bool)
		lines[line] = rules
	}
	rules[rule] = true
}

// directiveFields splits a comment into its directive fields if it
// carries the given //bsvet:<name> prefix; ok is false for other
// comments (including other directive namespaces sharing the prefix,
// e.g. //bsvet:allowx vs //bsvet:allow).
func directiveFields(text, prefix string) (fields []string, ok bool) {
	if !strings.HasPrefix(text, prefix) {
		return nil, false
	}
	rest := text[len(prefix):]
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return nil, false
	}
	return strings.Fields(rest), true
}

// collectDirectives scans every comment in pkg for allow directives.
// Well-formed directives land in the returned allowSet; a directive
// naming a rule outside rules, or missing its mandatory reason, is
// reported as a "directive" diagnostic — a suppression that silently
// did nothing would be worse than the finding it meant to hide. So is
// a //bsvet: directive of any name the suite does not read.
//
// A directive covers its own line and the line directly below it
// (trailing or immediately-above placement). Struct fields and go
// statements additionally honor directives anywhere in their attached
// comment group — a field documented by a multi-line doc comment, or a
// go statement under one, can carry the directive on any line of that
// group, not only the last.
func collectDirectives(pkg *Pkg, rules map[string]bool) (allowSet, []Diagnostic) {
	allowed := make(allowSet)
	var errs []Diagnostic
	record := func(c *ast.Comment, atLine int) {
		pos := pkg.Fset.Position(c.Pos())
		if name, ok := strings.CutPrefix(c.Text, "//bsvet:"); ok {
			if i := strings.IndexAny(name, " \t"); i >= 0 {
				name = name[:i]
			}
			if !knownDirectives[name] {
				errs = append(errs, Diagnostic{Pos: pos, Rule: "directive",
					Message: "unknown directive //bsvet:" + name + " (known: " + strings.Join(sortedSet(knownDirectives), ", ") + ")"})
				return
			}
		}
		fields, ok := directiveFields(c.Text, directivePrefix)
		if !ok {
			return
		}
		if len(fields) == 0 {
			errs = append(errs, Diagnostic{Pos: pos, Rule: "directive",
				Message: "bsvet:allow needs a rule name and a reason"})
			return
		}
		rule := fields[0]
		if !rules[rule] {
			errs = append(errs, Diagnostic{Pos: pos, Rule: "directive",
				Message: "bsvet:allow names unknown rule " + strconv.Quote(rule) + " (known: " + strings.Join(sortedSet(rules), ", ") + ")"})
			return
		}
		if len(fields) < 2 {
			errs = append(errs, Diagnostic{Pos: pos, Rule: "directive",
				Message: "bsvet:allow " + rule + " needs a reason"})
			return
		}
		allowed.add(pos.Filename, atLine, rule)
	}
	for _, f := range pkg.Files {
		// Positional pass: every directive covers its own line (and,
		// via allows, the line below).
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				record(c, pkg.Fset.Position(c.Pos()).Line)
			}
		}
		// Node pass: directives in the comment group attached to a
		// struct field or a go statement cover the node's line even
		// when the group's later lines push the directive more than one
		// line above it. Duplicate registration with the positional
		// pass is harmless (allowSet is a set), but directive errors
		// must not double-report — record only reaches errs through the
		// positional pass, so the node pass registers positions alone.
		groupEndLine := make(map[int]*ast.CommentGroup, len(f.Comments))
		for _, cg := range f.Comments {
			groupEndLine[pkg.Fset.Position(cg.End()).Line] = cg
		}
		registerGroup := func(cg *ast.CommentGroup, atLine int) {
			if cg == nil {
				return
			}
			for _, c := range cg.List {
				fields, ok := directiveFields(c.Text, directivePrefix)
				if !ok || len(fields) < 2 || !rules[fields[0]] {
					continue // malformed: positional pass reported it
				}
				allowed.add(pkg.Fset.Position(c.Pos()).Filename, atLine, fields[0])
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.StructType:
				if n.Fields == nil {
					return true
				}
				for _, field := range n.Fields.List {
					line := pkg.Fset.Position(field.Pos()).Line
					registerGroup(field.Doc, line)
					registerGroup(field.Comment, line)
				}
			case *ast.GoStmt:
				line := pkg.Fset.Position(n.Pos()).Line
				registerGroup(groupEndLine[line-1], line)
			}
			return true
		})
	}
	return allowed, errs
}

// sortedSet lists a set's members (rule names, import paths) in
// sorted order.
func sortedSet(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}
