package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Deadcode reports package-level code that no non-test code uses. It
// is whole-program: a package's findings depend on every other loaded
// package, so it reports only when the load is the entire main module
// (Suite.Run decides) and nothing on a partial load, where a missing
// caller would read as dead code.
//
// Three rules, all over the loader's non-test sources:
//
//  1. An exported package-level identifier, or an exported method of an
//     exported type, in an internal/ package that no code outside its
//     package uses: "unexport it" when its own package uses it,
//     "delete it" when nothing does.
//  2. An unexported package-level func, type, var or const, or any
//     method of an unexported type or unexported method, that nothing
//     uses: "delete it".
//  3. An internal/ package no package imports: reported once, at its
//     package clause, instead of identifier by identifier.
//
// Every package of the module counts as a caller — cmd/, examples/ and
// bench/ included. A use inside the object's own declaration (a
// recursive call, a method's receiver naming its type) does not count,
// and a type counts as used wherever a value of it appears, not only
// where it is named. A method is exempt when some loaded interface,
// standard library included, declares a method of its name: it may be
// called through that interface. Iota constants are exempt (deleting
// one renumbers its neighbours), as are init, main and blank names.
//
// Importers see objects from export data, not the source-checked ones,
// so objects are matched by (package path, receiver type, name).
type Deadcode struct {
	// findings holds prepare's results by package path.
	findings map[string][]Diagnostic
}

// NewDeadcode builds the analyzer.
func NewDeadcode() *Deadcode { return &Deadcode{} }

// Name implements Analyzer.
func (*Deadcode) Name() string { return "deadcode" }

// Check implements Analyzer: it returns what prepare found in pkg.
func (d *Deadcode) Check(pkg *Pkg) []Diagnostic { return d.findings[pkg.Path] }

// objKey names a package-level object or method across the source and
// export-data views of its package.
type objKey struct {
	pkg, recv, name string
}

// keyOf returns the key of a package-level object or of a method of a
// named type; ok is false for locals, fields, interface methods and
// objects outside any package.
func keyOf(obj types.Object) (k objKey, ok bool) {
	if obj == nil || obj.Pkg() == nil {
		return objKey{}, false
	}
	switch o := obj.(type) {
	case *types.Func:
		o = o.Origin()
		recv := o.Type().(*types.Signature).Recv()
		if recv == nil {
			return objKey{pkg: o.Pkg().Path(), name: o.Name()}, o.Parent() == o.Pkg().Scope()
		}
		named := namedOf(recv.Type())
		if named == nil {
			return objKey{}, false
		}
		return objKey{pkg: o.Pkg().Path(), recv: named.Obj().Name(), name: o.Name()}, true
	case *types.TypeName:
		if named, isNamed := o.Type().(*types.Named); isNamed {
			obj = named.Origin().Obj()
		}
	case *types.Var, *types.Const:
	default:
		return objKey{}, false
	}
	return objKey{pkg: obj.Pkg().Path(), name: obj.Name()}, obj.Pkg().Scope().Lookup(obj.Name()) == obj
}

// namedOf returns the named type behind t, through one pointer; nil
// when there is none.
func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := types.Unalias(t).(*types.Named); ok {
		return n.Origin()
	}
	return nil
}

// candidate is one declaration the rules judge.
type candidate struct {
	key  objKey
	pkg  *Pkg
	pos  token.Pos
	iota bool
	// own are the source ranges of the declaration itself; uses inside
	// them do not count.
	own []ast.Node
}

// label renders the candidate as its package's importers spell it.
func (c *candidate) label() string {
	if c.key.recv != "" {
		return c.pkg.Name + "." + c.key.recv + "." + c.key.name
	}
	return c.pkg.Name + "." + c.key.name
}

// usage records where a key is used: by its own package, by another.
type usage struct {
	inside, outside bool
}

// prepare implements programAnalyzer.
func (d *Deadcode) prepare(pkgs []*Pkg, whole bool) {
	d.findings = nil
	if !whole {
		return
	}
	cands := make(map[objKey]*candidate)
	var order []*candidate
	for _, pkg := range pkgs {
		if pkg.Info == nil {
			continue
		}
		for _, c := range declarations(pkg) {
			cands[c.key] = c
			order = append(order, c)
		}
	}

	used := make(map[objKey]usage)
	mark := func(from *Pkg, obj types.Object, at token.Pos) {
		k, ok := keyOf(obj)
		c := cands[k]
		if !ok || c == nil || c.pkg == from && within(c.own, at) {
			return
		}
		u := used[k]
		if c.pkg == from {
			u.inside = true
		} else {
			u.outside = true
		}
		used[k] = u
	}
	for _, pkg := range pkgs {
		if pkg.Info == nil {
			continue
		}
		for id, obj := range pkg.Info.Uses {
			mark(pkg, obj, id.Pos())
		}
		for expr, tv := range pkg.Info.Types {
			for _, n := range valueTypes(tv.Type) {
				mark(pkg, n.Obj(), expr.Pos())
			}
		}
	}

	imported := make(map[string]bool)
	for _, pkg := range pkgs {
		if pkg.Types != nil {
			for _, imp := range pkg.Types.Imports() {
				imported[imp.Path()] = true
			}
		}
	}
	d.findings = make(map[string][]Diagnostic)
	deadPkg := make(map[string]bool)
	for _, pkg := range pkgs {
		if pkg.Info != nil && internalPath(pkg.Path) && !imported[pkg.Path] {
			deadPkg[pkg.Path] = true
			d.findings[pkg.Path] = []Diagnostic{diag(pkg, pkg.Files[0].Name.Pos(), d.Name(),
				"package %s is imported by no non-test code; delete it (with its tests)", pkg.Path)}
		}
	}
	ifaces := interfaceMethods(pkgs)
	for _, c := range order {
		if c.iota || deadPkg[c.key.pkg] || c.key.recv != "" && ifaces[c.key.name] {
			continue
		}
		u := used[c.key]
		exported := token.IsExported(c.key.name) && (c.key.recv == "" || token.IsExported(c.key.recv))
		var msg string
		switch {
		case exported && !internalPath(c.key.pkg):
			continue // exported outside internal/: an API the rule does not judge
		case exported && u.outside:
			continue
		case exported && u.inside:
			msg = "%s is exported but only its own package uses it; unexport it"
		case u.inside || u.outside:
			continue
		default:
			msg = "%s is used by no non-test code; delete it (with the tests that exercise only it)"
		}
		d.findings[c.pkg.Path] = append(d.findings[c.pkg.Path], diag(c.pkg, c.pos, d.Name(), msg, c.label()))
	}
}

// internalPath reports whether an import path lies under an internal/
// directory.
func internalPath(path string) bool {
	return strings.Contains(path, "/internal/") || strings.HasSuffix(path, "/internal")
}

// within reports whether pos lies inside one of the nodes.
func within(nodes []ast.Node, pos token.Pos) bool {
	for _, n := range nodes {
		if n.Pos() <= pos && pos < n.End() {
			return true
		}
	}
	return false
}

// declarations lists pkg's package-level funcs, types, vars and consts
// and the methods of its named types, each with the source ranges of
// its own declaration.
func declarations(pkg *Pkg) []*candidate {
	var out []*candidate
	byType := make(map[string]*candidate)
	add := func(key objKey, pos token.Pos, own ast.Node) *candidate {
		c := &candidate{key: key, pkg: pkg, pos: pos, own: []ast.Node{own}}
		out = append(out, c)
		return c
	}
	var methods []*ast.FuncDecl
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv != nil {
					methods = append(methods, decl)
					continue
				}
				name := decl.Name.Name
				if name == "_" || name == "init" || (name == "main" && pkg.Name == "main") {
					continue
				}
				add(objKey{pkg: pkg.Path, name: name}, decl.Name.Pos(), decl)
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						if spec.Name.Name != "_" {
							byType[spec.Name.Name] = add(objKey{pkg: pkg.Path, name: spec.Name.Name}, spec.Name.Pos(), spec)
						}
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							if id.Name == "_" {
								continue
							}
							c := add(objKey{pkg: pkg.Path, name: id.Name}, id.Pos(), spec)
							c.iota = decl.Tok == token.CONST && usesIota(decl, spec)
						}
					}
				}
			}
		}
	}
	for _, fd := range methods {
		fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
		if fn == nil || fd.Name.Name == "_" {
			continue
		}
		k, ok := keyOf(fn)
		if !ok {
			continue
		}
		add(k, fd.Name.Pos(), fd)
		if t := byType[k.recv]; t != nil {
			t.own = append(t.own, fd)
		}
	}
	return out
}

// usesIota reports whether spec's value comes from iota, written or
// implied by an earlier spec of the same const block.
func usesIota(decl *ast.GenDecl, spec *ast.ValueSpec) bool {
	var last []ast.Expr
	for _, s := range decl.Specs {
		vs := s.(*ast.ValueSpec)
		if len(vs.Values) > 0 {
			last = vs.Values
		}
		if vs == spec {
			break
		}
	}
	found := false
	for _, e := range last {
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Name == "iota" {
				found = true
			}
			return !found
		})
	}
	return found
}

// valueTypes returns the named types a value of type t carries at its
// top level: t itself, or the element, key and value types of a
// pointer, slice, array, map or channel of them.
func valueTypes(t types.Type) []*types.Named {
	var out []*types.Named
	for t != nil {
		switch u := types.Unalias(t).(type) {
		case *types.Named:
			return append(out, u.Origin())
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		case *types.Chan:
			t = u.Elem()
		case *types.Map:
			out = append(out, valueTypes(u.Key())...)
			t = u.Elem()
		case *types.Signature:
			for _, tuple := range []*types.Tuple{u.Params(), u.Results()} {
				for i := 0; i < tuple.Len(); i++ {
					out = append(out, valueTypes(tuple.At(i).Type())...)
				}
			}
			return out
		default:
			return out
		}
	}
	return out
}

// interfaceMethods collects the method names every interface in reach
// declares: named interfaces in the scope of each loaded package and of
// everything it imports (the standard library included), plus every
// interface type the loaded sources mention, local and literal ones
// included.
func interfaceMethods(pkgs []*Pkg) map[string]bool {
	names := map[string]bool{"Error": true}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				names[it.Method(i).Name()] = true
			}
		}
	}
	seen := make(map[*types.Package]bool)
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, n := range scope.Names() {
			if tn, ok := scope.Lookup(n).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, pkg := range pkgs {
		if pkg.Info == nil {
			continue
		}
		walk(pkg.Types)
		for _, tv := range pkg.Info.Types {
			if tv.Type != nil {
				addIface(tv.Type)
			}
		}
	}
	return names
}
