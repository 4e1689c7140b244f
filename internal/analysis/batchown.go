package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// batchPkgPath is the package whose Batch type carries the linear
// ownership contract this analyzer encodes.
const batchPkgPath = "booterscope/internal/pipe"

// colBlockPkgPath is the package whose ColumnBlock type shares the
// same pooled-lifecycle contract (DESIGN.md §14): blocks are recycled
// process-wide, so a use after Release reads someone else's scan.
const colBlockPkgPath = "booterscope/internal/flowstore"

// trackedKind names a pooled type for diagnostics: "batch" for
// pipe.Batch, "column block" for flowstore.ColumnBlock, "" for
// untracked.
func trackedKind(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj() == nil || named.Obj().Pkg() == nil {
		return ""
	}
	switch {
	case named.Obj().Name() == "Batch" && named.Obj().Pkg().Path() == batchPkgPath:
		return "batch"
	case named.Obj().Name() == "ColumnBlock" && named.Obj().Pkg().Path() == colBlockPkgPath:
		return "column block"
	}
	return ""
}

// BatchOwnership flags any use of a pipe.Batch value after it has been
// handed off within the same statement block. A released batch returns
// to a sync.Pool and its backing arrays are recycled by the next
// pool Get anywhere in the process — so a use-after-hand-off is silent
// data corruption the race detector cannot reliably catch (the memory
// is still live, just owned by someone else). DESIGN.md §9 states the
// contract in prose; this analyzer makes it mechanical.
//
// A batch variable is considered consumed by:
//
//   - b.Release() — the batch returns to the pool;
//   - ch <- b — ownership transfers to the receiving goroutine;
//   - sync.Pool Put(b) — the raw form of Release;
//   - emit(b) / any call through a parameter or variable of type
//     func(*pipe.Batch) error — the pipeline's Source contract hands
//     ownership of emitted batches to the callback.
//
// Any later read of the same variable inside the same block (or a
// block nested under a later statement) is flagged. The analysis is
// per-block and flow-insensitive across branches: a consume inside an
// if-arm does not poison code after the if statement (both arms would
// have to be tracked), and `defer b.Release()` never consumes — the
// deferred call runs at function exit, after every use. Reassigning
// the variable (b = pipe.Wrap(recs)) starts a fresh ownership.
//
// flowstore.ColumnBlock shares the contract (DESIGN.md §14): the same
// use-after-Release rule applies, and additionally no function taking
// a tracked value as a parameter may store the value, its column
// struct, or a (re)slice of a column array into a field — the borrow
// ends when the call returns and the slab is recycled, so survivors
// must be copied out (see checkColumnEscapes).
type BatchOwnership struct{}

// NewBatchOwnership builds the analyzer.
func NewBatchOwnership() *BatchOwnership { return &BatchOwnership{} }

// Name implements Analyzer.
func (*BatchOwnership) Name() string { return "batchownership" }

// Check implements Analyzer.
func (b *BatchOwnership) Check(pkg *Pkg) []Diagnostic {
	var out []Diagnostic
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			}
			if body != nil {
				bo := &batchOwnChecker{pkg: pkg}
				bo.block(body, map[*types.Var]*consumeEvent{})
				bo.checkColumnEscapes(n, body)
				out = append(out, bo.diags...)
			}
			return true
		})
	}
	return out
}

// checkColumnEscapes flags field stores that alias a tracked
// parameter's column arrays past the call — the "retained column slice
// escaping a stage" bug. A stage's Process (or an emit callback)
// borrows its batch: storing b.Cols, a column slice (b.Cols.Packets),
// or a reslice of one into a struct field keeps a view into a slab the
// pool recycles right after the call returns. Element reads
// (b.Cols.Packets[i]) copy scalars and stay legal, as does anything
// passed through a call (MaterializeAppend and friends copy). Only
// parameters are tracked — methods *on* ColumnBlock manage their own
// storage, and locals are covered by the use-after-release rule.
func (c *batchOwnChecker) checkColumnEscapes(fn ast.Node, body *ast.BlockStmt) {
	params := map[*types.Var]bool{}
	var ft *ast.FuncType
	switch f := fn.(type) {
	case *ast.FuncDecl:
		ft = f.Type
	case *ast.FuncLit:
		ft = f.Type
	}
	if ft == nil || ft.Params == nil {
		return
	}
	for _, field := range ft.Params.List {
		for _, name := range field.Names {
			if v, ok := c.pkg.Info.Defs[name].(*types.Var); ok && trackedKind(v.Type()) != "" {
				params[v] = true
			}
		}
	}
	if len(params) == 0 {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		// Nested function literals get their own walk via Check.
		if _, ok := n.(*ast.FuncLit); ok && n != fn {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			if !isFieldStore(lhs) {
				continue
			}
			// Stores into a tracked value's own fields (cb.sel =
			// cb.sel[:words]) are the value managing its own storage,
			// not an escape.
			if c.aliasesColumns(lhs, params) != nil {
				continue
			}
			if v := c.aliasesColumns(as.Rhs[i], params); v != nil {
				c.diags = append(c.diags, diag(c.pkg, as.Rhs[i].Pos(), "batchownership",
					"%s %s's columns escape via field store; the slab is recycled after the call — copy the data out instead",
					trackedKind(v.Type()), v.Name()))
			}
		}
		return true
	})
}

// isFieldStore reports whether lhs writes through a field, pointer, or
// element — anywhere that outlives the enclosing call's locals.
func isFieldStore(lhs ast.Expr) bool {
	switch l := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr, *ast.StarExpr:
		return true
	case *ast.IndexExpr:
		return isFieldStore(l.X)
	}
	return false
}

// aliasesColumns reports which tracked parameter (if any) the
// expression keeps a live view into: the parameter itself, a selector
// chain off it (b.Cols, b.Cols.Packets), or a reslice of one. Index
// expressions produce scalar copies and calls produce owned values, so
// both stop the chain.
func (c *batchOwnChecker) aliasesColumns(e ast.Expr, params map[*types.Var]bool) *types.Var {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if v, ok := c.pkg.Info.Uses[e].(*types.Var); ok && params[v] {
			return v
		}
	case *ast.SelectorExpr:
		return c.aliasesColumns(e.X, params)
	case *ast.SliceExpr:
		return c.aliasesColumns(e.X, params)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return c.aliasesColumns(e.X, params)
		}
	}
	return nil
}

// consumeEvent records where and how a batch variable was consumed.
type consumeEvent struct {
	pos  token.Pos
	what string
}

type batchOwnChecker struct {
	pkg   *Pkg
	diags []Diagnostic
}

// isBatchVar resolves id to a *types.Var of a tracked pooled type
// (*pipe.Batch or *flowstore.ColumnBlock, pointer or value), else nil.
func (c *batchOwnChecker) isBatchVar(e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	v, ok := c.pkg.Info.Uses[id].(*types.Var)
	if !ok {
		if v, ok = c.pkg.Info.Defs[id].(*types.Var); !ok {
			return nil
		}
	}
	if trackedKind(v.Type()) == "" {
		return nil
	}
	return v
}

// block walks stmts in order. consumed maps batch variables to the
// hand-off that ended their ownership; the map is copied into nested
// blocks so branch-local consumes stay branch-local while outer
// consumes still poison nested uses.
func (c *batchOwnChecker) block(blk *ast.BlockStmt, consumed map[*types.Var]*consumeEvent) {
	for _, stmt := range blk.List {
		c.stmt(stmt, consumed)
	}
}

// stmt processes one statement: report uses of already-consumed
// batches, then record this statement's own consumes and resets.
func (c *batchOwnChecker) stmt(stmt ast.Stmt, consumed map[*types.Var]*consumeEvent) {
	switch s := stmt.(type) {
	case *ast.DeferStmt:
		// defer b.Release() runs at function exit; it neither uses the
		// batch now nor forbids uses below it.
		return
	case *ast.GoStmt:
		// A goroutine's schedule is unknown; treat its arguments as
		// uses at the go statement but do not track its body.
		c.reportUses(s.Call, consumed)
		return
	case *ast.BlockStmt:
		c.block(s, copyConsumed(consumed))
		return
	case *ast.IfStmt:
		if s.Init != nil {
			c.stmt(s.Init, consumed)
		}
		c.reportUses(s.Cond, consumed)
		c.block(s.Body, copyConsumed(consumed))
		if s.Else != nil {
			c.stmt(s.Else, copyConsumed(consumed))
		}
		return
	case *ast.ForStmt:
		inner := copyConsumed(consumed)
		if s.Init != nil {
			c.stmt(s.Init, inner)
		}
		if s.Cond != nil {
			c.reportUses(s.Cond, inner)
		}
		c.block(s.Body, inner)
		return
	case *ast.RangeStmt:
		c.reportUses(s.X, consumed)
		c.block(s.Body, copyConsumed(consumed))
		return
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		// Each case arm is its own branch; walk arms with copies.
		c.branchArms(stmt, consumed)
		return
	case *ast.LabeledStmt:
		c.stmt(s.Stmt, consumed)
		return
	case *ast.AssignStmt:
		// A plain `b = …` overwrites the variable — that is a fresh
		// ownership, not a read — so only the RHS and any non-ident
		// LHS (b.Recs = …, arr[i] = …) count as uses.
		for _, rhs := range s.Rhs {
			c.reportUses(rhs, consumed)
		}
		for _, lhs := range s.Lhs {
			if _, ok := ast.Unparen(lhs).(*ast.Ident); !ok {
				c.reportUses(lhs, consumed)
			}
		}
		c.recordConsumes(stmt, consumed)
		c.recordResets(stmt, consumed)
		return
	}

	// Straight-line statement: uses first, then consumes/resets.
	c.reportUses(stmt, consumed)
	c.recordConsumes(stmt, consumed)
	c.recordResets(stmt, consumed)
}

// branchArms walks the case clauses of switch/select statements.
func (c *batchOwnChecker) branchArms(stmt ast.Stmt, consumed map[*types.Var]*consumeEvent) {
	var body *ast.BlockStmt
	switch s := stmt.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			c.stmt(s.Init, consumed)
		}
		if s.Tag != nil {
			c.reportUses(s.Tag, consumed)
		}
		body = s.Body
	case *ast.TypeSwitchStmt:
		body = s.Body
	case *ast.SelectStmt:
		body = s.Body
	}
	for _, clause := range body.List {
		arm := copyConsumed(consumed)
		switch cl := clause.(type) {
		case *ast.CaseClause:
			for _, st := range cl.Body {
				c.stmt(st, arm)
			}
		case *ast.CommClause:
			if cl.Comm != nil {
				c.stmt(cl.Comm, arm)
			}
			for _, st := range cl.Body {
				c.stmt(st, arm)
			}
		}
	}
}

// reportUses flags every identifier under n that reads a consumed
// batch variable.
func (c *batchOwnChecker) reportUses(n ast.Node, consumed map[*types.Var]*consumeEvent) {
	if n == nil || len(consumed) == 0 {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		// Do not descend into function literals: they execute later
		// (or are the deferred cleanup) and track their own blocks.
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		id, ok := m.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := c.pkg.Info.Uses[id].(*types.Var)
		if !ok {
			return true
		}
		if ev, ok := consumed[v]; ok {
			c.diags = append(c.diags, diag(c.pkg, id.Pos(), "batchownership",
				"%s %s used after %s at line %d; ownership was handed off (slab may already be recycled)",
				trackedKind(v.Type()), id.Name, ev.what, c.pkg.Fset.Position(ev.pos).Line))
		}
		return true
	})
}

// recordConsumes scans one straight-line statement for hand-offs.
func (c *batchOwnChecker) recordConsumes(stmt ast.Stmt, consumed map[*types.Var]*consumeEvent) {
	ast.Inspect(stmt, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			if v := c.isBatchVar(n.Value); v != nil {
				consumed[v] = &consumeEvent{pos: n.Pos(), what: "channel send"}
			}
		case *ast.CallExpr:
			c.consumeCall(n, consumed)
		}
		return true
	})
}

// consumeCall handles the call forms that transfer batch ownership.
func (c *batchOwnChecker) consumeCall(call *ast.CallExpr, consumed map[*types.Var]*consumeEvent) {
	// b.Release() and pool.Put(b).
	if fn := funcFor(c.pkg, call); fn != nil {
		switch {
		case fn.Name() == "Release" && (pkgPathOf(fn) == batchPkgPath || pkgPathOf(fn) == colBlockPkgPath):
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				if v := c.isBatchVar(sel.X); v != nil {
					consumed[v] = &consumeEvent{pos: call.Pos(), what: "Release"}
				}
			}
			return
		case fn.Name() == "Put" && pkgPathOf(fn) == "sync":
			if len(call.Args) == 1 {
				if v := c.isBatchVar(call.Args[0]); v != nil {
					consumed[v] = &consumeEvent{pos: call.Pos(), what: "Pool.Put"}
				}
			}
			return
		}
	}
	// emit(b): a call through a func(*pipe.Batch) error value — the
	// Source contract hands ownership to the callback.
	tv, ok := c.pkg.Info.Types[call.Fun]
	if !ok {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok || sig.Recv() != nil {
		return
	}
	if funcFor(c.pkg, call) != nil {
		// Declared functions and methods keep the caller's ownership
		// (pipe.Stage.Process documents exactly that); only bare
		// func-valued calls — the emit callback pattern — consume.
		return
	}
	if sig.Params().Len() != 1 || sig.Results().Len() != 1 {
		return
	}
	if !isBatchPtr(sig.Params().At(0).Type()) || !isErrorType(sig.Results().At(0).Type()) {
		return
	}
	if len(call.Args) == 1 {
		if v := c.isBatchVar(call.Args[0]); v != nil {
			consumed[v] = &consumeEvent{pos: call.Pos(), what: "emit hand-off"}
		}
	}
}

// recordResets clears consumption for variables reassigned by stmt.
func (c *batchOwnChecker) recordResets(stmt ast.Stmt, consumed map[*types.Var]*consumeEvent) {
	as, ok := stmt.(*ast.AssignStmt)
	if !ok {
		return
	}
	for _, lhs := range as.Lhs {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			continue
		}
		var v *types.Var
		if def, ok := c.pkg.Info.Defs[id].(*types.Var); ok {
			v = def
		} else if use, ok := c.pkg.Info.Uses[id].(*types.Var); ok {
			v = use
		}
		if v != nil {
			delete(consumed, v)
		}
	}
}

// copyConsumed clones the consumed map for a nested branch.
func copyConsumed(m map[*types.Var]*consumeEvent) map[*types.Var]*consumeEvent {
	out := make(map[*types.Var]*consumeEvent, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// isBatchPtr reports whether t is *pipe.Batch.
func isBatchPtr(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := p.Elem().(*types.Named)
	if !ok || named.Obj() == nil || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Name() == "Batch" && named.Obj().Pkg().Path() == batchPkgPath
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj() != nil && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}
