package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// SinkCheck enforces the repo's telemetry-sink calling convention: a
// *telemetry.Sink is nil when telemetry is disabled, and its methods do NOT
// guard a nil receiver (that branch would tax every hot-path counter write),
// so every call site must be dominated by its own nil check — either an
// enclosing `if sink != nil { ... }` or an earlier `if sink == nil { return }`.
//
// The analysis is syntactic. A name is considered sink-typed when the
// package declares it with type *telemetry.Sink (struct field, parameter,
// result, or var), or assigns it from a package-local function returning
// *telemetry.Sink. A method call on such a name is flagged unless a
// dominating nil check is found by a conservative walk of the enclosing
// function (if/else refinement plus early-return guards; loops and nested
// literals inherit the facts established before them).
var SinkCheck = &Analyzer{
	Name: "sinkcheck",
	Doc:  "telemetry sinks must be nil-checked before method calls",
	Run:  runSinkCheck,
}

// sinkMethods are the write-side methods of *telemetry.Sink.
var sinkMethods = map[string]bool{
	"Inc": true, "Add": true, "Observe": true, "Set": true, "Registry": true,
}

func runSinkCheck(pass *Pass) error {
	// The defining package's own methods run on an already-checked receiver;
	// the convention binds call sites in the rest of the tree.
	if strings.HasSuffix(pass.Path, "internal/telemetry") {
		return nil
	}
	names := collectSinkNames(pass.Files)
	if len(names) == 0 {
		return nil
	}
	c := &sinkChecker{pass: pass, names: names}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Body != nil {
				c.visitStmts(fn.Body.List, map[string]bool{})
			}
		}
	}
	return nil
}

// isSinkType matches the literal type expression *telemetry.Sink.
func isSinkType(e ast.Expr) bool {
	st, ok := e.(*ast.StarExpr)
	if !ok {
		return false
	}
	sel, ok := st.X.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Sink" {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == "telemetry"
}

// collectSinkNames gathers identifiers the package declares as
// *telemetry.Sink: struct fields, function parameters and results, var
// declarations, and assignments from package-local functions whose single
// result is a sink.
func collectSinkNames(files []*ast.File) map[string]bool {
	names := map[string]bool{}
	sinkFuncs := map[string]bool{}
	addFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			if !isSinkType(f.Type) {
				continue
			}
			for _, n := range f.Names {
				if n.Name != "_" {
					names[n.Name] = true
				}
			}
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.StructType:
				addFields(n.Fields)
			case *ast.FuncType:
				addFields(n.Params)
				addFields(n.Results)
			case *ast.ValueSpec:
				if n.Type != nil && isSinkType(n.Type) {
					for _, id := range n.Names {
						if id.Name != "_" {
							names[id.Name] = true
						}
					}
				}
			case *ast.FuncDecl:
				if n.Recv == nil && n.Type.Results != nil && len(n.Type.Results.List) == 1 &&
					isSinkType(n.Type.Results.List[0].Type) {
					sinkFuncs[n.Name.Name] = true
				}
			}
			return true
		})
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Rhs) != 1 {
				return true
			}
			call, ok := as.Rhs[0].(*ast.CallExpr)
			if !ok {
				return true
			}
			fn, ok := call.Fun.(*ast.Ident)
			if !ok || !sinkFuncs[fn.Name] {
				return true
			}
			for _, lhs := range as.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
					names[id.Name] = true
				}
			}
			return true
		})
	}
	return names
}

type sinkChecker struct {
	pass  *Pass
	names map[string]bool
}

// sinkRecv reports whether e is a tracked sink expression and returns its
// textual form. The final selector component decides: `s.tel` and `tel`
// both key on "tel".
func (c *sinkChecker) sinkRecv(e ast.Expr) (string, bool) {
	s, ok := exprString(e)
	if !ok {
		return "", false
	}
	parts := strings.Split(s, ".")
	if c.names[parts[len(parts)-1]] {
		return s, true
	}
	return "", false
}

func (c *sinkChecker) checkCall(call *ast.CallExpr, nonNil map[string]bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !sinkMethods[sel.Sel.Name] {
		return
	}
	recv, ok := c.sinkRecv(sel.X)
	if !ok || nonNil[recv] {
		return
	}
	c.pass.Reportf(call.Pos(),
		"(*telemetry.Sink).%s on %q without a dominating nil check (wrap in `if %s != nil` or guard earlier with `if %s == nil { return }`)",
		sel.Sel.Name, recv, recv, recv)
}

// inspect scans an expression for sink calls under the current facts.
// Function literals switch back to statement-structured walking so guards
// inside them keep working.
func (c *sinkChecker) inspect(e ast.Expr, nonNil map[string]bool) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			c.checkCall(n, nonNil)
		case *ast.FuncLit:
			c.visitStmts(n.Body.List, copyFacts(nonNil))
			return false
		}
		return true
	})
}

func copyFacts(m map[string]bool) map[string]bool {
	out := make(map[string]bool, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// visitStmts walks a statement list, accumulating early-return guards: after
// `if sink == nil { return }`, sink is non-nil for the rest of the list.
func (c *sinkChecker) visitStmts(list []ast.Stmt, nonNil map[string]bool) {
	for _, st := range list {
		c.visitStmt(st, nonNil)
		if ifs, ok := st.(*ast.IfStmt); ok && ifs.Else == nil && terminates(ifs.Body) {
			for _, n := range nonNilWhenFalse(ifs.Cond) {
				nonNil[n] = true
			}
		}
	}
}

func (c *sinkChecker) visitStmt(st ast.Stmt, nonNil map[string]bool) {
	switch st := st.(type) {
	case *ast.IfStmt:
		if st.Init != nil {
			c.visitStmt(st.Init, nonNil)
		}
		c.inspect(st.Cond, nonNil)
		then := copyFacts(nonNil)
		for _, n := range nonNilWhenTrue(st.Cond) {
			then[n] = true
		}
		c.visitStmts(st.Body.List, then)
		if st.Else != nil {
			els := copyFacts(nonNil)
			for _, n := range nonNilWhenFalse(st.Cond) {
				els[n] = true
			}
			c.visitStmt(st.Else, els)
		}
	case *ast.BlockStmt:
		c.visitStmts(st.List, copyFacts(nonNil))
	case *ast.ForStmt:
		if st.Init != nil {
			c.visitStmt(st.Init, nonNil)
		}
		c.inspect(st.Cond, nonNil)
		body := copyFacts(nonNil)
		for _, n := range nonNilWhenTrue(st.Cond) {
			body[n] = true
		}
		c.visitStmts(st.Body.List, body)
		if st.Post != nil {
			c.visitStmt(st.Post, body)
		}
	case *ast.RangeStmt:
		c.inspect(st.X, nonNil)
		c.visitStmts(st.Body.List, copyFacts(nonNil))
	case *ast.SwitchStmt:
		if st.Init != nil {
			c.visitStmt(st.Init, nonNil)
		}
		c.inspect(st.Tag, nonNil)
		for _, cl := range st.Body.List {
			cc := cl.(*ast.CaseClause)
			facts := copyFacts(nonNil)
			// An expressionless switch refines like an if: `case s != nil:`.
			if st.Tag == nil {
				for _, e := range cc.List {
					c.inspect(e, nonNil)
					for _, n := range nonNilWhenTrue(e) {
						facts[n] = true
					}
				}
			} else {
				for _, e := range cc.List {
					c.inspect(e, nonNil)
				}
			}
			c.visitStmts(cc.Body, facts)
		}
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			c.visitStmt(st.Init, nonNil)
		}
		c.visitStmt(st.Assign, nonNil)
		for _, cl := range st.Body.List {
			c.visitStmts(cl.(*ast.CaseClause).Body, copyFacts(nonNil))
		}
	case *ast.SelectStmt:
		for _, cl := range st.Body.List {
			cc := cl.(*ast.CommClause)
			facts := copyFacts(nonNil)
			if cc.Comm != nil {
				c.visitStmt(cc.Comm, facts)
			}
			c.visitStmts(cc.Body, facts)
		}
	case *ast.LabeledStmt:
		c.visitStmt(st.Stmt, nonNil)
	case *ast.DeferStmt:
		c.inspect(st.Call, nonNil)
	case *ast.GoStmt:
		c.inspect(st.Call, nonNil)
	case nil:
	default:
		// Simple statements: scan every contained expression.
		ast.Inspect(st, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				c.inspect(e, nonNil)
				return false
			}
			return true
		})
	}
}

// terminates reports whether a block always leaves the surrounding statement
// list: its last statement is a return, branch, or panic-like call.
func terminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			switch fn := call.Fun.(type) {
			case *ast.Ident:
				return fn.Name == "panic"
			case *ast.SelectorExpr:
				if id, ok := fn.X.(*ast.Ident); ok {
					return (id.Name == "os" && fn.Sel.Name == "Exit") ||
						(id.Name == "log" && strings.HasPrefix(fn.Sel.Name, "Fatal"))
				}
			}
		}
	}
	return false
}

// nonNilWhenTrue returns the tracked expressions proven non-nil when cond is
// true: `x != nil`, conjunctions thereof.
func nonNilWhenTrue(cond ast.Expr) []string {
	switch cond := stripParens(cond).(type) {
	case *ast.BinaryExpr:
		switch cond.Op {
		case token.LAND:
			return append(nonNilWhenTrue(cond.X), nonNilWhenTrue(cond.Y)...)
		case token.NEQ:
			if s, ok := nilComparand(cond); ok {
				return []string{s}
			}
		}
	}
	return nil
}

// nonNilWhenFalse returns the tracked expressions proven non-nil when cond is
// false: `x == nil`, disjunctions thereof.
func nonNilWhenFalse(cond ast.Expr) []string {
	switch cond := stripParens(cond).(type) {
	case *ast.BinaryExpr:
		switch cond.Op {
		case token.LOR:
			return append(nonNilWhenFalse(cond.X), nonNilWhenFalse(cond.Y)...)
		case token.EQL:
			if s, ok := nilComparand(cond); ok {
				return []string{s}
			}
		}
	}
	return nil
}

// nilComparand returns the textual non-nil side of a comparison against nil.
func nilComparand(be *ast.BinaryExpr) (string, bool) {
	if isNilIdent(be.Y) {
		return exprString(stripParens(be.X))
	}
	if isNilIdent(be.X) {
		return exprString(stripParens(be.Y))
	}
	return "", false
}

func isNilIdent(e ast.Expr) bool {
	id, ok := stripParens(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

func stripParens(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
