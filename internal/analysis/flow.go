package analysis

import (
	"go/ast"
	"go/token"
)

// flowOps is the analyzer-specific half of a forward control-flow walk
// over a function body. The engine (walkFlow) handles branching and
// path merging; the client tracks resources (held locks, unclosed
// values) in a mutable state S and reports at exit points.
//
// The walk is deliberately modest: it follows sequences, if/else,
// switch, select, and loops, merging branch states by union (a resource
// outstanding on any path stays outstanding), and treats loop bodies as
// executing zero or more times. break/continue/goto are not modeled.
// That is enough to check the discipline this repo actually uses —
// acquire, branch with early returns, release — without a full CFG.
type flowOps[S any] interface {
	// Leaf processes one simple statement or the non-body parts of a
	// compound one (conditions, init/post clauses).
	Leaf(n ast.Node, st S)
	// Return is called at each exit point: every return statement and
	// the implicit fall-off-the-end return.
	Return(pos token.Pos, st S)
	// Defer processes a defer statement.
	Defer(d *ast.DeferStmt, st S)
	// Clone copies a state for an alternative path.
	Clone(st S) S
	// MergeInto unions src's outstanding resources into dst.
	MergeInto(dst, src S)
}

// branchFlowOps is an optional extension: a client implementing it is
// told which way each if condition went on the path it is about to
// walk, so it can refine state from the condition itself (the
// obligation engine cancels a resource's obligation on the path where
// its paired error is known non-nil — `c, err := dial(); if err != nil
// { return err }` must not report a leaked c on the error return).
type branchFlowOps[S any] interface {
	// Branch is called after Clone for each arm of an if: taken reports
	// whether cond evaluated true on the path st describes.
	Branch(cond ast.Expr, taken bool, st S)
}

// walkFlow walks stmts with state st, returning whether every path
// through them terminates (returns or panics).
func walkFlow[S any](p *Pass, stmts []ast.Stmt, st S, ops flowOps[S]) bool {
	for _, s := range stmts {
		if walkFlowStmt(p, s, st, ops) {
			return true
		}
	}
	return false
}

func walkFlowStmt[S any](p *Pass, s ast.Stmt, st S, ops flowOps[S]) bool {
	switch n := s.(type) {
	case *ast.BlockStmt:
		return walkFlow(p, n.List, st, ops)

	case *ast.LabeledStmt:
		return walkFlowStmt(p, n.Stmt, st, ops)

	case *ast.IfStmt:
		if n.Init != nil {
			ops.Leaf(n.Init, st)
		}
		ops.Leaf(n.Cond, st)
		branch, branching := any(ops).(branchFlowOps[S])
		bodySt := ops.Clone(st)
		if branching {
			branch.Branch(n.Cond, true, bodySt)
		}
		bodyTerm := walkFlow(p, n.Body.List, bodySt, ops)
		if n.Else == nil {
			// Fallthrough paths: condition-false (st) and body.
			if branching {
				branch.Branch(n.Cond, false, st)
			}
			if !bodyTerm {
				ops.MergeInto(st, bodySt)
			}
			return false
		}
		elseSt := ops.Clone(st)
		if branching {
			branch.Branch(n.Cond, false, elseSt)
		}
		elseTerm := walkFlowStmt(p, n.Else, elseSt, ops)
		switch {
		case bodyTerm && elseTerm:
			return true
		case bodyTerm:
			replaceState(st, elseSt, ops)
		case elseTerm:
			replaceState(st, bodySt, ops)
		default:
			replaceState(st, bodySt, ops)
			ops.MergeInto(st, elseSt)
		}
		return false

	case *ast.SwitchStmt:
		if n.Init != nil {
			ops.Leaf(n.Init, st)
		}
		if n.Tag != nil {
			ops.Leaf(n.Tag, st)
		}
		return walkCases(p, n.Body, st, ops)

	case *ast.TypeSwitchStmt:
		if n.Init != nil {
			ops.Leaf(n.Init, st)
		}
		ops.Leaf(n.Assign, st)
		return walkCases(p, n.Body, st, ops)

	case *ast.SelectStmt:
		// The select itself blocks; let the client see it before the
		// per-case communication ops do. Exactly one case runs, each from
		// the state before the select.
		ops.Leaf(n, st)
		var outs []S
		for _, c := range n.Body.List {
			comm := c.(*ast.CommClause)
			caseSt := ops.Clone(st)
			if comm.Comm != nil {
				ops.Leaf(comm.Comm, caseSt)
			}
			if !walkFlow(p, comm.Body, caseSt, ops) {
				outs = append(outs, caseSt)
			}
		}
		return joinPaths(st, outs, false, ops)

	case *ast.ForStmt:
		if n.Init != nil {
			ops.Leaf(n.Init, st)
		}
		if n.Cond != nil {
			ops.Leaf(n.Cond, st)
		}
		if n.Post != nil {
			ops.Leaf(n.Post, st)
		}
		bodySt := ops.Clone(st)
		if !walkFlow(p, n.Body.List, bodySt, ops) {
			ops.MergeInto(st, bodySt)
		}
		return false

	case *ast.RangeStmt:
		ops.Leaf(n.X, st)
		bodySt := ops.Clone(st)
		if !walkFlow(p, n.Body.List, bodySt, ops) {
			ops.MergeInto(st, bodySt)
		}
		return false

	case *ast.DeferStmt:
		ops.Defer(n, st)
		return false

	case *ast.GoStmt:
		// The spawned function runs later on its own goroutine; its
		// body is analyzed as a function of its own.
		return false

	case *ast.ReturnStmt:
		for _, r := range n.Results {
			ops.Leaf(r, st)
		}
		ops.Return(n.Pos(), st)
		return true

	case *ast.BranchStmt:
		return false

	case *ast.ExprStmt:
		ops.Leaf(n, st)
		return callTerminates(p, n.X)

	case nil:
		return false

	default:
		ops.Leaf(n, st)
		return false
	}
}

// walkCases handles switch/type-switch clause bodies: each runs from
// the pre-switch state and the ones that fall through are joined. A
// switch without a default clause may match no case, so the incoming
// state then remains a path too.
func walkCases[S any](p *Pass, body *ast.BlockStmt, st S, ops flowOps[S]) bool {
	hasDefault := false
	var outs []S
	for _, c := range body.List {
		cc := c.(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
		}
		for _, e := range cc.List {
			ops.Leaf(e, st)
		}
		caseSt := ops.Clone(st)
		if !walkFlow(p, cc.Body, caseSt, ops) {
			outs = append(outs, caseSt)
		}
	}
	return joinPaths(st, outs, !hasDefault, ops)
}

// joinPaths makes st the union of the paths leaving a multi-way branch,
// outs plus st itself when keep is set, and reports whether there are
// none (every path terminated).
func joinPaths[S any](st S, outs []S, keep bool, ops flowOps[S]) bool {
	if keep {
		for _, o := range outs {
			ops.MergeInto(st, o)
		}
		return false
	}
	for i, o := range outs {
		if i == 0 {
			replaceState(st, o, ops)
		} else {
			ops.MergeInto(st, o)
		}
	}
	return len(outs) == 0
}

// replaceState makes dst equal src by clearing and merging. Clients'
// MergeInto must treat an empty dst as a plain copy; clearState resets.
func replaceState[S any](dst, src S, ops flowOps[S]) {
	type clearer interface{ clear() }
	if c, ok := any(dst).(clearer); ok {
		c.clear()
	}
	ops.MergeInto(dst, src)
}

// callTerminates reports whether expression e is a call that never
// returns: panic, os.Exit, or log.Fatal*.
func callTerminates(p *Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	obj := p.calleeObj(call)
	if obj == nil {
		// Without type info, fall back to the spelling.
		if id, ok := call.Fun.(*ast.Ident); ok {
			return id.Name == "panic"
		}
		return false
	}
	if obj.Pkg() == nil && obj.Name() == "panic" {
		return true
	}
	if isPkgFunc(obj, "os", "Exit") {
		return true
	}
	if obj.Pkg() != nil && obj.Pkg().Path() == "log" &&
		(obj.Name() == "Fatal" || obj.Name() == "Fatalf" || obj.Name() == "Fatalln") {
		return true
	}
	return false
}

// inspectSkipFuncLit walks n, calling fn on every node but never
// descending into function literals: their bodies execute on their own
// schedule and are analyzed as functions in their own right.
func inspectSkipFuncLit(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n == nil {
			return true
		}
		return fn(n)
	})
}

// funcBodies yields every function body in the file: declarations and
// literals, each exactly once.
func funcBodies(file *ast.File, fn func(body *ast.BlockStmt)) {
	ast.Inspect(file, func(n ast.Node) bool {
		switch d := n.(type) {
		case *ast.FuncDecl:
			if d.Body != nil {
				fn(d.Body)
			}
		case *ast.FuncLit:
			fn(d.Body)
		}
		return true
	})
}
