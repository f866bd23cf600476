package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// The obligation engine checks reach-discharge-on-all-paths: an
// *acquired* value (an opened connection or file) carries an obligation
// to reach a *discharge* call (Close) on every forward path out of the acquiring function — unless
// ownership escapes first. Ownership escapes when the value is
// returned, stored anywhere but a plain local (a struct field, map,
// slice, or another package's variable), or passed to a callee, which
// is then responsible for it; an escaped value's obligation moves with
// it and is checked wherever it lands, not here.
//
// Error-paired acquisitions (`c, err := dial(...)`) bind the obligation
// only on paths where the paired error is nil: the branch hook cancels
// it where `err != nil` is known true, so the ubiquitous
// `if err != nil { return nil, err }` guard does not report a leak of a
// value that was never produced. A later assignment to the same err
// variable ends the pairing — from there the obligation is
// unconditional again.
//
// Clients describe their resource with an obligationSpec; the engine
// owns candidate discovery, escape analysis, and the flow walk.

// obligationSpec describes one resource kind for the engine.
type obligationSpec struct {
	// tracks reports whether result i of call — with static type t,
	// which may be nil in a type-broken package — acquires a tracked
	// resource. kind names the resource in findings ("net.Conn").
	tracks func(pass *Pass, call *ast.CallExpr, i int, t types.Type) (kind string, ok bool)
	// discharges reports whether a method call named name on the
	// tracked value discharges the obligation (Close).
	discharges func(name string) bool
	// reportDiscard reports a tracked result assigned to
	// the blank identifier — a resource that can never be discharged.
	reportDiscard func(pass *Pass, pos token.Pos, kind string)
	// reportLeak reports a resource still pending at a return: name is
	// the variable, startLine where it was acquired.
	reportLeak func(pass *Pass, pos token.Pos, kind, name string, startLine int)
}

// runObligation applies spec to every function body in the pass.
func runObligation(pass *Pass, spec *obligationSpec) {
	for _, file := range pass.Files {
		funcBodies(file, func(body *ast.BlockStmt) {
			checkObligationBody(pass, spec, body)
		})
	}
}

// obCandidate is one acquisition site the engine decided to track.
type obCandidate struct {
	kind string
	// errObj is the error result assigned alongside the resource, if
	// any; nil-ness of the resource follows non-nil-ness of the error.
	errObj types.Object
}

// acquiredResults matches an assignment whose single RHS is a call with
// tracked results. It yields each tracked (ident, result index) pair
// plus the object of an LHS error result when the call has one.
func acquiredResults(pass *Pass, spec *obligationSpec, a *ast.AssignStmt) (ids []*ast.Ident, kinds []string, errObj types.Object) {
	if len(a.Rhs) != 1 {
		return nil, nil, nil
	}
	call, ok := a.Rhs[0].(*ast.CallExpr)
	if !ok {
		return nil, nil, nil
	}
	resType := func(i int) types.Type {
		t := pass.TypeOf(call)
		if t == nil {
			return nil
		}
		if tup, ok := t.(*types.Tuple); ok {
			if i < tup.Len() {
				return tup.At(i).Type()
			}
			return nil
		}
		if i == 0 {
			return t
		}
		return nil
	}
	for i, l := range a.Lhs {
		id, ok := l.(*ast.Ident)
		if !ok {
			continue
		}
		t := resType(i)
		if kind, tracked := spec.tracks(pass, call, i, t); tracked {
			ids = append(ids, id)
			kinds = append(kinds, kind)
			continue
		}
		if t != nil && isErrorType(t) && id.Name != "_" && pass.Info != nil {
			errObj = pass.Info.ObjectOf(id)
		}
	}
	return ids, kinds, errObj
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() == nil && obj.Name() == "error"
}

// checkObligationBody runs the engine over one function body: find
// acquisition sites, drop the ones whose resource escapes, then
// flow-walk to verify discharge on every path.
func checkObligationBody(pass *Pass, spec *obligationSpec, body *ast.BlockStmt) {
	if pass.Info == nil {
		return
	}
	candidates := make(map[types.Object]obCandidate)
	inspectSkipFuncLit(body, func(n ast.Node) bool {
		a, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		ids, kinds, errObj := acquiredResults(pass, spec, a)
		for i, id := range ids {
			if id.Name == "_" {
				spec.reportDiscard(pass, id.Pos(), kinds[i])
				continue
			}
			if obj := pass.Info.ObjectOf(id); obj != nil {
				candidates[obj] = obCandidate{kind: kinds[i], errObj: errObj}
			}
		}
		return true
	})
	if len(candidates) == 0 {
		return
	}

	// Escape analysis: the resource identifier may be the receiver of a
	// method call (c.Close(), c.SetDeadline(...)), an assignment target,
	// or a nil comparison; any other use — returned, stored into a
	// field, passed as a call argument, captured by a composite literal
	// — hands the value to code this walk cannot see, so the obligation
	// moves with it and the candidate is dropped here.
	allowed := make(map[*ast.Ident]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok {
				if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
					allowed[id] = true
				}
			}
		case *ast.AssignStmt:
			for _, l := range x.Lhs {
				if id, ok := l.(*ast.Ident); ok {
					allowed[id] = true
				}
			}
		case *ast.BinaryExpr:
			// `c == nil` / `c != nil` inspects the value without moving
			// ownership.
			if x.Op == token.EQL || x.Op == token.NEQ {
				xid, xok := ast.Unparen(x.X).(*ast.Ident)
				yid, yok := ast.Unparen(x.Y).(*ast.Ident)
				if xok && yok {
					if yid.Name == "nil" {
						allowed[xid] = true
					}
					if xid.Name == "nil" {
						allowed[yid] = true
					}
				}
			}
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || allowed[id] {
			return true
		}
		if obj := pass.Info.ObjectOf(id); obj != nil {
			if _, tracked := candidates[obj]; tracked {
				delete(candidates, obj)
			}
		}
		return true
	})
	if len(candidates) == 0 {
		return
	}

	flow := &obFlow{pass: pass, spec: spec, tracked: candidates}
	st := newObState()
	if !walkFlow(pass, body.List, st, flow) {
		flow.Return(body.End(), st)
	}
}

// obPending is one live obligation on the current path.
type obPending struct {
	pos  token.Pos
	kind string
	// errObj pairs the obligation with the acquisition's error result;
	// nil once the pairing is broken (no error, or err reassigned).
	errObj types.Object
}

// obState tracks obligations outstanding on the current path.
type obState struct {
	pending  map[types.Object]obPending
	deferred map[types.Object]bool
}

func newObState() *obState {
	return &obState{
		pending:  make(map[types.Object]obPending),
		deferred: make(map[types.Object]bool),
	}
}

func (s *obState) clear() {
	s.pending = make(map[types.Object]obPending)
	s.deferred = make(map[types.Object]bool)
}

type obFlow struct {
	pass    *Pass
	spec    *obligationSpec
	tracked map[types.Object]obCandidate
}

func (f *obFlow) Clone(st *obState) *obState {
	out := newObState()
	for k, v := range st.pending {
		out.pending[k] = v
	}
	for k := range st.deferred {
		out.deferred[k] = true
	}
	return out
}

// MergeInto unions outstanding obligations (pending on any path counts)
// and intersects deferred discharges (a defer only helps if every path
// registered it) — except into an empty state, which is a plain copy.
func (f *obFlow) MergeInto(dst, src *obState) {
	fresh := len(dst.pending) == 0 && len(dst.deferred) == 0
	for k, v := range src.pending {
		if _, ok := dst.pending[k]; !ok {
			dst.pending[k] = v
		}
	}
	if fresh {
		for k := range src.deferred {
			dst.deferred[k] = true
		}
		return
	}
	for k := range dst.deferred {
		if !src.deferred[k] {
			delete(dst.deferred, k)
		}
	}
}

func (f *obFlow) Leaf(n ast.Node, st *obState) {
	inspectSkipFuncLit(n, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			f.assign(x, st)
		case *ast.CallExpr:
			if obj := f.dischargedBy(x); obj != nil {
				delete(st.pending, obj)
			}
		}
		return true
	})
}

// assign registers tracked acquisitions and breaks error pairings: once
// the paired err variable is reassigned, its nil-ness no longer speaks
// for the resource.
func (f *obFlow) assign(a *ast.AssignStmt, st *obState) {
	ids, _, errObj := acquiredResults(f.pass, f.spec, a)
	acquiredHere := make(map[types.Object]bool, len(ids))
	for _, id := range ids {
		obj := f.pass.Info.ObjectOf(id)
		cand, tracked := f.tracked[obj]
		if !tracked {
			continue
		}
		st.pending[obj] = obPending{pos: a.Pos(), kind: cand.kind, errObj: errObj}
		acquiredHere[obj] = true
	}
	for _, l := range a.Lhs {
		id, ok := l.(*ast.Ident)
		if !ok {
			continue
		}
		obj := f.pass.Info.ObjectOf(id)
		if obj == nil {
			continue
		}
		// Reassigning a resource variable replaces the old obligation
		// (the previous value escaped through the escape pass if it was
		// ever used otherwise); reassigning an err variable unbinds it.
		for res, p := range st.pending {
			if acquiredHere[res] {
				continue
			}
			if p.errObj == obj {
				p.errObj = nil
				st.pending[res] = p
			}
		}
	}
}

// dischargedBy returns the tracked object when call is a discharge
// method invocation (x.Close()) on a tracked identifier.
func (f *obFlow) dischargedBy(call *ast.CallExpr) types.Object {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !f.spec.discharges(sel.Sel.Name) {
		return nil
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return nil
	}
	obj := f.pass.Info.ObjectOf(id)
	if obj == nil {
		return nil
	}
	if _, tracked := f.tracked[obj]; !tracked {
		return nil
	}
	return obj
}

func (f *obFlow) Defer(d *ast.DeferStmt, st *obState) {
	// defer c.Close()
	if obj := f.dischargedBy(d.Call); obj != nil {
		st.deferred[obj] = true
		return
	}
	// defer func() { ...; c.Close(); ... }()
	if lit, ok := d.Call.Fun.(*ast.FuncLit); ok {
		inspectSkipFuncLit(lit.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if obj := f.dischargedBy(call); obj != nil {
					st.deferred[obj] = true
				}
			}
			return true
		})
	}
}

// Branch refines the path state from an if condition: on a path where a
// paired error is known non-nil — or the resource itself is known nil —
// the resource was never produced, so its obligation is void.
func (f *obFlow) Branch(cond ast.Expr, taken bool, st *obState) {
	id, op, ok := nilComparison(cond)
	if !ok {
		return
	}
	obj := f.pass.Info.ObjectOf(id)
	if obj == nil {
		return
	}
	// `x != nil` false, or `x == nil` true, means x is nil here.
	isNil := (op == token.NEQ && !taken) || (op == token.EQL && taken)
	for res, p := range st.pending {
		if p.errObj == obj && !isNil {
			// The paired error is non-nil: the resource is nil.
			delete(st.pending, res)
		}
		if res == obj && isNil {
			delete(st.pending, res)
		}
	}
}

// nilComparison matches `x != nil` / `x == nil` (either operand order)
// and returns the non-nil identifier and the operator.
func nilComparison(cond ast.Expr) (*ast.Ident, token.Token, bool) {
	b, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || (b.Op != token.EQL && b.Op != token.NEQ) {
		return nil, 0, false
	}
	x, xok := ast.Unparen(b.X).(*ast.Ident)
	y, yok := ast.Unparen(b.Y).(*ast.Ident)
	if !xok || !yok {
		return nil, 0, false
	}
	if y.Name == "nil" && x.Name != "nil" {
		return x, b.Op, true
	}
	if x.Name == "nil" && y.Name != "nil" {
		return y, b.Op, true
	}
	return nil, 0, false
}

func (f *obFlow) Return(pos token.Pos, st *obState) {
	for obj, p := range st.pending {
		if st.deferred[obj] {
			continue
		}
		f.spec.reportLeak(f.pass, pos, p.kind, obj.Name(), f.pass.Fset.Position(p.pos).Line)
	}
}
