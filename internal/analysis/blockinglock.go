package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// boundedSendPaths are the admission-control packages where rule 2 of
// BlockingLock applies: the RPC layer's in-flight slot accounting and
// the client's bounded fan-out both route requests through bounded
// channels, and a naked send that outlives its receiver wedges a server
// goroutine holding an admission slot.
var boundedSendPaths = map[string]bool{
	"vizndp/internal/rpc":  true,
	"vizndp/internal/core": true,
}

// BlockingLock extends LockHold's discipline to channels:
//
//  1. no channel send, receive, or blocking select (one without a
//     default case) happens while a mutex is held — a full buffer or an
//     absent peer would stall every other goroutine contending for the
//     lock. A select with a default case is non-blocking and fine.
//  2. in admission-path packages (rpc, core), a send outside a select
//     on a channel whose make(chan ...) is not visible in the same file
//     is flagged: the sender cannot locally prove buffer capacity, so a
//     full buffer blocks forever. Guard with select { case ch <- v:
//     ... } on ctx.Done or default, or carry an ignore naming the
//     invariant that bounds the send.
//
// It shares LockHold's mutex tracking (mutexOp, lockState); LockHold
// itself owns lock pairing and blocking *calls* under lock.
var BlockingLock = &Analyzer{
	Name: "blockinglock",
	Doc:  "no blocking channel ops while a mutex is held; admission-path sends need a select escape hatch",
	Run:  runBlockingLock,
}

func runBlockingLock(pass *Pass) {
	if pass.Info == nil {
		return
	}
	for _, file := range pass.Files {
		local := fileLocalChans(pass, file)
		funcBodies(file, func(name string, body *ast.BlockStmt) {
			flow := &blockFlow{
				pass:       pass,
				rule2:      boundedSendPaths[pass.Path],
				localChans: local,
				inSelect:   make(map[ast.Node]bool),
			}
			st := newLockState()
			walkFlow(pass, body.List, st, flow)
		})
	}
}

// fileLocalChans collects the objects of channels whose make(chan ...)
// appears in this file: locals, and fields/globals initialized here.
// A send on such a channel has its capacity contract in view.
func fileLocalChans(pass *Pass, file *ast.File) map[types.Object]bool {
	out := make(map[types.Object]bool)
	add := func(lhs ast.Expr) {
		if obj := chanExprObj(pass, lhs); obj != nil {
			out[obj] = true
		}
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			if len(x.Lhs) != len(x.Rhs) {
				return true
			}
			for i, r := range x.Rhs {
				if isMakeChan(pass, r) {
					add(x.Lhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(x.Names) != len(x.Values) {
				return true
			}
			for i, v := range x.Values {
				if isMakeChan(pass, v) {
					add(x.Names[i])
				}
			}
		}
		return true
	})
	return out
}

// chanExprObj resolves a channel expression (ident or selector) to its
// variable object, or nil for expressions it cannot name (indexing).
func chanExprObj(pass *Pass, e ast.Expr) types.Object {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return pass.Info.ObjectOf(x)
	case *ast.SelectorExpr:
		return pass.Info.ObjectOf(x.Sel)
	}
	return nil
}

// isMakeChan reports whether e is a make(chan ...) call.
func isMakeChan(pass *Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "make" {
		return false
	}
	t := pass.TypeOf(call)
	if t == nil {
		return false
	}
	_, isChan := t.Underlying().(*types.Chan)
	return isChan
}

type blockFlow struct {
	pass       *Pass
	rule2      bool
	localChans map[types.Object]bool
	// inSelect marks select communication statements, which are handled
	// (and judged non-blocking or not) at their select, not as naked ops.
	inSelect map[ast.Node]bool
}

func (f *blockFlow) Clone(st *lockState) *lockState { return cloneLockState(st) }
func (f *blockFlow) MergeInto(dst, src *lockState)  { mergeLockState(dst, src) }
func (f *blockFlow) Defer(d *ast.DeferStmt, st *lockState) {
	// A deferred unlock does not release the lock for the remainder of
	// the body, so held-ness is unchanged; nothing to track.
}
func (f *blockFlow) Return(pos token.Pos, st *lockState) {}

func (f *blockFlow) Leaf(n ast.Node, st *lockState) {
	if f.inSelect[n] {
		return
	}
	inspectSkipFuncLit(n, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if key, hl, acquire, ok := mutexOp(f.pass, x); ok {
				if acquire {
					st.held[key] = hl
				} else {
					delete(st.held, key)
				}
			}
		case *ast.SelectStmt:
			if len(st.held) > 0 && !selectHasDefault(x) {
				f.reportHeld(x.Select, "blocking select (no default case)", st)
			}
			for _, c := range x.Body.List {
				if comm := c.(*ast.CommClause); comm.Comm != nil {
					f.inSelect[comm.Comm] = true
				}
			}
			return false // cases and bodies are walked by the engine
		case *ast.SendStmt:
			if len(st.held) > 0 {
				f.reportHeld(x.Arrow, "channel send", st)
			} else if f.rule2 {
				f.checkNakedSend(x)
			}
		case *ast.UnaryExpr:
			if x.Op == token.ARROW && len(st.held) > 0 {
				f.reportHeld(x.OpPos, "channel receive", st)
			}
		}
		return true
	})
}

func (f *blockFlow) reportHeld(pos token.Pos, what string, st *lockState) {
	for _, hl := range st.held {
		f.pass.Reportf(pos, "%s while %s is held (locked at line %d)",
			what, hl.expr, f.pass.Fset.Position(hl.pos).Line)
	}
}

// checkNakedSend applies rule 2 to a send outside any select.
func (f *blockFlow) checkNakedSend(s *ast.SendStmt) {
	if obj := chanExprObj(f.pass, s.Chan); obj != nil && f.localChans[obj] {
		return
	}
	f.pass.Reportf(s.Arrow,
		"unguarded send on %q, a channel not created in this file: a full buffer blocks forever; use select with ctx.Done or default",
		types.ExprString(s.Chan))
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if comm, ok := c.(*ast.CommClause); ok && comm.Comm == nil {
			return true
		}
	}
	return false
}
