package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// rpcPath is the module's msgpack-rpc package, whose client calls block
// on the network.
const rpcPath = "vizndp/internal/rpc"

// LockHold enforces the repo's mutex discipline, which the concurrent
// server and the caches depend on:
//
//  1. every sync.Mutex/RWMutex Lock or RLock is released on all paths
//     out of the function (defer or explicit unlock before each return);
//  2. nothing that can block — an RPC client call, a filesystem read, a
//     WaitGroup.Wait, time.Sleep, a channel send or receive, or a select
//     without a default case — happens while a mutex is held. A full
//     buffer or an absent peer would stall every goroutine contending
//     for the lock, so the slow work goes outside the critical section.
var LockHold = &Analyzer{
	Name: "lockhold",
	Doc:  "mutexes must be released on all paths and never held across blocking calls or channel operations",
	Run:  runLockHold,
}

func runLockHold(pass *Pass) {
	for _, file := range pass.Files {
		funcBodies(file, func(body *ast.BlockStmt) {
			checkLockBody(pass, body)
		})
	}
}

// heldLock records one acquisition on the current path.
type heldLock struct {
	pos  token.Pos
	expr string // receiver expression, e.g. "c.mu"
}

// lockState tracks locks held on the current path. Keys combine the
// receiver expression text with the lock mode ("c.mu/w", "s.mu/r") so
// RLock pairs with RUnlock and Lock with Unlock.
type lockState struct {
	held     map[string]heldLock
	deferred map[string]bool // unlock registered via defer
}

func newLockState() *lockState {
	return &lockState{
		held:     make(map[string]heldLock),
		deferred: make(map[string]bool),
	}
}

func (s *lockState) clear() {
	s.held = make(map[string]heldLock)
	s.deferred = make(map[string]bool)
}

type lockFlow struct {
	pass *Pass
	// inSelect marks select communication statements: the select they
	// belong to is judged blocking or not as a whole, so the engine's
	// per-case visit must not report them again as bare channel ops.
	inSelect map[ast.Node]bool
}

func (f *lockFlow) Clone(st *lockState) *lockState {
	out := newLockState()
	for k, v := range st.held {
		out.held[k] = v
	}
	for k := range st.deferred {
		out.deferred[k] = true
	}
	return out
}

// MergeInto unions held locks (held on any path counts) and intersects
// deferred unlocks, except into a freshly cleared state (plain copy).
func (f *lockFlow) MergeInto(dst, src *lockState) {
	fresh := len(dst.held) == 0 && len(dst.deferred) == 0
	for k, v := range src.held {
		if _, ok := dst.held[k]; !ok {
			dst.held[k] = v
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

func (f *lockFlow) Leaf(n ast.Node, st *lockState) {
	if f.inSelect[n] {
		return
	}
	inspectSkipFuncLit(n, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if key, hl, acquire, ok := mutexOp(f.pass, x); ok {
				if !acquire {
					delete(st.held, key)
					return true
				}
				if prev, held := st.held[key]; held {
					f.pass.Reportf(x.Pos(),
						"%s locked again while already held (acquired at line %d): deadlock",
						hl.expr, f.pass.Fset.Position(prev.pos).Line)
				}
				st.held[key] = hl
			} else if what := blockingCall(f.pass, x); what != "" {
				f.reportHeld(x.Pos(), what, st)
			}
		case *ast.SelectStmt:
			if !selectHasDefault(x) {
				f.reportHeld(x.Select, "blocking select (no default case)", st)
			}
			for _, c := range x.Body.List {
				if comm := c.(*ast.CommClause); comm.Comm != nil {
					f.inSelect[comm.Comm] = true
				}
			}
			return false // the engine walks each case with its own state
		case *ast.SendStmt:
			f.reportHeld(x.Arrow, "channel send", st)
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				f.reportHeld(x.OpPos, "channel receive", st)
			}
		}
		return true
	})
}

// reportHeld reports a blocking operation once per mutex held on the
// current path; it is a no-op when none is.
func (f *lockFlow) reportHeld(pos token.Pos, what string, st *lockState) {
	for _, hl := range st.held {
		f.pass.Reportf(pos, "%s while %s is held (locked at line %d)",
			what, hl.expr, f.pass.Fset.Position(hl.pos).Line)
	}
}

func (f *lockFlow) Defer(d *ast.DeferStmt, st *lockState) {
	// defer mu.Unlock()
	if key, _, acquire, ok := mutexOp(f.pass, d.Call); ok && !acquire {
		st.deferred[key] = true
		return
	}
	// defer func() { ...; mu.Unlock(); ... }(): an unlock of a mutex the
	// closure did not itself lock releases the outer function's hold.
	if lit, ok := d.Call.Fun.(*ast.FuncLit); ok {
		local := make(map[string]bool)
		inspectSkipFuncLit(lit.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if key, _, acquire, ok := mutexOp(f.pass, call); ok {
				if acquire {
					local[key] = true
				} else if local[key] {
					delete(local, key)
				} else {
					st.deferred[key] = true
				}
			}
			return true
		})
	}
}

func (f *lockFlow) Return(pos token.Pos, st *lockState) {
	for key, hl := range st.held {
		if st.deferred[key] {
			continue
		}
		f.pass.Reportf(pos, "%s (locked at line %d) still held at this return",
			hl.expr, f.pass.Fset.Position(hl.pos).Line)
	}
}

// mutexOp recognizes a sync mutex method call. acquire is true for
// Lock/RLock, false for Unlock/RUnlock.
func mutexOp(pass *Pass, call *ast.CallExpr) (key string, hl heldLock, acquire, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", heldLock{}, false, false
	}
	var mode string
	switch sel.Sel.Name {
	case "Lock", "Unlock":
		mode = "w"
		acquire = sel.Sel.Name == "Lock"
	case "RLock", "RUnlock":
		mode = "r"
		acquire = sel.Sel.Name == "RLock"
	default:
		return "", heldLock{}, false, false
	}
	obj := pass.calleeObj(call)
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return "", heldLock{}, false, false
	}
	expr := types.ExprString(sel.X)
	return expr + "/" + mode, heldLock{pos: call.Pos(), expr: expr}, acquire, true
}

// blockingCall classifies calls that can block for unbounded time: the
// repo's RPC client calls, filesystem reads, sleeps, and WaitGroup
// waits. Returns a description, or "" for non-blocking calls.
func blockingCall(pass *Pass, call *ast.CallExpr) string {
	obj := pass.calleeObj(call)
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	pkg, name := obj.Pkg().Path(), obj.Name()
	switch pkg {
	case "time":
		if name == "Sleep" {
			return "time.Sleep"
		}
	case "io/fs":
		switch name {
		case "ReadFile", "ReadDir", "Stat", "Glob", "WalkDir", "Open", "Sub":
			return "fs." + name
		}
	case "os":
		switch name {
		case "Open", "OpenFile", "Create", "ReadFile", "ReadDir", "Stat":
			return "os." + name
		}
	case "sync":
		if name == "Wait" {
			return "WaitGroup.Wait"
		}
	case rpcPath:
		switch name {
		case "Call", "CallContext", "Dial":
			return "rpc client " + name
		}
	}
	return ""
}

// checkLockBody flow-walks one function body for lock discipline.
func checkLockBody(pass *Pass, body *ast.BlockStmt) {
	if pass.Info == nil {
		return
	}
	flow := &lockFlow{pass: pass, inSelect: make(map[ast.Node]bool)}
	st := newLockState()
	if !walkFlow(pass, body.List, st, flow) {
		flow.Return(body.End(), st)
	}
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if comm, ok := c.(*ast.CommClause); ok && comm.Comm == nil {
			return true
		}
	}
	return false
}
