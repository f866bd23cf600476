package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ClosePath checks that every locally-owned value with a `Close() error`
// method — net.Conn, net.Listener, fs.File, *os.File, io.ReadCloser,
// the module's rpc/core clients — reaches Close on all paths out of the
// acquiring function. It is an obligation-engine instance, so ownership
// escapes release the local obligation: a value that is returned,
// stored into a struct or map, or passed to another call is that
// code's to close (the rpc reconnect path stores the dialed client in
// its replica's cur). What
// remains are pure local-lifetime values, where a missed error-path
// Close leaks a file descriptor or goroutine per request — the slow
// fleet-throughput killer on a storage node.
//
// Error-paired acquisitions (`c, err := dial(...)`) only oblige paths
// where err is nil, so `if err != nil { return err }` guards do not
// report values that were never produced.
var ClosePath = &Analyzer{
	Name: "closepath",
	Doc:  "locally-owned Closers (conns, files, listeners, clients) must reach Close() on every return path",
	Run:  runClosePath,
}

var closeSpec = &obligationSpec{
	tracks: func(pass *Pass, call *ast.CallExpr, i int, t types.Type) (string, bool) {
		if t == nil || !hasCloseError(t) {
			return "", false
		}
		// Acquisition is a call producing the closer; method calls named
		// Close themselves (idempotent re-close helpers) do not acquire.
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Close" {
			return "", false
		}
		return shortTypeName(t), true
	},
	discharges: func(name string) bool { return name == "Close" },
	reportDiscard: func(pass *Pass, pos token.Pos, kind string) {
		pass.Reportf(pos, "%s result discarded; it can never be closed", kind)
	},
	reportLeak: func(pass *Pass, pos token.Pos, kind, name string, startLine int) {
		pass.Reportf(pos, "%s %q opened at line %d does not reach Close on this return path",
			kind, name, startLine)
	},
}

func runClosePath(pass *Pass) {
	runObligation(pass, closeSpec)
}

// hasCloseError reports whether t (or *t) has a `Close() error` method —
// the io.Closer contract. Types with a result-less Close (the module's
// long-lived servers) are deliberately out: they are not per-request
// resources.
func hasCloseError(t types.Type) bool {
	obj, _, _ := types.LookupFieldOrMethod(t, true, nil, "Close")
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	return sig.Params().Len() == 0 && sig.Results().Len() == 1 &&
		isErrorType(sig.Results().At(0).Type())
}

// shortTypeName renders t compactly for findings: "net.Conn",
// "*rpc.Client", "fs.File".
func shortTypeName(t types.Type) string {
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}
