// Package analysis is a from-scratch, stdlib-only static-analysis
// framework (go/parser + go/ast + go/types; no golang.org/x/tools) that
// enforces the hand-maintained invariants the NDP fast path depends on,
// one analyzer each: lock and channel discipline in the concurrent
// server and caches (lockhold), Closer lifecycle (closepath, over the
// obligation engine in obligation.go), bit-exact float payload handling
// (floateq), and honest error wrapping across layers (errwrap). Each has
// caught a real bug in this repo. cmd/vizlint drives the suite over the
// module.
//
// Each check is an Analyzer: a named function over one type-checked
// package that reports findings at file:line:col. A finding can be
// suppressed at the source line with a directive comment:
//
//	// vizlint:ignore <analyzer> <reason>
//
// placed either on the offending line or on its own line immediately
// above (a directive covers its own line and the next). The reason is
// mandatory; a directive without one (or naming an unknown analyzer) is
// itself reported, and so is a well-formed directive that suppresses
// nothing (it is stale), so suppressions stay auditable.
//
// Packages that fail to parse or type-check are not fatal: their errors
// surface as findings from the pseudo-analyzer "typecheck" and every
// syntactic analyzer still runs over the partial AST.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one reported violation.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s",
		f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// Analyzer is one named check run over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in findings and ignore directives.
	Name string
	// Doc is a one-line description for vizlint -list.
	Doc string
	// Run inspects the pass's package and reports findings.
	Run func(*Pass)
}

// TypecheckName is the pseudo-analyzer that carries parse and
// type-check errors. It has no Run function; the loader produces its
// findings, and ignore directives may name it like any other analyzer.
const TypecheckName = "typecheck"

// directiveName is the pseudo-analyzer reporting malformed ignore
// directives.
const directiveName = "vizlint"

// All returns the full analyzer suite in a stable order.
func All() []*Analyzer {
	return []*Analyzer{
		LockHold,
		ClosePath,
		FloatEq,
		ErrWrap,
	}
}

// knownAnalyzer reports whether name is a real or pseudo analyzer, for
// validating ignore directives.
func knownAnalyzer(name string) bool {
	if name == TypecheckName || name == directiveName {
		return true
	}
	for _, a := range All() {
		if a.Name == name {
			return true
		}
	}
	return false
}

// Pass is one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	// Pkg and Info may be partial when the package has type errors;
	// analyzers must tolerate nil types for expressions.
	Pkg  *types.Package
	Info *types.Info

	findings *[]Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the static type of e, or nil when type information is
// missing (a package with type errors).
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if p.Info == nil {
		return nil
	}
	if tv, ok := p.Info.Types[e]; ok {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := p.Info.ObjectOf(id); obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// calleeObj resolves the object a call invokes: a function, method, or
// builtin. Returns nil for dynamic calls (function values) or when type
// information is missing.
func (p *Pass) calleeObj(call *ast.CallExpr) types.Object {
	if p.Info == nil {
		return nil
	}
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return p.Info.ObjectOf(fn)
	case *ast.SelectorExpr:
		return p.Info.ObjectOf(fn.Sel)
	}
	return nil
}

// isPkgFunc reports whether obj is the function or method pkgPath.name.
// Methods match on the defining package and method name regardless of
// receiver (repo analyzers pair this with receiver checks when needed).
func isPkgFunc(obj types.Object, pkgPath, name string) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	return obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// directive is one parsed "// vizlint:ignore ..." comment.
type directive struct {
	pos      token.Pos
	line     int
	analyzer string
	reason   string
	// used records whether the directive suppressed at least one
	// finding this run; unused ones are reported as stale.
	used bool
}

// directivePrefix introduces an ignore directive inside a comment.
const directivePrefix = "vizlint:ignore"

// parseDirectives extracts ignore directives from a file. Malformed
// directives (missing analyzer or reason, unknown analyzer) are
// reported as findings and do not suppress anything.
func parseDirectives(fset *token.FileSet, file *ast.File, findings *[]Finding) []*directive {
	var out []*directive
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSpace(text)
			if !strings.HasPrefix(text, directivePrefix) {
				continue
			}
			rest := strings.TrimSpace(strings.TrimPrefix(text, directivePrefix))
			pos := fset.Position(c.Pos())
			name, reason, _ := strings.Cut(rest, " ")
			reason = strings.TrimSpace(reason)
			bad := func(format string, args ...any) {
				*findings = append(*findings, Finding{
					Pos:      pos,
					Analyzer: directiveName,
					Message:  fmt.Sprintf(format, args...),
				})
			}
			if name == "" {
				bad("ignore directive needs an analyzer name and a reason")
				continue
			}
			if !knownAnalyzer(name) {
				bad("ignore directive names unknown analyzer %q", name)
				continue
			}
			if reason == "" {
				bad("ignore directive for %q needs a reason", name)
				continue
			}
			out = append(out, &directive{
				pos:      c.Pos(),
				line:     pos.Line,
				analyzer: name,
				reason:   reason,
			})
		}
	}
	return out
}

// suppress filters findings covered by directives, marking each
// directive that fired: a directive covers its own line (trailing
// comment) and the following line (leading comment).
func suppress(findings []Finding, dirs map[string][]*directive) []Finding {
	out := findings[:0]
	for _, f := range findings {
		covered := false
		for _, d := range dirs[f.Pos.Filename] {
			if d.analyzer != f.Analyzer {
				continue
			}
			if d.line == f.Pos.Line || d.line == f.Pos.Line-1 {
				d.used = true
				covered = true
			}
		}
		if !covered {
			out = append(out, f)
		}
	}
	return out
}

// Analyze runs the analyzers over every package, applies ignore
// directives, and returns the surviving findings, the packages'
// parse/type-check findings and one finding per stale directive, in
// position order. A directive is stale when its analyzer ran and it
// suppressed nothing; directives for analyzers outside the given set are
// not judged.
func Analyze(pkgs []*Package, analyzers []*Analyzer) []Finding {
	var out []Finding
	for _, pkg := range pkgs {
		out = append(out, analyze(pkg, analyzers)...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

func analyze(pkg *Package, analyzers []*Analyzer) []Finding {
	findings := append([]Finding(nil), pkg.TypeErrors...)
	dirs := make(map[string][]*directive)
	for _, f := range pkg.Files {
		name := pkg.Fset.Position(f.Pos()).Filename
		dirs[name] = append(dirs[name], parseDirectives(pkg.Fset, f, &findings)...)
	}
	ran := map[string]bool{TypecheckName: true, directiveName: true}
	for _, a := range analyzers {
		ran[a.Name] = true
		a.Run(&Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			findings: &findings,
		})
	}
	out := suppress(findings, dirs)
	for _, ds := range dirs {
		for _, d := range ds {
			if d.used || !ran[d.analyzer] {
				continue
			}
			out = append(out, Finding{
				Pos:      pkg.Fset.Position(d.pos),
				Analyzer: directiveName,
				Message: fmt.Sprintf(
					"stale ignore directive for %q: it suppresses nothing; delete it", d.analyzer),
			})
		}
	}
	return out
}
