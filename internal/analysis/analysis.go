// Package analysis is a from-scratch, stdlib-only static-analysis
// framework (go/parser + go/ast + go/types; no golang.org/x/tools) that
// enforces the hand-maintained invariants the NDP fast path depends on:
// span/lock/channel discipline in the concurrent server and cache,
// goroutine termination and context threading on the request path,
// Closer lifecycle on connection hand-offs, bit-exact float payload
// handling, honest error wrapping across layers, and panic-free request
// serving. Lifecycle checks (spanend, closepath) share one obligation
// engine (obligation.go): acquire, then discharge on every forward path
// unless ownership escapes. cmd/vizlint drives the suite over the
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
// itself reported, so suppressions stay auditable.
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
		BlockingLock,
		SpanEnd,
		ClosePath,
		GoroLeak,
		CtxFlow,
		NoPanic,
		FloatEq,
		ErrWrap,
	}
}

// AllNames returns the names of the full suite, for error messages and
// usage text.
func AllNames() []string {
	all := All()
	names := make([]string, len(all))
	for i, a := range all {
		names[i] = a.Name
	}
	return names
}

// ByName resolves a comma-separated analyzer list against All. The
// pseudo-analyzer names ("typecheck", "vizlint") are always implied and
// not listed here.
func ByName(names string) ([]*Analyzer, error) {
	all := All()
	if names == "" {
		return all, nil
	}
	index := make(map[string]*Analyzer, len(all))
	for _, a := range all {
		index[a.Name] = a
	}
	var out []*Analyzer
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a, ok := index[name]
		if !ok {
			return nil, fmt.Errorf("analysis: unknown analyzer %q (valid: %s)",
				name, strings.Join(AllNames(), ", "))
		}
		out = append(out, a)
	}
	return out, nil
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
	// Path is the package's import path. Repo-specific analyzers use it
	// to scope themselves (for example NoPanic's request-serving set).
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
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
	// finding this run; strict mode reports unused ones as stale.
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

// Analyze runs the analyzers over one loaded package, applies ignore
// directives, and returns surviving findings together with the
// package's parse/type-check findings.
func Analyze(pkg *Package, analyzers []*Analyzer) []Finding {
	return analyze(pkg, analyzers, false)
}

func analyze(pkg *Package, analyzers []*Analyzer, strict bool) []Finding {
	findings := append([]Finding(nil), pkg.TypeErrors...)
	dirs := make(map[string][]*directive)
	for _, f := range pkg.Files {
		name := pkg.Fset.Position(f.Pos()).Filename
		dirs[name] = append(dirs[name], parseDirectives(pkg.Fset, f, &findings)...)
	}
	for _, a := range analyzers {
		if a.Run == nil {
			continue
		}
		pass := &Pass{
			Analyzer: a,
			Path:     pkg.Path,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			findings: &findings,
		}
		a.Run(pass)
	}
	out := suppress(findings, dirs)
	if !strict {
		return out
	}
	ran := map[string]bool{TypecheckName: true, directiveName: true}
	for _, a := range analyzers {
		ran[a.Name] = true
	}
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

// AnalyzePackages analyzes every package and returns all findings in
// position order.
func AnalyzePackages(pkgs []*Package, analyzers []*Analyzer) []Finding {
	return analyzePackages(pkgs, analyzers, false)
}

// AnalyzePackagesStrict is AnalyzePackages plus stale-suppression
// reporting: a well-formed ignore directive that suppressed nothing —
// while its analyzer actually ran — is itself a finding from the
// "vizlint" pseudo-analyzer, so dead suppressions cannot linger and
// silently cover a future regression. Run it with the full suite: under
// a subset, directives for the analyzers that did not run are skipped,
// not reported.
func AnalyzePackagesStrict(pkgs []*Package, analyzers []*Analyzer) []Finding {
	return analyzePackages(pkgs, analyzers, true)
}

func analyzePackages(pkgs []*Package, analyzers []*Analyzer, strict bool) []Finding {
	var out []Finding
	for _, pkg := range pkgs {
		out = append(out, analyze(pkg, analyzers, strict)...)
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
