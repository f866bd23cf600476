package analysis

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/scanner"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one loaded, (possibly partially) type-checked package.
type Package struct {
	// Path is the import path under which the package was checked.
	Path string
	Dir  string
	Fset *token.FileSet
	// Files holds the parsed non-test sources, possibly partial after
	// parse errors.
	Files []*ast.File
	// Types and Info are the type-check results; both survive type
	// errors with whatever information could be computed.
	Types *types.Package
	Info  *types.Info
	// TypeErrors carries parse and type-check errors as findings from
	// the "typecheck" pseudo-analyzer.
	TypeErrors []Finding
}

// maxTypeErrors bounds how many parse/type errors one package reports,
// so a badly broken file doesn't drown real findings.
const maxTypeErrors = 10

// Loader parses and type-checks packages of one module without any
// dependency beyond the standard library and the go command: import
// resolution uses compiler export data obtained from `go list -export`,
// which works for stdlib and module-internal imports alike.
type Loader struct {
	// ModuleDir is the module root (where go.mod lives).
	ModuleDir string
	// ModulePath is the module's declared path.
	ModulePath string
	// WorkDir is the directory go list runs in, so relative patterns
	// resolve the way they do for go build/vet: against the caller's
	// working directory, not the module root.
	WorkDir string

	fset *token.FileSet

	mu      sync.Mutex
	exports map[string]string // import path -> export data file ("" = known absent)
	imp     types.ImporterFrom
}

// NewLoader returns a loader rooted at the module containing dir.
func NewLoader(dir string) (*Loader, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	work, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	l := &Loader{
		ModuleDir:  root,
		ModulePath: modPath,
		WorkDir:    work,
		fset:       token.NewFileSet(),
		exports:    make(map[string]string),
	}
	l.imp = importer.ForCompiler(l.fset, "gc", l.lookupExport).(types.ImporterFrom)
	return l, nil
}

// findModule walks up from dir to the enclosing go.mod and reads its
// module path.
func findModule(dir string) (root, modPath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("analysis: %s/go.mod has no module line", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("analysis: no go.mod found above %s", abs)
		}
		d = parent
	}
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	Dir        string
	ImportPath string
	Name       string
	GoFiles    []string
	Export     string
	DepOnly    bool
	Error      *struct {
		Pos string
		Err string
	}
}

// goList runs `go list -e -export -deps -json` for the given patterns
// in the module directory and returns the decoded packages.
func (l *Loader) goList(patterns ...string) ([]listPkg, error) {
	args := append([]string{
		"list", "-e", "-export", "-deps",
		"-json=Dir,ImportPath,Name,GoFiles,Export,DepOnly,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = l.WorkDir
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("analysis: go list %s: %w\n%s",
			strings.Join(patterns, " "), err, errb.String())
	}
	var pkgs []listPkg
	dec := json.NewDecoder(&out)
	for {
		var p listPkg
		if err := dec.Decode(&p); err != nil {
			if err == io.EOF {
				break
			}
			return nil, fmt.Errorf("analysis: decoding go list output: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// lookupExport resolves an import path to its compiler export data,
// consulting the cache filled by LoadPatterns and falling back to a
// one-off `go list` for paths first seen here (testdata packages import
// paths the initial listing never covered).
func (l *Loader) lookupExport(path string) (io.ReadCloser, error) {
	l.mu.Lock()
	file, ok := l.exports[path]
	l.mu.Unlock()
	if !ok {
		pkgs, err := l.goList(path)
		if err != nil {
			return nil, err
		}
		for _, p := range pkgs {
			l.mu.Lock()
			if _, seen := l.exports[p.ImportPath]; !seen {
				l.exports[p.ImportPath] = p.Export
			}
			l.mu.Unlock()
		}
		l.mu.Lock()
		file = l.exports[path]
		l.mu.Unlock()
	}
	if file == "" {
		return nil, fmt.Errorf("no export data for %q", path)
	}
	f, err := os.Open(file)
	if err != nil {
		return nil, err
	}
	return struct {
		io.Reader
		io.Closer
	}{bufio.NewReader(f), f}, nil
}

// LoadPatterns loads every module package matched by the go package
// patterns (for example "./..."), parsed from source and type-checked
// against export data for all imports.
func (l *Loader) LoadPatterns(patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := l.goList(patterns...)
	if err != nil {
		return nil, err
	}
	var targets []listPkg
	for _, p := range listed {
		l.mu.Lock()
		if _, seen := l.exports[p.ImportPath]; !seen {
			l.exports[p.ImportPath] = p.Export
		}
		l.mu.Unlock()
		inModule := p.ImportPath == l.ModulePath ||
			strings.HasPrefix(p.ImportPath, l.ModulePath+"/")
		if !p.DepOnly && inModule {
			targets = append(targets, p)
		}
	}
	sort.Slice(targets, func(i, j int) bool {
		return targets[i].ImportPath < targets[j].ImportPath
	})
	pkgs := make([]*Package, 0, len(targets))
	for _, t := range targets {
		files := make([]string, len(t.GoFiles))
		for i, f := range t.GoFiles {
			files[i] = filepath.Join(t.Dir, f)
		}
		pkg := l.check(t.ImportPath, t.Dir, files)
		if len(files) == 0 && t.Error != nil {
			// Nothing parseable (for example a directory whose files all
			// fail build constraints, or a go list-level error): surface
			// the listing error so the package isn't silently skipped.
			pkg.TypeErrors = append(pkg.TypeErrors, Finding{
				Pos:      token.Position{Filename: t.Dir},
				Analyzer: TypecheckName,
				Message:  strings.TrimSpace(t.Error.Err),
			})
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// LoadDir loads the single package in dir (non-test .go files) under
// the given import path. Used by tests to analyze testdata packages
// that no go list pattern covers.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") {
			continue
		}
		files = append(files, filepath.Join(dir, name))
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	return l.check(importPath, dir, files), nil
}

// check parses and type-checks one package's files, accumulating parse
// and type errors as typecheck findings rather than failing.
func (l *Loader) check(importPath, dir string, filenames []string) *Package {
	pkg := &Package{Path: importPath, Dir: dir, Fset: l.fset}
	report := func(pos token.Position, msg string) {
		if len(pkg.TypeErrors) >= maxTypeErrors {
			return
		}
		pkg.TypeErrors = append(pkg.TypeErrors, Finding{
			Pos:      pos,
			Analyzer: TypecheckName,
			Message:  msg,
		})
	}
	for _, name := range filenames {
		f, err := parser.ParseFile(l.fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			if list, ok := err.(scanner.ErrorList); ok {
				for _, e := range list {
					report(e.Pos, e.Msg)
				}
			} else {
				report(token.Position{Filename: name}, err.Error())
			}
		}
		if f != nil {
			pkg.Files = append(pkg.Files, f)
		}
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{
		Importer: l.imp,
		Error: func(err error) {
			if te, ok := err.(types.Error); ok {
				report(te.Fset.Position(te.Pos), te.Msg)
			} else {
				report(token.Position{Filename: dir}, err.Error())
			}
		},
	}
	// Check returns an error on the first problem, but with conf.Error
	// set it keeps going and still returns a usable (partial) package.
	tpkg, _ := conf.Check(importPath, l.fset, pkg.Files, info)
	pkg.Types = tpkg
	pkg.Info = info
	return pkg
}
