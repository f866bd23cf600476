package vizndp

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// referenceDocs are the documents that describe the tree as it is.
// CHANGES.md and ROADMAP.md name deleted code on purpose and are not
// checked.
var referenceDocs = []string{
	"DESIGN.md",
	"README.md",
	"EXPERIMENTS.md",
	".claude/skills/verify/SKILL.md",
	"bench/README.md",
}

var (
	// codeSpan is one inline code span, which may wrap onto the next
	// line but not past a blank one; fenced blocks are dropped first.
	codeSpan = regexp.MustCompile("`((?:[^`\n]|\n[^`\n])+)`")
	// goRef is a whole code span naming pkg.Name, pkg.Type.Member or
	// pkg.Name(…), Name exported.
	goRef = regexp.MustCompile(`^([a-z][a-z0-9]*)\.([A-Z][A-Za-z0-9_]*)(?:\.([A-Za-z_][A-Za-z0-9_]*))?(?:\(.*\))?$`)
	// testRef is a whole code span naming a test, fuzz target or
	// benchmark: a trailing * makes it a prefix, and a /subtest suffix
	// is dropped.
	testRef = regexp.MustCompile(`^((?:Test|Fuzz|Benchmark)[A-Z_0-9][A-Za-z0-9_]*)(\*?)(?:/\S*)?$`)
	// lineRef is a pointer to a line of a Go file.
	lineRef = regexp.MustCompile(`[A-Za-z0-9_./-]+\.go:[0-9]+`)
	// sectionRef is a cross-reference to a DESIGN.md section by name,
	// which may wrap onto the next line.
	sectionRef = regexp.MustCompile(`DESIGN\.md,?\s+(?:"([^"\n]+(?:\n[^"\n]+)?)"|\*([^*\n]+(?:\n[^*\n]+)?)\*)`)
	heading    = regexp.MustCompile(`(?m)^#+\s+(.+?)\s*$`)
	fence      = regexp.MustCompile("(?ms)^\\s*```.*?^\\s*```")
)

// moduleDecls maps each package of the module, by name (a command by its
// directory's), to its declared names, to the members — methods and
// struct or interface fields — of each of its types, and to the funcs
// of its test files. Test files count.
type moduleDecls map[string]*pkgDecls

type pkgDecls struct {
	names   map[string]bool
	members map[string]map[string]bool
	tests   map[string]bool
}

func parseModule(t *testing.T) moduleDecls {
	t.Helper()
	fset := token.NewFileSet()
	mod := moduleDecls{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		name := strings.TrimSuffix(f.Name.Name, "_test")
		if name == "main" {
			name = filepath.Base(filepath.Dir(path))
		}
		p := mod[name]
		if p == nil {
			p = &pkgDecls{names: map[string]bool{}, members: map[string]map[string]bool{}, tests: map[string]bool{}}
			mod[name] = p
		}
		p.add(f, strings.HasSuffix(path, "_test.go"))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

func (p *pkgDecls) member(typ, name string) {
	if p.members[typ] == nil {
		p.members[typ] = map[string]bool{}
	}
	p.members[typ][name] = true
}

func (p *pkgDecls) add(f *ast.File, testFile bool) {
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				p.names[d.Name.Name] = true
				if testFile {
					p.tests[d.Name.Name] = true
				}
			} else if typ := recvType(d.Recv.List[0].Type); typ != "" {
				p.member(typ, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.ValueSpec:
					for _, n := range s.Names {
						p.names[n.Name] = true
					}
				case *ast.TypeSpec:
					p.names[s.Name.Name] = true
					var fields *ast.FieldList
					switch tt := s.Type.(type) {
					case *ast.StructType:
						fields = tt.Fields
					case *ast.InterfaceType:
						fields = tt.Methods
					}
					if fields == nil {
						continue
					}
					for _, fld := range fields.List {
						for _, n := range fld.Names {
							p.member(s.Name.Name, n.Name)
						}
						if len(fld.Names) == 0 { // embedded: its type's name
							if typ := recvType(fld.Type); typ != "" {
								p.member(s.Name.Name, typ)
							}
						}
					}
				}
			}
		}
	}
}

// recvType is the bare type name of a receiver or embedded field:
// T, *T, T[K] and pkg.T all give T.
func recvType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.SelectorExpr:
			return x.Sel.Name
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// resolve says what is wrong with a code span that names pkg.Name or
// pkg.Type.Member of a module package, or a test function of the module,
// or "" when it names something declared or is not such a reference.
func (m moduleDecls) resolve(span string) string {
	if g := testRef.FindStringSubmatch(span); g != nil {
		for _, p := range m {
			for name := range p.tests {
				if name == g[1] || g[2] == "*" && strings.HasPrefix(name, g[1]) {
					return ""
				}
			}
		}
		return "no test file of the module declares " + g[1] + g[2]
	}
	g := goRef.FindStringSubmatch(span)
	if g == nil {
		return ""
	}
	p := m[g[1]]
	if p == nil {
		return "" // a stdlib package, a variable or a metric name
	}
	if !p.names[g[2]] {
		return g[1] + " declares no " + g[2]
	}
	if g[3] != "" && !p.members[g[2]][g[3]] {
		return g[1] + "." + g[2] + " has no method or field " + g[3]
	}
	return ""
}

// designHeadings are DESIGN.md's section titles.
func designHeadings(t *testing.T) []string {
	t.Helper()
	b, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, h := range heading.FindAllStringSubmatch(string(fence.ReplaceAllString(string(b), "")), -1) {
		out = append(out, h[1])
	}
	return out
}

// namesHeading reports whether ref is a heading's title, or the part of
// one before its colon.
func namesHeading(ref string, headings []string) bool {
	for _, h := range headings {
		if h == ref || strings.HasPrefix(h, ref+":") {
			return true
		}
	}
	return false
}

// TestDocReferencesResolve holds the documents that describe the tree to
// it: every backticked pkg.Name, pkg.Type.Member or pkg.Name() of a
// module package names a declared func, type, var, const, method or
// struct field; every backticked bare Test*, Fuzz* or Benchmark* name
// (Name* a prefix, /subtest dropped) names a func of a test file; no
// document points at a line of a Go file, which the next edit moves; and
// every DESIGN.md section cited by name exists.
func TestDocReferencesResolve(t *testing.T) {
	mod := parseModule(t)
	for _, p := range []string{"core", "vtkio", "harness", "bench", "vizpipe"} {
		if mod[p] == nil || len(mod[p].names) == 0 {
			t.Fatalf("parsed no declarations of package %s", p)
		}
	}
	headings := designHeadings(t)
	for _, doc := range referenceDocs {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(b)
		line := func(off int) int { return 1 + strings.Count(text[:off], "\n") }
		prose := fence.ReplaceAllStringFunc(text, func(s string) string {
			return strings.Repeat("\n", strings.Count(s, "\n")) // keep line numbers
		})
		for _, loc := range codeSpan.FindAllStringSubmatchIndex(prose, -1) {
			span := strings.Join(strings.Fields(prose[loc[2]:loc[3]]), " ")
			if msg := mod.resolve(span); msg != "" {
				t.Errorf("%s:%d: `%s`: %s", doc, line(loc[0]), span, msg)
			}
		}
		for _, loc := range lineRef.FindAllStringIndex(text, -1) {
			t.Errorf("%s:%d: %s points at a line number; name the symbol instead", doc, line(loc[0]), text[loc[0]:loc[1]])
		}
		for _, loc := range sectionRef.FindAllStringSubmatchIndex(text, -1) {
			ref := ""
			for i := 2; i < len(loc); i += 2 {
				if loc[i] >= 0 {
					ref = strings.Join(strings.Fields(text[loc[i]:loc[i+1]]), " ")
				}
			}
			if !namesHeading(ref, headings) {
				t.Errorf("%s:%d: DESIGN.md has no section %q", doc, line(loc[0]), ref)
			}
		}
	}
}
