package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked package of the module under analysis.
type Package struct {
	// Path is the package's import path within the module.
	Path string
	// Dir is the package's directory on disk.
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// TypeErrors collects type-checker diagnostics. Imports from outside
	// the module are stubbed (see loader.Import), so errors mentioning
	// external packages are expected and harmless: every checker matches
	// only module-local symbols, which resolve fully.
	TypeErrors []error
	// bindings maps single-assignment local variables to the function
	// value they hold — a method value (f := b.Barrier), a named function
	// (f := helper), or a function literal. calleeFunc and resolveCallee
	// consult it so a call through such a variable resolves to its target
	// instead of being opaque. Built once per package by buildBindings.
	bindings map[*types.Var]ast.Expr
}

// Program is the unit the analyzers run over: the requested packages plus
// a shared FileSet. Dependency packages inside the module are loaded and
// type-checked as needed but only the requested ones are analyzed.
type Program struct {
	Fset *token.FileSet
	Pkgs []*Package

	// idx caches whole-program resolution facts (single-implementation
	// interface methods); sums caches the per-function effect summaries.
	// Both are built lazily and shared by every checker in a Run.
	idx  *progIndex
	sums *summarySet

	// allows caches the parsed //arcklint:allow directives (filename ->
	// covered line -> directives), allowsBad the malformed ones, and
	// allowsUsed the directives (by their own position) that suppressed a
	// finding or gated a summary propagation — the liveness bit the
	// -suppressions audit reads.
	allows     map[string]map[int][]allowDirective
	allowsBad  []Finding
	allowsUsed map[token.Position]bool
}

// FindModuleRoot walks upward from dir to the directory holding go.mod
// and returns it together with the declared module path.
func FindModuleRoot(dir string) (root, modPath string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		gomod := filepath.Join(dir, "go.mod")
		if data, rerr := os.ReadFile(gomod); rerr == nil {
			mp := parseModulePath(data)
			if mp == "" {
				return "", "", fmt.Errorf("%s: no module directive", gomod)
			}
			return dir, mp, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

func parseModulePath(gomod []byte) string {
	for _, line := range strings.Split(string(gomod), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`)
		}
	}
	return ""
}

// loader parses and type-checks module-local packages. Imports that leave
// the module (the standard library included) resolve to empty stub
// packages: the checkers' symbol tables reference only module-local
// types, so full external type information buys nothing, and stubbing
// keeps the tool fast and fully offline.
type loader struct {
	fset    *token.FileSet
	root    string
	modPath string
	pkgs    map[string]*Package
	loading map[string]bool
	stubs   map[string]*types.Package
}

func newLoader(root, modPath string) *loader {
	return &loader{
		fset:    token.NewFileSet(),
		root:    root,
		modPath: modPath,
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
		stubs:   make(map[string]*types.Package),
	}
}

// Import implements types.Importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	if p, ok := l.stubs[path]; ok {
		return p, nil
	}
	name := path
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	p := types.NewPackage(path, name)
	p.MarkComplete()
	l.stubs[path] = p
	return p, nil
}

func (l *loader) dirFor(importPath string) string {
	rel := strings.TrimPrefix(strings.TrimPrefix(importPath, l.modPath), "/")
	return filepath.Join(l.root, filepath.FromSlash(rel))
}

// load parses and type-checks one module-local package (memoized).
func (l *loader) load(importPath string) (*Package, error) {
	if p, ok := l.pkgs[importPath]; ok {
		return p, nil
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("import cycle through %s", importPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	dir := l.dirFor(importPath)
	names, err := goFilesIn(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("%s: no buildable Go files", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	p := &Package{
		Path:  importPath,
		Dir:   dir,
		Files: files,
		Info: &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
		},
	}
	conf := types.Config{
		Importer:         l,
		FakeImportC:      true,
		Error:            func(err error) { p.TypeErrors = append(p.TypeErrors, err) },
		IgnoreFuncBodies: false,
	}
	// Check continues past errors (stubbed imports produce some); the
	// partial Info it leaves behind is complete for module-local symbols.
	p.Types, _ = conf.Check(importPath, l.fset, files, p.Info)
	p.buildBindings()
	l.pkgs[importPath] = p
	return p, nil
}

// buildBindings records, for every local variable in the package that is
// assigned exactly once, the function-valued expression it is bound to (a
// method value, a named function, or a function literal). Variables
// written more than once are dropped: a rebinding would make the call
// target path-dependent, which the checkers do not model.
func (p *Package) buildBindings() {
	p.bindings = make(map[*types.Var]ast.Expr)
	writes := make(map[*types.Var]int)
	bind := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		obj := p.Info.Defs[id]
		if obj == nil {
			obj = p.Info.Uses[id]
		}
		v, ok := obj.(*types.Var)
		if !ok {
			return
		}
		writes[v]++
		if rhs == nil {
			return
		}
		switch fn := ast.Unparen(rhs).(type) {
		case *ast.FuncLit:
			p.bindings[v] = fn
		case *ast.SelectorExpr:
			if _, ok := p.Info.Uses[fn.Sel].(*types.Func); ok {
				p.bindings[v] = fn
			}
		case *ast.Ident:
			if _, ok := p.Info.Uses[fn].(*types.Func); ok {
				p.bindings[v] = fn
			}
		}
	}
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i := range n.Lhs {
						bind(n.Lhs[i], n.Rhs[i])
					}
				} else {
					for _, lhs := range n.Lhs {
						bind(lhs, nil)
					}
				}
			case *ast.ValueSpec:
				for i, name := range n.Names {
					if i < len(n.Values) {
						bind(name, n.Values[i])
					} else {
						bind(name, nil)
					}
				}
			case *ast.RangeStmt:
				bind(n.Key, nil)
				bind(n.Value, nil)
			case *ast.IncDecStmt:
				bind(n.X, nil)
			}
			return true
		})
	}
	for v, n := range writes {
		if n != 1 {
			delete(p.bindings, v)
		}
	}
}

// goFilesIn lists the non-test Go files of dir, sorted.
func goFilesIn(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		if strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// LoadDirs type-checks the packages in the given directories (which must
// live under root, the module root) and returns them as a Program.
func LoadDirs(root string, dirs []string) (*Program, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	_, modPath, err := FindModuleRoot(root)
	if err != nil {
		return nil, err
	}
	l := newLoader(root, modPath)
	seen := make(map[string]bool)
	var pkgs []*Package
	for _, dir := range dirs {
		abs, err := filepath.Abs(dir)
		if err != nil {
			return nil, err
		}
		rel, err := filepath.Rel(root, abs)
		if err != nil || strings.HasPrefix(rel, "..") {
			return nil, fmt.Errorf("directory %s is outside module root %s", dir, root)
		}
		importPath := modPath
		if rel != "." {
			importPath = modPath + "/" + filepath.ToSlash(rel)
		}
		if seen[importPath] {
			continue
		}
		seen[importPath] = true
		p, err := l.load(importPath)
		if err != nil {
			return nil, fmt.Errorf("loading %s: %w", importPath, err)
		}
		pkgs = append(pkgs, p)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return &Program{Fset: l.fset, Pkgs: pkgs}, nil
}

// ExpandPatterns resolves package patterns relative to cwd into the
// module root and the list of package directories to load. Supported
// patterns: a directory path, "dir/..." for a subtree, and "./..." for
// the whole module.
func ExpandPatterns(cwd string, patterns []string) (root string, dirs []string, err error) {
	root, _, err = FindModuleRoot(cwd)
	if err != nil {
		return "", nil, err
	}
	seen := make(map[string]bool)
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		base, recursive := pat, false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			base, recursive = rest, true
			if base == "." || base == "" {
				base = cwd
			}
		}
		if !filepath.IsAbs(base) {
			base = filepath.Join(cwd, base)
		}
		if !recursive {
			add(base)
			continue
		}
		err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			if path != base {
				name := d.Name()
				if name == "testdata" || name == "vendor" ||
					strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
					return filepath.SkipDir
				}
				// A directory with its own go.mod is another module,
				// which ./... does not reach (as with go list).
				if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
					return filepath.SkipDir
				}
			}
			if names, err := goFilesIn(path); err == nil && len(names) > 0 {
				add(path)
			}
			return nil
		})
		if err != nil {
			return "", nil, err
		}
	}
	sort.Strings(dirs)
	return root, dirs, nil
}
