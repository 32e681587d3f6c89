// Command unusedcheck fails when an exported function or method under a
// module's internal/ tree has no caller outside test files.
//
//	go run ./scripts/unusedcheck [-allow allowlist.txt] [module-dir]
//
// It type-checks every non-test package of the module from source
// (go/build picks the files, go/parser reads them, go/types checks them;
// standard-library imports come from importer.Default) and records every
// reference to a function. An exported function or method declared under
// internal/ is reached when a reference to it sits outside any unreached
// exported declaration, so a chain of exports that only call each other
// is reported whole. A method is also reached when its receiver satisfies
// an interface the checker can see that declares it: an interface of the
// module, one of a standard-library package the module imports directly
// or indirectly, or an interface literal in the module's code.
//
// Everything else that is unreached fails the check unless the allowlist
// names it with one reason from a closed set (see reasons). An allowlist
// entry that no longer names an unreached export fails too, so the list
// cannot outlive the code it excuses. Nested modules (directories with
// their own go.mod), testdata and hidden directories are not read.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// reasons is the closed set of reasons an allowlist entry may give: the
// export is called by the frozen service benchmark module, is a test fake
// for a production interface, is a reference implementation a test
// compares against, or is the handler tests mount in httptest.
var reasons = []string{"servicebench", "test-fake", "test-reference", "test-handler"}

func main() {
	allow := flag.String("allow", "", "allowlist `file`: one \"key reason\" line per excused export")
	flag.Parse()
	dir := "."
	if flag.NArg() > 0 {
		dir = flag.Arg(0)
	}
	failed, err := run(dir, *allow, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "unusedcheck:", err)
		os.Exit(2)
	}
	if failed {
		os.Exit(1)
	}
}

// run checks the module at dir against the allowlist at allowPath (none
// when empty), writes its report to w and says whether the check failed.
func run(dir, allowPath string, w io.Writer) (bool, error) {
	allow, err := readAllowlist(allowPath)
	if err != nil {
		return false, err
	}
	l, err := newLoader(dir)
	if err != nil {
		return false, err
	}
	if err := l.loadAll(); err != nil {
		return false, err
	}
	cands := l.candidates()
	reached := l.reach(cands, allow)

	failed := false
	exempt, allowed, lines := 0, 0, 0
	for _, c := range cands {
		switch {
		case c.viaInterface:
			exempt++
		case reached[c.obj]:
		case allow[c.key] != "":
			allowed++
			delete(allow, c.key)
		default:
			failed = true
			lines += c.lines
			fmt.Fprintf(w, "%s: %s is exported but has no caller outside tests\n", c.pos, c.key)
		}
	}
	for _, key := range slices.Sorted(maps.Keys(allow)) {
		failed = true
		fmt.Fprintf(w, "%s: allowlist entry %s names no unreached export\n", allowPath, key)
	}
	fmt.Fprintf(w, "unusedcheck: %d packages, %d exported functions under internal/: %d reached through an interface, %d allowlisted\n",
		len(l.order), len(cands), exempt, allowed)
	if lines > 0 {
		fmt.Fprintf(w, "unusedcheck: the unreached exports above span %d lines, doc comments included\n", lines)
	}
	return failed, nil
}

// readAllowlist parses "key reason" lines; '#' starts a comment.
func readAllowlist(path string) (map[string]string, error) {
	allow := map[string]string{}
	if path == "" {
		return allow, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line, _, _ := strings.Cut(sc.Text(), "#")
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(fields) != 2 {
			return nil, fmt.Errorf("%s:%d: want \"key reason\", got %q", path, n, line)
		}
		if !slices.Contains(reasons, fields[1]) {
			return nil, fmt.Errorf("%s:%d: reason %q is not one of %s", path, n, fields[1], strings.Join(reasons, ", "))
		}
		if _, dup := allow[fields[0]]; dup {
			return nil, fmt.Errorf("%s:%d: %s is listed twice", path, n, fields[0])
		}
		allow[fields[0]] = fields[1]
	}
	return allow, sc.Err()
}

// pkg is one type-checked non-test package of the module.
type pkg struct {
	rel   string // directory relative to the module root, slash-separated
	files []*ast.File
	info  *types.Info
	types *types.Package
}

type loader struct {
	fset    *token.FileSet
	modPath string
	modDir  string
	std     types.Importer
	pkgs    map[string]*pkg // by import path; nil while being loaded
	order   []*pkg
}

func newLoader(dir string) (*loader, error) {
	modDir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	gomod, err := os.ReadFile(filepath.Join(modDir, "go.mod"))
	if err != nil {
		return nil, err
	}
	var modPath string
	for _, line := range strings.Split(string(gomod), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			modPath = strings.Trim(strings.TrimSpace(rest), `"`)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("%s/go.mod declares no module", modDir)
	}
	return &loader{
		fset:    token.NewFileSet(),
		modPath: modPath,
		modDir:  modDir,
		std:     importer.Default(),
		pkgs:    map[string]*pkg{},
	}, nil
}

// loadAll type-checks every package directory of the module.
func (l *loader) loadAll() error {
	return filepath.WalkDir(l.modDir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != l.modDir {
			if name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		rel, _ := filepath.Rel(l.modDir, path)
		_, err = l.load(l.importPath(filepath.ToSlash(rel)))
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		return err
	})
}

func (l *loader) importPath(rel string) string {
	if rel == "." {
		return l.modPath
	}
	return l.modPath + "/" + rel
}

// Import resolves the module's own packages from source and everything
// else through the standard importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if path != l.modPath && !strings.HasPrefix(path, l.modPath+"/") {
		return l.std.Import(path)
	}
	p, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return p.types, nil
}

func (l *loader) load(path string) (*pkg, error) {
	if p, seen := l.pkgs[path]; seen {
		if p == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return p, nil
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modPath), "/")
	if rel == "" {
		rel = "."
	}
	bp, err := build.ImportDir(filepath.Join(l.modDir, filepath.FromSlash(rel)), 0)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = nil
	p := &pkg{rel: rel, info: &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(bp.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: l}
	if p.types, err = conf.Check(path, l.fset, p.files, p.info); err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	l.order = append(l.order, p)
	return p, nil
}

// candidate is an exported function or method declared under internal/.
type candidate struct {
	obj          *types.Func
	key          string // allowlist key: <package dir>.[<Recv>.]<Name>
	pos          string // file:line, relative to the module root
	lines        int    // lines the declaration spans, its doc comment included
	viaInterface bool
}

func (l *loader) candidates() []*candidate {
	ifaces := l.interfaces()
	var cands []*candidate
	for _, p := range l.order {
		if p.rel != "internal" && !strings.HasPrefix(p.rel, "internal/") {
			continue
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				obj := p.info.Defs[fd.Name].(*types.Func)
				key := p.rel + "." + fd.Name.Name
				sig := obj.Type().(*types.Signature)
				if recv := sig.Recv(); recv != nil {
					key = p.rel + "." + recvName(recv.Type()) + "." + fd.Name.Name
				}
				start := fd.Pos()
				if fd.Doc != nil {
					start = fd.Doc.Pos()
				}
				pos := l.fset.Position(fd.Pos())
				file, _ := filepath.Rel(l.modDir, pos.Filename)
				cands = append(cands, &candidate{
					obj:          obj,
					key:          key,
					pos:          fmt.Sprintf("%s:%d", filepath.ToSlash(file), pos.Line),
					lines:        l.fset.Position(fd.End()).Line - l.fset.Position(start).Line + 1,
					viaInterface: sig.Recv() != nil && satisfies(sig.Recv().Type(), obj.Name(), ifaces),
				})
			}
		}
	}
	return cands
}

func recvName(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return t.String()
}

// interfaces indexes, by method name, every interface the checker can
// see: named interfaces of every package the module imports, directly or
// not, and interface types written anywhere in the module's code.
func (l *loader) interfaces() map[string][]*types.Interface {
	byName := map[string][]*types.Interface{}
	seen := map[*types.Interface]bool{}
	add := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || seen[it] || it.NumMethods() == 0 {
			return
		}
		seen[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			byName[name] = append(byName[name], it)
		}
	}
	add(types.Universe.Lookup("error").Type())
	visited := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(tp *types.Package) {
		if visited[tp] {
			return
		}
		visited[tp] = true
		for _, name := range tp.Scope().Names() {
			if tn, ok := tp.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range tp.Imports() {
			walk(imp)
		}
	}
	for _, p := range l.order {
		walk(p.types)
		for _, tv := range p.info.Types {
			if tv.IsType() {
				add(tv.Type)
			}
		}
	}
	return byName
}

// satisfies reports whether recv (or a pointer to it) implements an
// interface that declares a method called name.
func satisfies(recv types.Type, name string, ifaces map[string][]*types.Interface) bool {
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	for _, it := range ifaces[name] {
		if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
			return true
		}
	}
	return false
}

// reach returns the set of candidates that a live reference reaches. A
// reference is live unless it sits inside a candidate's declaration that
// is itself neither reached, reached through an interface nor allowlisted.
func (l *loader) reach(cands []*candidate, allow map[string]string) map[*types.Func]bool {
	isCand := map[*types.Func]bool{}
	for _, c := range cands {
		isCand[c.obj] = true
	}
	// refs maps each candidate to the functions its declaration references;
	// the key nil collects every reference made outside a candidate.
	refs := map[*types.Func][]*types.Func{}
	for _, p := range l.order {
		for _, f := range p.files {
			for _, decl := range f.Decls {
				var from *types.Func
				if fd, ok := decl.(*ast.FuncDecl); ok {
					if fn, ok := p.info.Defs[fd.Name].(*types.Func); ok && isCand[fn] {
						from = fn
					}
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if fn, ok := p.info.Uses[id].(*types.Func); ok {
							refs[from] = append(refs[from], fn.Origin())
						}
					}
					return true
				})
			}
		}
	}
	reached := map[*types.Func]bool{}
	queue := []*types.Func{nil}
	for _, c := range cands {
		if c.viaInterface || allow[c.key] != "" {
			queue = append(queue, c.obj)
		}
	}
	for len(queue) > 0 {
		from := queue[0]
		queue = queue[1:]
		for _, to := range refs[from] {
			if to == from || reached[to] || !isCand[to] {
				continue
			}
			reached[to] = true
			queue = append(queue, to)
		}
	}
	return reached
}
