package mgsilt

import (
	"bufio"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestReachabilityAudit fails on every exported name of the module that
// no non-test code uses, every exported field that code writes but
// never reads, and every field it reads but never sets or package-level
// var it reads but only tests assign (a knob only tests turn), unless
// audit_allowlist.txt lists it with a reason. The
// benchmark module and the examples count as callers. An allowlist line
// that matches nothing fails too, so the list only shrinks.
func TestReachabilityAudit(t *testing.T) {
	found, err := audit(t, ".", "benchmark", "examples")
	if err != nil {
		t.Fatal(err)
	}
	allowed := readAllowlist(t, "audit_allowlist.txt")
	for _, e := range found {
		if _, ok := allowed[e]; !ok {
			t.Errorf("%s: outside tests it is unused, only written or never set; delete it, or allowlist it with a reason", e)
		}
	}
	for e := range allowed {
		if !slices.Contains(found, e) {
			t.Errorf("audit_allowlist.txt: %s is no longer reported; drop the line", e)
		}
	}
}

// The fixture module plants eight candidates; the audit reports exactly
// the five that are dead code or an unset knob.
func TestReachabilityAuditFixture(t *testing.T) {
	found, err := audit(t, filepath.Join("testdata", "audit"))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"fixture.DeadFunc",
		"fixture.Verbose:never-set",
		"fixture/shapes.Square.DeadMethod",
		"fixture/shapes.Square.Scale:never-set",
		"fixture/shapes.Square.Tag:write-only",
	}
	if !slices.Equal(found, want) {
		t.Fatalf("audit found\n%s\nwant\n%s", strings.Join(found, "\n"), strings.Join(want, "\n"))
	}
}

// readAllowlist maps each entry of the allowlist file to its reason.
func readAllowlist(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]string{}
	for sc := bufio.NewScanner(f); sc.Scan(); {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		entry, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			t.Errorf("%s: %s has no reason", path, entry)
		}
		out[entry] = reason
	}
	return out
}

// auditPkg is one loaded package: its files, and once checked, its
// types and the uses they record.
type auditPkg struct {
	path   string
	files  []*ast.File
	tests  []*ast.File // parsed for their assignments only, never type-checked
	report bool        // false for callers, whose own names are not audited
	types  *types.Package
	info   *types.Info
}

// auditLoader type-checks the packages it loaded from source and hands
// everything else (the standard library) to the source importer, so an
// object is the same *types.Object in every package that refers to it.
type auditLoader struct {
	fset *token.FileSet
	pkgs map[string]*auditPkg
	std  types.ImporterFrom
}

func (l *auditLoader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

func (l *auditLoader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	p, ok := l.pkgs[path]
	if !ok {
		return l.std.ImportFrom(path, dir, mode)
	}
	if p.types == nil {
		p.info = &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}
		conf := types.Config{Importer: l}
		pkg, err := conf.Check(path, l.fset, p.files, p.info)
		if err != nil {
			return nil, err
		}
		p.types = pkg
	}
	return p.types, nil
}

// load parses the non-test files of every package under root. A
// directory with its own go.mod starts a module of that path; caller
// directories (relative to root) are loaded but not audited.
func (l *auditLoader) load(root string, callers []string) error {
	var walk func(dir, modDir, modPath string, report bool) error
	walk = func(dir, modDir, modPath string, report bool) error {
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			modDir, modPath = dir, modulePath(data)
			if modPath == "" {
				return fmt.Errorf("%s/go.mod: no module line", dir)
			}
		}
		rel, _ := filepath.Rel(root, dir)
		if slices.Contains(callers, filepath.ToSlash(rel)) {
			report = false
		}
		bp, err := build.Default.ImportDir(dir, 0)
		var noGo *build.NoGoError
		switch {
		case errors.As(err, &noGo):
		case err != nil:
			return err
		default:
			path := modPath
			if r, _ := filepath.Rel(modDir, dir); r != "." {
				path += "/" + filepath.ToSlash(r)
			}
			p := &auditPkg{path: path, report: report}
			for _, name := range bp.GoFiles {
				f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
				if err != nil {
					return err
				}
				p.files = append(p.files, f)
			}
			for _, name := range slices.Concat(bp.TestGoFiles, bp.XTestGoFiles) {
				// Object resolution marks which identifiers a test file
				// declares itself, so a local never passes for a package var.
				f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, 0)
				if err != nil {
					return err
				}
				p.tests = append(p.tests, f)
			}
			l.pkgs[path] = p
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		for _, e := range entries {
			name := e.Name()
			if !e.IsDir() || name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				continue
			}
			if err := walk(filepath.Join(dir, name), modDir, modPath, report); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(root, root, "", true)
}

func modulePath(gomod []byte) string {
	for _, line := range strings.Split(string(gomod), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`)
		}
	}
	return ""
}

// auditDecl is one exported declaration under audit.
type auditDecl struct {
	name            string
	start, end      token.Pos // uses inside this span are the declaration's own
	field           bool
	read, used, set bool
	testSet         bool // a package-level var some test assigns
}

// audit loads the module at root, with the caller directories, and
// returns its dead entries sorted: "pkg.Name", "pkg.Type.Method" or
// "pkg.Type.Field", with ":write-only" on a field that is assigned but
// never read and ":never-set" on one that is read but never assigned,
// or on a package-level var that is read but assigned, beyond its
// declaration, only by tests.
func audit(t *testing.T, root string, callers ...string) ([]string, error) {
	// The source importer would run cgo over the standard library's cgo
	// packages; their pure-Go variants declare the same API.
	cgo := build.Default.CgoEnabled
	build.Default.CgoEnabled = false
	t.Cleanup(func() { build.Default.CgoEnabled = cgo })

	fset := token.NewFileSet()
	l := &auditLoader{
		fset: fset,
		pkgs: map[string]*auditPkg{},
		std:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
	}
	if err := l.load(root, callers); err != nil {
		return nil, err
	}
	for path := range l.pkgs {
		if _, err := l.Import(path); err != nil {
			return nil, err
		}
	}

	decls := map[types.Object]*auditDecl{}
	receivers := map[token.Pos]bool{} // receiver type names are not uses
	for _, p := range l.pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
					ast.Inspect(fd.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							receivers[id.Pos()] = true
						}
						return true
					})
				}
				if p.report {
					collectDecls(p, d, decls)
				}
			}
		}
	}

	// Every non-empty interface the module names or converts to, plus
	// the standard ones the library calls through on its own.
	var ifaces []*types.Interface
	for _, p := range l.pkgs {
		for _, tv := range p.info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
	}
	for _, name := range []string{
		"fmt.Stringer", "fmt.GoStringer", "fmt.Formatter", "io.Reader", "io.Writer", "io.Closer",
		"io.WriterTo", "io.ReaderFrom", "net/http.Handler", "net/http.Flusher",
		"encoding/json.Marshaler", "encoding/json.Unmarshaler", "encoding.TextMarshaler",
		"encoding.TextUnmarshaler", "sort.Interface", "container/heap.Interface", "flag.Value",
	} {
		dot := strings.LastIndex(name, ".")
		pkg, err := l.Import(name[:dot])
		if err != nil {
			return nil, err
		}
		ifaces = append(ifaces, pkg.Scope().Lookup(name[dot+1:]).Type().Underlying().(*types.Interface))
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))

	for _, p := range l.pkgs {
		writes := fieldWrites(p.info, p.files)
		for id, obj := range p.info.Uses {
			d := decls[origin(obj)]
			if d == nil || receivers[id.Pos()] || (id.Pos() >= d.start && id.Pos() < d.end) {
				continue
			}
			d.used = true
			d.set = d.set || writes.pos[id.Pos()] || writes.update[id.Pos()]
			if !writes.pos[id.Pos()] {
				d.read = true
			}
		}
		for obj := range writes.all {
			if d := decls[origin(obj)]; d != nil {
				d.used, d.set = true, true
			}
		}
		for _, obj := range l.testAssigned(p) {
			if d := decls[obj]; d != nil {
				d.testSet = true
			}
		}
	}

	var out []string
	for obj, d := range decls {
		switch {
		case (d.field || d.testSet) && d.read && !d.set:
			out = append(out, d.name+":never-set")
		case d.used && (d.read || !d.field):
		case !d.used && satisfies(obj, ifaces):
		case d.used:
			out = append(out, d.name+":write-only")
		default:
			out = append(out, d.name)
		}
	}
	slices.Sort(out)
	return out, nil
}

// collectDecls records the exported names one top-level declaration
// introduces: funcs, methods, types, consts, vars and the named fields
// of a struct type. A field with a json tag is read and set by
// encoding/json.
func collectDecls(p *auditPkg, d ast.Decl, decls map[types.Object]*auditDecl) {
	add := func(id *ast.Ident, name string, n ast.Node) *auditDecl {
		if !id.IsExported() || id.Name == "_" {
			return nil
		}
		obj := p.info.Defs[id]
		if obj == nil {
			return nil
		}
		ad := &auditDecl{name: name, start: n.Pos(), end: n.End()}
		decls[obj] = ad
		return ad
	}
	switch d := d.(type) {
	case *ast.FuncDecl:
		name := p.path + "." + d.Name.Name
		if d.Recv != nil {
			recv := d.Recv.List[0].Type
			for {
				switch r := recv.(type) {
				case *ast.StarExpr:
					recv = r.X
					continue
				case *ast.IndexExpr:
					recv = r.X
					continue
				case *ast.IndexListExpr:
					recv = r.X
					continue
				}
				break
			}
			name = p.path + "." + recv.(*ast.Ident).Name + "." + d.Name.Name
		}
		add(d.Name, name, d)
	case *ast.GenDecl:
		for _, s := range d.Specs {
			switch s := s.(type) {
			case *ast.TypeSpec:
				add(s.Name, p.path+"."+s.Name.Name, s)
				st, ok := s.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, fld := range st.Fields.List {
					json := fld.Tag != nil && reflect.StructTag(strings.Trim(fld.Tag.Value, "`")).Get("json") != ""
					for _, id := range fld.Names {
						if ad := add(id, p.path+"."+s.Name.Name+"."+id.Name, fld); ad != nil {
							ad.field = true
							if json {
								ad.used, ad.read, ad.set = true, true, true
							}
						}
					}
				}
			case *ast.ValueSpec:
				for _, id := range s.Names {
					add(id, p.path+"."+id.Name, s)
				}
			}
		}
	}
}

// writeSet holds the identifiers a package only stores to: the selector
// or name on the left of = or :=, ++ and --, and keys of struct
// literals; update holds the ones an op= both reads and stores; all
// holds the fields of unkeyed struct literals.
type writeSet struct {
	pos, update map[token.Pos]bool
	all         map[types.Object]bool
}

func fieldWrites(info *types.Info, files []*ast.File) writeSet {
	w := writeSet{pos: map[token.Pos]bool{}, update: map[token.Pos]bool{}, all: map[types.Object]bool{}}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if id := assigned(lhs); id != nil {
						if n.Tok == token.ASSIGN || n.Tok == token.DEFINE {
							w.pos[id.Pos()] = true
						} else {
							w.update[id.Pos()] = true
						}
					}
				}
			case *ast.IncDecStmt:
				if id := assigned(n.X); id != nil {
					w.pos[id.Pos()] = true
				}
			case *ast.CompositeLit:
				st, ok := info.Types[n].Type.Underlying().(*types.Struct)
				if !ok {
					return true
				}
				for i, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						w.pos[kv.Key.Pos()] = true
					} else if i < st.NumFields() {
						w.all[st.Field(i)] = true
					}
				}
			}
			return true
		})
	}
	return w
}

// assigned is the identifier an assignment to e stores to: the name
// itself, or the selected name of a selector.
func assigned(e ast.Expr) *ast.Ident {
	switch e := e.(type) {
	case *ast.Ident:
		return e
	case *ast.SelectorExpr:
		return e.Sel
	}
	return nil
}

// testAssigned returns the package-level objects of loaded packages
// that the test files of p assign: a bare name a file of the package
// itself does not declare, or pkg.Name through one of the file's
// imports.
func (l *auditLoader) testAssigned(p *auditPkg) []types.Object {
	var out []types.Object
	for _, f := range p.tests {
		imports := map[string]*types.Package{}
		for _, spec := range f.Imports {
			path, _ := strconv.Unquote(spec.Path.Value)
			ip, ok := l.pkgs[path]
			if !ok || ip.types == nil {
				continue
			}
			name := ip.types.Name()
			if spec.Name != nil {
				name = spec.Name.Name
			}
			imports[name] = ip.types
		}
		lookup := func(e ast.Expr) {
			switch e := e.(type) {
			case *ast.Ident:
				if e.Obj == nil && f.Name.Name == p.types.Name() {
					if obj := p.types.Scope().Lookup(e.Name); obj != nil {
						out = append(out, obj)
					}
				}
			case *ast.SelectorExpr:
				if x, ok := e.X.(*ast.Ident); ok && x.Obj == nil && imports[x.Name] != nil {
					if obj := imports[x.Name].Scope().Lookup(e.Sel.Name); obj != nil {
						out = append(out, obj)
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if n.Tok != token.DEFINE {
					for _, lhs := range n.Lhs {
						lookup(lhs)
					}
				}
			case *ast.IncDecStmt:
				lookup(n.X)
			}
			return true
		})
	}
	return out
}

// origin maps an object of an instantiated generic type to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// satisfies reports whether obj is a method through which one of the
// interfaces can be called: the interface has a method of that name and
// the receiver type, or a pointer to it, implements the interface.
func satisfies(obj types.Object, ifaces []*types.Interface) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	typ := recv.Type()
	if ptr, ok := typ.(*types.Pointer); ok {
		typ = ptr.Elem()
	}
	named, _ := typ.(*types.Named)
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() != fn.Name() {
				continue
			}
			if named == nil || named.TypeParams().Len() > 0 ||
				types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
				return true
			}
		}
	}
	return false
}
