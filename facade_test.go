package hrdb_test

import (
	"bufio"
	"bytes"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestFacadeExportsHaveUsers holds hrdb.go to one rule: an exported name
// stays only if code outside the facade names it — examples/, cmd/, bench/
// or a root test — or a kept facade declaration names it: a kept func's
// parameters or results, the type of a kept const or var, a field of a kept
// struct that callers build as a literal, or a method of a kept interface.
// It also refuses two exported names for one type.
func TestFacadeExportsHaveUsers(t *testing.T) {
	fset := token.NewFileSet()
	facade, err := parser.ParseFile(fset, "hrdb.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	pkg := typeCheckFacade(t, fset, facade)
	scope := pkg.Scope()

	// byType maps each type the facade aliases to its exported name.
	byType := map[*types.TypeName]string{}
	exported := 0
	for _, name := range scope.Names() {
		if !token.IsExported(name) {
			continue
		}
		exported++
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		named, ok := types.Unalias(tn.Type()).(*types.Named)
		if !ok {
			continue
		}
		if other, dup := byType[named.Obj()]; dup {
			t.Errorf("hrdb.%s and hrdb.%s name the same type", other, name)
		}
		byType[named.Obj()] = name
	}
	t.Logf("hrdb.go exports %d names", exported)

	used, built := facadeCallers(t, fset)
	kept := map[string]bool{}
	var queue []string
	keep := func(name string) {
		if token.IsExported(name) && scope.Lookup(name) != nil && !kept[name] {
			kept[name] = true
			queue = append(queue, name)
		}
	}
	for name := range used {
		keep(name)
	}
	names := func(typ types.Type) {
		walkNamed(typ, func(tn *types.TypeName) {
			if name, ok := byType[tn]; ok {
				keep(name)
			}
		})
	}
	for len(queue) > 0 {
		name := queue[0]
		queue = queue[1:]
		obj := scope.Lookup(name)
		if _, ok := obj.(*types.TypeName); !ok {
			names(obj.Type()) // a func's signature, a const's or var's type
			continue
		}
		switch u := obj.Type().Underlying().(type) {
		case *types.Struct:
			if built[name] {
				for i := 0; i < u.NumFields(); i++ {
					if f := u.Field(i); f.Exported() {
						names(f.Type())
					}
				}
			}
		case *types.Interface:
			for i := 0; i < u.NumMethods(); i++ {
				names(u.Method(i).Type())
			}
		}
	}

	var unused []string
	for _, name := range scope.Names() {
		if token.IsExported(name) && !kept[name] {
			unused = append(unused, name)
		}
	}
	if len(unused) > 0 {
		t.Errorf("%d exported names in hrdb.go have no user: %s", len(unused), strings.Join(unused, ", "))
	}
}

// typeCheckFacade type-checks hrdb.go alone against the compiled export
// data of the packages it imports.
func typeCheckFacade(t *testing.T, fset *token.FileSet, facade *ast.File) *types.Package {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	out, err := exec.Command("go", "list", "-export", "-deps", "-f", "{{.ImportPath}} {{.Export}}", ".").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	exports := map[string]string{}
	for sc := bufio.NewScanner(bytes.NewReader(out)); sc.Scan(); {
		if path, file, ok := strings.Cut(sc.Text(), " "); ok {
			exports[path] = file
		}
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})}
	pkg, err := conf.Check("hrdb", fset, []*ast.File{facade}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

// facadeCallers returns the facade names that code outside hrdb.go uses,
// and among them those it builds as composite literals. In examples/, cmd/,
// bench/ and the external root tests a use is a selector hrdb.<Name>; in
// the root tests of package hrdb it is a bare identifier.
func facadeCallers(t *testing.T, fset *token.FileSet) (used, built map[string]bool) {
	t.Helper()
	used, built = map[string]bool{}, map[string]bool{}
	var files []string
	for _, dir := range []string{"examples", "cmd", "bench"} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
				files = append(files, path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	tests, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range tests {
		if path != "facade_test.go" {
			files = append(files, path)
		}
	}
	sort.Strings(files)
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		inFacade := f.Name.Name == "hrdb"
		// facadeName reports the facade name an expression denotes, if any.
		facadeName := func(e ast.Expr) (string, bool) {
			switch e := e.(type) {
			case *ast.SelectorExpr:
				if x, ok := e.X.(*ast.Ident); ok && x.Name == "hrdb" {
					return e.Sel.Name, true
				}
			case *ast.Ident:
				return e.Name, inFacade
			}
			return "", false
		}
		var visit func(ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				if n.Type != nil {
					ast.Inspect(n.Type, func(m ast.Node) bool {
						if e, ok := m.(ast.Expr); ok {
							if name, ok := facadeName(e); ok {
								built[name] = true
							}
						}
						return true
					})
				}
			case *ast.SelectorExpr:
				// The selected name is a field or method unless X is the
				// facade package itself.
				if name, ok := facadeName(n); ok {
					used[name] = true
				} else {
					ast.Inspect(n.X, visit)
				}
				return false
			case *ast.Ident:
				if name, ok := facadeName(n); ok {
					used[name] = true
				}
			}
			return true
		}
		ast.Inspect(f, visit)
	}
	return used, built
}

// walkNamed calls fn for every named type that typ is built from, without
// looking inside the named types themselves.
func walkNamed(typ types.Type, fn func(*types.TypeName)) {
	switch typ := types.Unalias(typ).(type) {
	case *types.Named:
		fn(typ.Obj())
	case *types.Pointer:
		walkNamed(typ.Elem(), fn)
	case *types.Slice:
		walkNamed(typ.Elem(), fn)
	case *types.Array:
		walkNamed(typ.Elem(), fn)
	case *types.Chan:
		walkNamed(typ.Elem(), fn)
	case *types.Map:
		walkNamed(typ.Key(), fn)
		walkNamed(typ.Elem(), fn)
	case *types.Signature:
		for _, tuple := range []*types.Tuple{typ.Params(), typ.Results()} {
			for i := 0; i < tuple.Len(); i++ {
				walkNamed(tuple.At(i).Type(), fn)
			}
		}
	}
}
