package sparseorder_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// callerAllowList names the exported internal identifiers that may stay
// without a non-test caller. Each is support that other packages' tests
// share, so moving it into a _test.go file would copy it into every
// package that uses it.
var callerAllowList = map[string]string{
	"faultinject.Fired":     "the fired counters the chaos tests of experiments, server and fsutil assert on",
	"obs.Registry.Families": "the registered families the server's metrics lint test walks",
	"partition.EdgeCut":     "the cut metric the partition and reorder quality tests score partitions by",
}

// interfaceMethods are method names that satisfy standard-library
// interfaces (error, fmt.Stringer, sort.Interface, heap.Interface,
// http.Handler, io), so their callers live behind the interface.
var interfaceMethods = map[string]bool{
	"Error": true, "Unwrap": true, "String": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"ServeHTTP": true, "Read": true, "Write": true, "Close": true,
}

// TestInternalExportsHaveCallers holds every exported package-level name
// and method declared in a non-test file under internal/ to a use in some
// non-test Go file of the repository (cmd/, examples/ and perfbench/
// included). An export only tests use belongs in a _test.go file, or goes.
// A package-level name is used when it is selected through its package's
// import or named inside its own package; a method is used when its name
// is selected on any value, that is on anything but an imported package's
// name (strings.Contains does not use a Contains method). The scan reads
// syntax only: it can miss a dead method whose name another type's method
// or field shares, or one selected on a variable that shadows an import's
// name, and it cannot see calls the standard library makes through an
// interface, hence interfaceMethods.
func TestInternalExportsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	type file struct {
		pkgPath string // import path, e.g. sparseorder/internal/obs
		ast     *ast.File
	}
	var files []file
	pkgName := map[string]string{} // import path -> package name
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkgPath := "sparseorder/" + filepath.ToSlash(filepath.Dir(path))
		files = append(files, file{pkgPath, f})
		pkgName[pkgPath] = f.Name.Name
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	type export struct {
		key    string // pkg.Name or pkg.Type.Method
		name   string // the identifier as written
		method bool
		pos    token.Pos
		used   bool
	}
	exports := map[string]*export{} // by pkgPath + "." + name, package-level only
	var methods []*export
	for _, f := range files {
		if !strings.HasPrefix(f.pkgPath, "sparseorder/internal/") {
			continue
		}
		pkg := f.ast.Name.Name
		add := func(id *ast.Ident) {
			if id.IsExported() {
				exports[f.pkgPath+"."+id.Name] = &export{key: pkg + "." + id.Name, name: id.Name, pos: id.Pos()}
			}
		}
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(d.Name)
				} else if d.Name.IsExported() && !interfaceMethods[d.Name.Name] {
					methods = append(methods, &export{key: pkg + "." + recvType(d.Recv) + "." + d.Name.Name,
						name: d.Name.Name, method: true, pos: d.Name.Pos()})
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(s.Name)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(id)
						}
					}
				}
			}
		}
	}

	selected := map[string]bool{} // every name selected on any value
	for _, f := range files {
		imports := map[string]string{} // local name -> import path
		for _, im := range f.ast.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			name, ok := pkgName[p]
			if !ok { // a standard-library package, named after its path
				name = path.Base(p)
			}
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = p
		}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					if e := exports[imports[x.Name]+"."+n.Sel.Name]; e != nil {
						e.used = true
					}
				} else {
					selected[n.Sel.Name] = true
				}
				ast.Inspect(n.X, visit) // n.Sel names a member, not a package-level identifier
				return false
			case *ast.Ident:
				if e := exports[f.pkgPath+"."+n.Name]; e != nil && e.pos != n.Pos() {
					e.used = true
				}
			}
			return true
		}
		ast.Inspect(f.ast, visit)
	}

	var unused []string
	report := func(e *export) {
		if e.method {
			e.used = selected[e.name]
		}
		_, allowed := callerAllowList[e.key]
		switch {
		case !e.used && !allowed:
			unused = append(unused, e.key+" ("+fset.Position(e.pos).String()+")")
		case e.used && allowed:
			t.Errorf("%s is allow-listed but now has a non-test caller: drop its allow-list entry", e.key)
		}
	}
	declared := map[string]bool{}
	for _, e := range exports {
		report(e)
		declared[e.key] = true
	}
	for _, e := range methods {
		report(e)
		declared[e.key] = true
	}
	for key := range callerAllowList {
		if !declared[key] {
			t.Errorf("%s is allow-listed but no longer declared: drop its allow-list entry", key)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s is exported from internal/ but no non-test file uses it: move it into a _test.go file or delete it", u)
	}
}

// recvType returns the name of a method receiver's base type.
func recvType(recv *ast.FieldList) string {
	x := recv.List[0].Type
	if s, ok := x.(*ast.StarExpr); ok {
		x = s.X
	}
	switch t := x.(type) {
	case *ast.IndexExpr:
		x = t.X
	case *ast.IndexListExpr:
		x = t.X
	}
	if id, ok := x.(*ast.Ident); ok {
		return id.Name
	}
	return "?"
}
