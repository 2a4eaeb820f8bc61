package frostlab_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// deadAPIAllow names the exported identifiers under internal/ that no
// non-test code reaches but that stay on purpose, each with its reason.
// Keys are "pkg.Name" for package-level names and "pkg.Recv.Name" for
// methods. An entry that is live or no longer declared fails the gate.
var deadAPIAllow = map[string]string{
	"delta.Sync":           "reference whole-file rsync that the append-verify tests and the delta ablation benchmark compare the monitor's path against",
	"telemetry.FindSample": "scrape-parsing helper shared by the tests of several packages",
	"weather.ReadTraceCSV": "measured-trace import documented in DESIGN.md; cmd/weathergen writes its format and CI fuzzes it",
}

// stdlibMethods are method names that satisfy a standard-library
// interface, so a type may need them without any call in this module:
// error, fmt.Stringer, net.Error, io.*, sort.Interface, http.Handler and
// json.Marshaler/Unmarshaler.
var stdlibMethods = map[string]bool{
	"Error": true, "String": true, "Timeout": true, "Temporary": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
	"Read": true, "Write": true, "Close": true, "Seek": true,
	"ReadAt": true, "WriteAt": true, "ReadFrom": true, "WriteTo": true,
	"ReadByte": true, "WriteByte": true, "WriteString": true,
	"Len": true, "Less": true, "Swap": true, "ServeHTTP": true,
}

// goFile is one parsed source file with the import path of its package.
type goFile struct {
	pkg  string
	test bool
	ast  *ast.File
}

// TestNoDeadExportedAPI fails on any exported package-level name or
// exported method under internal/ that no non-test file in the module,
// cmd/, examples/ or the bench/ module refers to. Package-level names
// are resolved through each file's imports or as bare identifiers in
// their own package; a method counts as used when any non-test selector
// names it or when an interface declared in the repo or a stdlib
// interface in stdlibMethods requires it.
func TestNoDeadExportedAPI(t *testing.T) {
	fset := token.NewFileSet()
	files := parseModule(t, fset)

	decls := map[string]token.Position{} // key -> declaration site
	methods := map[string][]string{}     // method name -> keys declaring it
	for _, f := range files {
		if f.test || !strings.HasPrefix(f.pkg, "frostlab/internal/") {
			continue
		}
		short := strings.TrimPrefix(f.pkg, "frostlab/internal/")
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					decls[short+"."+d.Name.Name] = fset.Position(d.Pos())
					continue
				}
				key := short + "." + recvName(d.Recv.List[0].Type) + "." + d.Name.Name
				decls[key] = fset.Position(d.Pos())
				methods[d.Name.Name] = append(methods[d.Name.Name], key)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					for _, id := range specNames(s) {
						if id.IsExported() {
							decls[short+"."+id.Name] = fset.Position(id.Pos())
						}
					}
				}
			}
		}
	}

	used := map[string]bool{}
	selected := map[string]bool{} // method names non-test code selects or its interfaces declare
	for _, f := range files {
		if !f.test {
			markUses(f, used, selected)
		}
	}
	for name := range stdlibMethods {
		selected[name] = true
	}
	for name, keys := range methods {
		if selected[name] {
			for _, k := range keys {
				used[k] = true
			}
		}
	}

	var dead []string
	for key, pos := range decls {
		_, allowed := deadAPIAllow[key]
		if !used[key] && !allowed {
			dead = append(dead, pos.String()+": "+key)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("exported but no non-test code uses it: %s", d)
	}
	for key := range deadAPIAllow {
		if _, ok := decls[key]; !ok {
			t.Errorf("allowlisted %s is no longer declared; drop it from deadAPIAllow", key)
		} else if used[key] {
			t.Errorf("allowlisted %s now has a non-test caller; drop it from deadAPIAllow", key)
		}
	}
}

// parseModule parses every .go file of the frostlab module and of the
// bench module, which imports frostlab/internal/... as a real caller.
func parseModule(t *testing.T, fset *token.FileSet) []goFile {
	t.Helper()
	var files []goFile
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		af, err := parser.ParseFile(fset, p, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, goFile{
			pkg:  path.Join("frostlab", filepath.ToSlash(filepath.Dir(p))),
			test: strings.HasSuffix(p, "_test.go"),
			ast:  af,
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// markUses records in used every package-level name f refers to, keyed
// like the declarations ("pkg.Name"), and in selected every name f
// selects or declares as an interface method. References from inside a
// top-level declaration to the names it declares itself, or to the
// receiver type of a method, do not count.
func markUses(f goFile, used, selected map[string]bool) {
	imports := map[string]string{} // local name -> internal package
	for _, im := range f.ast.Imports {
		p, _ := strconv.Unquote(im.Path.Value)
		pkg, ok := strings.CutPrefix(p, "frostlab/internal/")
		if !ok {
			continue
		}
		name := path.Base(p)
		if im.Name != nil {
			name = im.Name.Name
		}
		imports[name] = pkg
	}
	own, internal := strings.CutPrefix(f.pkg, "frostlab/internal/")
	for _, d := range f.ast.Decls {
		self := map[string]bool{}
		skip := map[*ast.Ident]bool{} // method, field, parameter and selected names
		switch d := d.(type) {
		case *ast.FuncDecl:
			skip[d.Name] = true
			if d.Recv == nil {
				self[d.Name.Name] = true
			} else {
				self[recvName(d.Recv.List[0].Type)] = true
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				for _, id := range specNames(s) {
					self[id.Name] = true
				}
			}
		}
		ast.Inspect(d, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ImportSpec:
				return false
			case *ast.Field:
				for _, id := range n.Names {
					skip[id] = true
				}
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, id := range m.Names {
						selected[id.Name] = true
					}
				}
			case *ast.SelectorExpr:
				selected[n.Sel.Name] = true
				skip[n.Sel] = true
				if x, ok := n.X.(*ast.Ident); ok {
					if pkg, ok := imports[x.Name]; ok {
						used[pkg+"."+n.Sel.Name] = true
						return false
					}
				}
			case *ast.Ident:
				if internal && !skip[n] && !self[n.Name] {
					used[own+"."+n.Name] = true
				}
			}
			return true
		})
	}
}

// specNames returns the names a const, var or type spec declares.
func specNames(s ast.Spec) []*ast.Ident {
	switch s := s.(type) {
	case *ast.ValueSpec:
		return s.Names
	case *ast.TypeSpec:
		return []*ast.Ident{s.Name}
	}
	return nil
}

// recvName returns the type name of a method receiver, without pointer
// or type parameters.
func recvName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvName(e.X)
	case *ast.IndexExpr:
		return recvName(e.X)
	case *ast.IndexListExpr:
		return recvName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}
