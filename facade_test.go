package scatter

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestFacadeExportsHaveCallers keeps the facade down to what its callers
// use. Every exported top-level name in scatter.go must either be
// referenced by an example program, example_test.go or scatter_test.go,
// or be named in the signature of an export that is (a kept function's
// parameter types, say). A re-export nothing calls fails here; reach for
// the internal package instead, or add the caller first.
func TestFacadeExportsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	facade, err := parser.ParseFile(fset, "scatter.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	// sigs maps each export to the syntax its signature is made of: a
	// function's type, an alias's target, a value's declared type (nil
	// when it has none).
	sigs := make(map[string]ast.Node)
	for _, d := range facade.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				sigs[d.Name.Name] = d.Type
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						sigs[s.Name.Name] = s.Type
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							sigs[n.Name] = s.Type
						}
					}
				}
			}
		}
	}

	var used []string
	// The in-package test refers to exports unqualified: they are the
	// identifiers the parser could not resolve within that file.
	internal, err := parser.ParseFile(fset, "scatter_test.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range internal.Unresolved {
		used = append(used, id.Name)
	}
	// External callers refer to exports through the package's import name.
	files, err := filepath.Glob(filepath.Join("examples", "*", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range append(files, "example_test.go") {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		used = append(used, facadeSelectors(f)...)
	}

	kept := make(map[string]bool)
	for len(used) > 0 {
		name := used[len(used)-1]
		used = used[:len(used)-1]
		sig, ok := sigs[name]
		if !ok || kept[name] {
			continue
		}
		kept[name] = true
		if sig != nil {
			used = append(used, typeNames(sig)...)
		}
	}
	var orphans []string
	for name := range sigs {
		if !kept[name] {
			orphans = append(orphans, name)
		}
	}
	sort.Strings(orphans)
	if len(orphans) > 0 {
		t.Errorf("%d of %d facade exports have no caller in examples/, example_test.go or scatter_test.go "+
			"and appear in no kept export's signature:\n%s",
			len(orphans), len(sigs), strings.Join(orphans, "\n"))
	}
	t.Logf("%d facade exports, all with callers", len(kept))
}

// facadeSelectors returns the names f selects from this package's import.
func facadeSelectors(f *ast.File) []string {
	local := ""
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		if path != "github.com/edge-mar/scatter" {
			continue
		}
		local = "scatter"
		if imp.Name != nil {
			local = imp.Name.Name
		}
	}
	if local == "" {
		return nil
	}
	var names []string
	ast.Inspect(f, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
				names = append(names, sel.Sel.Name)
			}
		}
		return true
	})
	return names
}

// typeNames returns the unqualified identifiers a type expression names,
// skipping parameter and field names and the right side of qualified
// identifiers (core.Model names core, not the facade's Model).
func typeNames(n ast.Node) []string {
	var names []string
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Field:
			names = append(names, typeNames(n.Type)...)
			return false
		case *ast.SelectorExpr:
			names = append(names, typeNames(n.X)...)
			return false
		case *ast.Ident:
			names = append(names, n.Name)
		}
		return true
	})
	return names
}
