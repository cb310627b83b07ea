// Command docscheck is the documentation gate wired into `make docs-check`
// and CI. It walks the given directory trees and fails (exit 1, one line per
// offender) if any Go package lacks a package-level doc comment: test files
// and *_test packages are ignored, and a package passes when at least one of
// its files carries a doc comment on the package clause. It then reads the
// given Markdown files and fails for every backticked `pkg.Ident` or
// `pkg.Type.Member` — pkg being the name of a directory in those trees —
// that names no exported top-level declaration, field or method there, so
// prose cannot go on describing code that was deleted. DESIGN.md also
// fails when it is larger than designCeiling.
//
// Usage: docscheck DIR|FILE.md ...
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// designCeiling is the size in bytes DESIGN.md may not exceed: its size
// after the last PR that shrank it. Lower it when the file shrinks; it is
// not meant to go up.
const designCeiling = 52952

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: docscheck DIR|FILE.md ...")
		os.Exit(2)
	}
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "docscheck:", err)
		os.Exit(2)
	}
	var bad, docs []string
	decls := map[string]map[string]bool{} // package directory name -> "Ident" and "Type.Member"
	for _, arg := range os.Args[1:] {
		if strings.HasSuffix(arg, ".md") {
			docs = append(docs, arg)
			continue
		}
		dirs, err := goDirs(arg)
		if err != nil {
			fail(err)
		}
		for _, dir := range dirs {
			ok, err := hasPackageDoc(dir)
			if err != nil {
				fail(err)
			}
			if !ok {
				bad = append(bad, dir+": package has no package-level doc comment")
			}
			if err := declared(dir, decls); err != nil {
				fail(err)
			}
		}
	}
	for _, doc := range docs {
		text, err := os.ReadFile(doc)
		if err != nil {
			fail(err)
		}
		bad = append(bad, staleRefs(doc, string(text), decls)...)
		if filepath.Base(doc) == "DESIGN.md" && len(text) > designCeiling {
			bad = append(bad, fmt.Sprintf("%s: %d bytes, over its ceiling of %d: cut it, or move measurement history to CHANGES.md", doc, len(text), designCeiling))
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		for _, line := range bad {
			fmt.Fprintln(os.Stderr, "docscheck:", line)
		}
		os.Exit(1)
	}
}

// declared adds, under dir's base name, every top-level declaration of the
// directory's Go files (tests too: prose names them) and every struct
// field, interface method and method as "Type.Member".
func declared(dir string, decls map[string]map[string]bool) error {
	pkgs, err := parser.ParseDir(token.NewFileSet(), dir, nil, parser.SkipObjectResolution)
	if err != nil {
		return fmt.Errorf("%s: %w", dir, err)
	}
	names := decls[filepath.Base(dir)]
	if names == nil {
		names = map[string]bool{}
		decls[filepath.Base(dir)] = names
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok {
					names[receiver(fn)+fn.Name.Name] = true
					continue
				}
				for _, spec := range d.(*ast.GenDecl).Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							names[id.Name] = true
						}
					case *ast.TypeSpec:
						names[spec.Name.Name] = true
						for _, field := range members(spec.Type) {
							for _, id := range field.Names {
								names[spec.Name.Name+"."+id.Name] = true
							}
						}
					}
				}
			}
		}
	}
	return nil
}

// receiver returns "Type." for a method on Type, *Type or a generic
// instance of either, and "" for a function.
func receiver(fn *ast.FuncDecl) string {
	if fn.Recv == nil {
		return ""
	}
	recv := fn.Recv.List[0].Type
	if star, ok := recv.(*ast.StarExpr); ok {
		recv = star.X
	}
	switch inst := recv.(type) {
	case *ast.IndexExpr:
		recv = inst.X
	case *ast.IndexListExpr:
		recv = inst.X
	}
	return recv.(*ast.Ident).Name + "."
}

// members lists a struct type's fields or an interface type's methods.
func members(t ast.Expr) []*ast.Field {
	switch t := t.(type) {
	case *ast.StructType:
		return t.Fields.List
	case *ast.InterfaceType:
		return t.Methods.List
	}
	return nil
}

var (
	codeSpan  = regexp.MustCompile("`[^`\n]+`")
	qualified = regexp.MustCompile(`\b([a-z][a-z0-9]*)\.([A-Z]\w*(?:\.[A-Za-z_]\w*)?)`)
)

// staleRefs lists the qualified identifiers in doc's code spans whose
// package is one of decls' but which that package does not declare.
func staleRefs(doc, text string, decls map[string]map[string]bool) []string {
	var bad []string
	for n, line := range strings.Split(text, "\n") {
		for _, span := range codeSpan.FindAllString(line, -1) {
			for _, m := range qualified.FindAllStringSubmatch(span, -1) {
				if names, ok := decls[m[1]]; ok && !names[m[2]] {
					bad = append(bad, fmt.Sprintf("%s:%d: `%s.%s` names nothing declared in package %s", doc, n+1, m[1], m[2], m[1]))
				}
			}
		}
	}
	return bad
}

// goDirs lists every directory under root that contains at least one
// non-test Go file.
func goDirs(root string) ([]string, error) {
	seen := map[string]bool{}
	var out []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir := filepath.Dir(path)
		if !seen[dir] {
			seen[dir] = true
			out = append(out, dir)
		}
		return nil
	})
	return out, err
}

// hasPackageDoc reports whether any non-test file of the directory's
// primary package documents the package clause.
func hasPackageDoc(dir string) (bool, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments|parser.PackageClauseOnly)
	if err != nil {
		return false, fmt.Errorf("%s: %w", dir, err)
	}
	for name, pkg := range pkgs {
		if strings.HasSuffix(name, "_test") {
			continue
		}
		for _, f := range pkg.Files {
			if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
				return true, nil
			}
		}
	}
	return false, nil
}
