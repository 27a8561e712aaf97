// doclint enforces the repository's documentation floor with go/ast — no
// external tooling:
//
//   - every package under internal/ must open with a real package comment
//     (more than one line of actual prose, not a lint pragma);
//   - in the packages that form the public surface of the datatype engine
//     and its hot path (internal/pack, internal/verbs, internal/fabric,
//     internal/core, internal/qos, internal/perfgate), every exported
//     top-level symbol and
//     every exported method must carry a doc comment.
//
// `make doclint` runs it over the module; a bare exported symbol fails CI.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// strictPkgs are the directories where every exported symbol needs a doc
// comment, not just the package clause.
var strictPkgs = map[string]bool{
	"internal/core":     true,
	"internal/fabric":   true,
	"internal/pack":     true,
	"internal/perfgate": true,
	"internal/qos":      true,
	"internal/verbs":    true,
}

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	var dirs []string
	err := filepath.WalkDir(filepath.Join(root, "internal"), func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "doclint:", err)
		os.Exit(1)
	}
	sort.Strings(dirs)

	var problems []string
	for _, dir := range dirs {
		rel, _ := filepath.Rel(root, dir)
		problems = append(problems, lintDir(dir, rel, strictPkgs[filepath.ToSlash(rel)])...)
	}
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, p)
		}
		fmt.Fprintf(os.Stderr, "doclint: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
}

// lintDir checks one package directory. Test files never count: they are
// internal narrative, not API surface.
func lintDir(dir, rel string, strict bool) []string {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return []string{fmt.Sprintf("%s: %v", rel, err)}
	}
	var problems []string
	for _, pkg := range pkgs {
		if !hasPackageComment(pkg) {
			problems = append(problems, fmt.Sprintf("%s: package %s has no package comment", rel, pkg.Name))
		}
		if !strict {
			continue
		}
		for _, f := range pkg.Files {
			problems = append(problems, lintFile(fset, f)...)
		}
	}
	return problems
}

// hasPackageComment reports whether any file of the package documents the
// package clause with real prose.
func hasPackageComment(pkg *ast.Package) bool {
	for _, f := range pkg.Files {
		if f.Doc != nil && len(strings.TrimSpace(f.Doc.Text())) > 20 {
			return true
		}
	}
	return false
}

// lintFile reports every exported, undocumented top-level symbol and method.
func lintFile(fset *token.FileSet, f *ast.File) []string {
	var problems []string
	complain := func(pos token.Pos, what string) {
		p := fset.Position(pos)
		problems = append(problems, fmt.Sprintf("%s:%d: exported %s is undocumented", p.Filename, p.Line, what))
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || documented(d.Doc) {
				continue
			}
			if d.Recv != nil && !receiverExported(d.Recv) {
				continue // method on an unexported type: not API surface
			}
			kind := "function " + d.Name.Name
			if d.Recv != nil {
				kind = "method " + d.Name.Name
			}
			complain(d.Pos(), kind)
		case *ast.GenDecl:
			if d.Tok != token.TYPE && d.Tok != token.VAR && d.Tok != token.CONST {
				continue
			}
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && !documented(d.Doc) && !documented(s.Doc) {
						complain(s.Pos(), "type "+s.Name.Name)
					}
				case *ast.ValueSpec:
					for _, name := range s.Names {
						// A doc comment on the grouped decl covers the group
						// (the idiomatic "// The transfer schemes." pattern).
						if name.IsExported() && !documented(d.Doc) && !documented(s.Doc) &&
							s.Comment == nil {
							complain(name.Pos(), "value "+name.Name)
						}
					}
				}
			}
		}
	}
	return problems
}

// receiverExported reports whether a method's receiver type is exported.
func receiverExported(recv *ast.FieldList) bool {
	if len(recv.List) == 0 {
		return false
	}
	t := recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.Ident:
			return x.IsExported()
		default:
			return false
		}
	}
}

// documented reports whether a comment group holds real text.
func documented(doc *ast.CommentGroup) bool {
	return doc != nil && strings.TrimSpace(doc.Text()) != ""
}
