package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"strconv"
	"strings"
	"testing"
)

// oracleOnly are the interpreted walks of a layout: the datatype.Cursor, what
// is built on it, and the reference packer. Tests, tools and measurement code
// check the compiled path against them; the message path walks a layout one
// way, through a compiled program, and must not reach for them.
var oracleOnly = map[string][]string{
	"repro/internal/datatype": {"NewCursor", "Flatten", "LayoutStats"},
	"repro/internal/pack":     {"NewPacker", "NewUnpacker"},
}

// parseNonTest parses the non-test Go files of dir, keyed by path.
func parseNonTest(t *testing.T, dir string) (*token.FileSet, map[string]*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]*ast.File{}
	for _, pkg := range pkgs {
		for name, f := range pkg.Files {
			files[name] = f
		}
	}
	return fset, files
}

// TestMessagePathAvoidsTheOracle parses the non-test files of internal/core
// and internal/mpi and fails on any reference to an oracleOnly symbol.
func TestMessagePathAvoidsTheOracle(t *testing.T) {
	for _, dir := range []string{".", "../mpi"} {
		fset, files := parseNonTest(t, dir)
		for _, f := range files {
			// The file's name for each import that has oracle symbols.
			banned := map[string][]string{}
			for _, imp := range f.Imports {
				p, _ := strconv.Unquote(imp.Path.Value)
				name := path.Base(p)
				if imp.Name != nil {
					name = imp.Name.Name
				}
				if syms := oracleOnly[p]; syms != nil {
					banned[name] = syms
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); ok {
					for _, sym := range banned[x.Name] {
						if sel.Sel.Name == sym {
							t.Errorf("%s: %s.%s is the test oracle; the message path replays a compiled program",
								fset.Position(sel.Pos()), x.Name, sym)
						}
					}
				}
				return true
			})
		}
	}
}
