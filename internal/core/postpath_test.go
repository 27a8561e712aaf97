package core

import (
	"go/ast"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// postingPath names, for each call the one posting path is made of, the
// functions (or the file) of this package that may make it (DESIGN.md §7): a
// data descriptor reaches the fabric from (*wrRec).try and nowhere else —
// sendCtrl's unsignaled control send is the one other post, it carries no
// record — the lane arbiter is offered units by wr.go only, and release is
// the one reader of faultMode. A scheme that grows a posting fork of its own
// fails here.
var postingPath = map[string][]string{
	"PostSend":     {"(*wrRec).try", "(*Endpoint).sendCtrl"},
	"PostSendList": {"(*wrRec).try"},
	"submitLane":   {"wr.go"},
	"faultMode":    {"(*Endpoint).release"},
}

// funcName renders a declaration the way the table above spells it.
func funcName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return d.Name.Name
	}
	switch t := d.Recv.List[0].Type.(type) {
	case *ast.StarExpr:
		if id, ok := t.X.(*ast.Ident); ok {
			return "(*" + id.Name + ")." + d.Name.Name
		}
	case *ast.Ident:
		return t.Name + "." + d.Name.Name
	}
	return d.Name.Name
}

// TestOnePostingPath parses the non-test files of internal/core and fails on
// a posting-path call made from anywhere but its one site.
func TestOnePostingPath(t *testing.T) {
	fset, files := parseNonTest(t, ".")
	seen := map[string]bool{}
	for name, f := range files {
		file := filepath.Base(name)
		for _, decl := range f.Decls {
			fn := "a package-level declaration"
			if d, ok := decl.(*ast.FuncDecl); ok {
				fn = funcName(d)
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				sites, ok := postingPath[sel.Sel.Name]
				if !ok {
					return true
				}
				seen[sel.Sel.Name] = true
				if !slices.Contains(sites, fn) && !slices.Contains(sites, file) {
					t.Errorf("%s: %s calls %s; only %s may", fset.Position(call.Pos()), fn, sel.Sel.Name,
						strings.Join(sites, ", "))
				}
				return true
			})
		}
	}
	// A rename must not turn the test into one that checks nothing.
	for name := range postingPath {
		if !seen[name] {
			t.Errorf("no call of %s found in internal/core: the table above is stale", name)
		}
	}
}
