package core

import (
	"go/ast"
	"slices"
	"strings"
	"testing"
)

// postingPath names, for each selector the one posting path is made of, the
// functions of this package that may call it or take it as a value
// (DESIGN.md §7): a data descriptor reaches the fabric from (*wrRec).try and
// nowhere else — sendCtrl's unsignaled control send is the one other post,
// it carries no record — and release is the one reader of faultMode. A
// record's posting attempt is started by release, or by resolveWR for the
// unit held back behind the one it resolves, and rescheduled by retryWR
// alone; newWR binds it as tryFn once per record and putWR keeps the binding.
// stagingAcq's registration retry has a try of its own (rndv.go). A scheme
// that grows a posting fork of its own, or a grant step that starts attempts
// from anywhere else, fails here.
var postingPath = map[string][]string{
	"PostSend":     {"(*wrRec).try", "(*Endpoint).sendCtrl"},
	"PostSendList": {"(*wrRec).try"},
	"faultMode":    {"(*Endpoint).release"},
	"try": {"(*Endpoint).release", "(*Endpoint).resolveWR", "(*Endpoint).newWR",
		"(*stagingAcq).init", "(*stagingAcq).start"},
	"tryFn": {"(*Endpoint).retryWR", "(*Endpoint).newWR", "(*Endpoint).putWR",
		"(*stagingAcq).init", "(*stagingAcq).try"},
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
// a posting-path selector — called or taken as a value — used anywhere but
// its sites.
func TestOnePostingPath(t *testing.T) {
	fset, files := parseNonTest(t, ".")
	seen := map[string]bool{}
	for _, f := range files {
		for _, decl := range f.Decls {
			fn := "a package-level declaration"
			if d, ok := decl.(*ast.FuncDecl); ok {
				fn = funcName(d)
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				sites, ok := postingPath[sel.Sel.Name]
				if !ok {
					return true
				}
				seen[sel.Sel.Name] = true
				if !slices.Contains(sites, fn) {
					t.Errorf("%s: %s uses %s; only %s may", fset.Position(sel.Pos()), fn, sel.Sel.Name,
						strings.Join(sites, ", "))
				}
				return true
			})
		}
	}
	// A rename must not turn the test into one that checks nothing.
	for name := range postingPath {
		if !seen[name] {
			t.Errorf("no use of %s found in internal/core: the table above is stale", name)
		}
	}
}
