package snowboard_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestDesignRules holds design rules the source tree must keep, checked by
// parsing every non-test Go file outside bench/ (which times old entry
// points on purpose).
func TestDesignRules(t *testing.T) {
	calls := selectorCalls(t)

	// One coordinator: a campaign pushes its tests and folds their results
	// in one place, core.Campaign.runDistributed, whichever front door
	// (sbd, sbqueue, the distributed example) started it; and every queue
	// listener serves a registry's named campaign queues.
	t.Run("one_coordinator", func(t *testing.T) {
		for _, sel := range []string{"PushTests", "FoldResults"} {
			sites := calls[sel]
			if len(sites) != 1 || !strings.HasPrefix(sites[0], "internal/core/campaign.go:") {
				t.Errorf(".%s( is called at %v, want once, in internal/core/campaign.go", sel, sites)
			}
		}
		if sites := calls["queue.Serve"]; len(sites) > 0 {
			t.Errorf("queue.Serve( is called outside bench/ at %v; serve a registry (queue.ServeRegistry)", sites)
		}
	})
}

// selectorCalls maps each called selector to the positions calling it:
// "Name" for any x.Name(…) call, and also "pkg.Name" when x is an
// identifier.
func selectorCalls(t *testing.T) map[string][]string {
	t.Helper()
	out := map[string][]string{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "bench" || (path != "." && strings.HasPrefix(d.Name(), ".")) {
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
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			site := fset.Position(call.Pos()).String()
			out[sel.Sel.Name] = append(out[sel.Sel.Name], site)
			if x, ok := sel.X.(*ast.Ident); ok {
				out[x.Name+"."+sel.Sel.Name] = append(out[x.Name+"."+sel.Sel.Name], site)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}
