package snowboard_test

import (
	"bufio"
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// linkAllowlist names the declared functions no binary links on purpose:
// test infrastructure that lives in a non-test file so tests of other
// packages can share it. A key ending in "." covers every function whose
// symbol starts with it; any other key is one symbol.
var linkAllowlist = map[string]string{
	// The per-access Algorithm 1 reference that TestIncrementalBatchOrderShuffleInvariant,
	// TestIdentifyWorkScalesWithKeys, the TestIdentify* unit tests, FuzzPMCIdentify,
	// FuzzIncrementalIdentify and difftest's own tests compare the keyed engine against.
	"snowboard/internal/pmc/difftest.": "Algorithm 1 reference for internal/pmc's differential tests",
	// The chaos dialer of TestChaosFleet (internal/queue), TestCrashRedeliveryByteIdenticalReport
	// and its neighbours in internal/core/distributed_test.go, and cmd/sbd's
	// TestControlPlaneHTTP, TestChaosFleetFairAndLossless and TestRestartResumesByteIdentical.
	"snowboard/internal/queue.FlakyDialer":   "chaos dialer for the queue, core and sbd chaos tests",
	"snowboard/internal/queue.NewFlakyConn":  "chaos dialer for the queue, core and sbd chaos tests",
	"snowboard/internal/queue.(*FlakyConn).": "chaos dialer for the queue, core and sbd chaos tests",
	// The guest's cpu_relax, the one source of vm.EvYield: no kernel path
	// spins, but TestDeadlockDetected, TestKillParkedThread and
	// TestGuestPanicReachesRunCaller (internal/vm) stop a thread with it
	// without an access, and TestPolicyEqualsMapPolicy's scripted case "yield
	// and block restart the window" (internal/sched) runs it. Deleting it
	// would leave EvYield emitted by nothing or drop the yield half of that
	// case.
	"snowboard/internal/vm.(*Thread).CPURelax": "yield fixture for the vm and sched scheduling tests",
	// What a scheduler that is not an AccessSink reads about the access it
	// is picked after; every shipped scheduler is a sink, and
	// TestL2TPBugTriggersUnderAdversarialSchedule (internal/exec) is the
	// FuncScheduler that reads it.
	"snowboard/internal/vm.(*Machine).LastAccess": "access of a non-sink scheduler's EvAccess, for the exec scheduling test",
	// The reference model of a trial's analysis, with its trace generator
	// and census, that the differential tests of internal/detect,
	// internal/cover and internal/sched diff the flat analyses against.
	"snowboard/internal/detect/model.": "trial-analysis reference for the detect, cover and sched differential tests",
}

// TestEveryFunctionIsLinked fails on any function declared in a non-test
// file under internal/ or cmd/ that none of the shipped binaries links:
// every cmd/ and examples/ program, bench/'s binary and bench/'s test
// binary. The linker's dead-code pass decides reachability, so every front
// door counts, resume, replay and -http included. Inlining is off so an
// inlined callee still leaves its own symbol. The root package is the
// library's public API and stays out of scope.
func TestEveryFunctionIsLinked(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every binary")
	}
	declared := declaredFuncs(t)
	linked := linkedFuncs(t)
	var missing []string
	used := map[string]bool{}
	for sym, pos := range declared {
		if linked[sym] {
			continue
		}
		if key, ok := allowlisted(sym); ok {
			used[key] = true
			continue
		}
		missing = append(missing, pos+": "+sym)
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("no binary links %s", m)
	}
	for key := range linkAllowlist {
		if !used[key] {
			t.Errorf("allowlist entry %s covers no unlinked function", key)
		}
	}
}

// allowlisted returns the allowlist key that covers sym, if any.
func allowlisted(sym string) (string, bool) {
	for key := range linkAllowlist {
		if sym == key || strings.HasSuffix(key, ".") && strings.HasPrefix(sym, key) {
			return key, true
		}
	}
	return "", false
}

// declaredFuncs maps the linker symbol of every function and method
// declared in a non-test file under internal/ and cmd/ to its position.
// A main package's symbols are named by its import path, as linkedFuncs
// names them.
func declaredFuncs(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}
	fset := token.NewFileSet()
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			pkg := "snowboard/" + filepath.ToSlash(filepath.Dir(path))
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil || fn.Name.Name == "init" {
					continue
				}
				out[pkg+"."+recvPrefix(fn)+fn.Name.Name] = fset.Position(fn.Pos()).String()
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// recvPrefix renders a method's receiver as the linker does, "(*T)." or
// "T.", without type parameters; it is empty for a function.
func recvPrefix(fn *ast.FuncDecl) string {
	if fn.Recv == nil {
		return ""
	}
	typ, star := fn.Recv.List[0].Type, false
	if s, ok := typ.(*ast.StarExpr); ok {
		typ, star = s.X, true
	}
	switch g := typ.(type) {
	case *ast.IndexExpr:
		typ = g.X
	case *ast.IndexListExpr:
		typ = g.X
	}
	name := typ.(*ast.Ident).Name
	if star {
		return "(*" + name + ")."
	}
	return name + "."
}

// linkedFuncs builds every binary with inlining off and returns the text
// symbols they link, with generic type arguments stripped, closures and
// defer/go wrappers folded into their parent, and each main package named
// by its import path.
func linkedFuncs(t *testing.T) map[string]bool {
	t.Helper()
	dir := t.TempDir()
	build := func(args ...string) {
		cmd := exec.Command("go", args...)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
		}
	}
	build("build", "-gcflags=all=-l", "-o", dir+string(filepath.Separator), "./cmd/...", "./examples/...", "./bench")
	build("test", "-c", "-gcflags=all=-l", "-o", filepath.Join(dir, "bench.test"), "./bench")

	bins, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	linked := map[string]bool{}
	for _, b := range bins {
		mainPkg := "snowboard/bench"
		for _, parent := range []string{"cmd", "examples"} {
			if _, err := os.Stat(filepath.Join(parent, b.Name())); err == nil {
				mainPkg = "snowboard/" + parent + "/" + b.Name()
			}
		}
		out, err := exec.Command("go", "tool", "nm", filepath.Join(dir, b.Name())).Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", b.Name(), err)
		}
		sc := bufio.NewScanner(bytes.NewReader(out))
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			// "addr T symbol": a shape name holds spaces, so the symbol is
			// the whole rest of the line.
			f := strings.SplitN(strings.TrimSpace(sc.Text()), " ", 3)
			if len(f) < 3 || f[1] != "T" && f[1] != "t" {
				continue
			}
			sym := f[2]
			if rest, ok := strings.CutPrefix(sym, "main."); ok {
				sym = mainPkg + "." + rest
			}
			linked[canonicalSymbol(sym)] = true
		}
	}
	return linked
}

var closureSuffix = regexp.MustCompile(`\.(func|deferwrap|gowrap)?[0-9]+$`)

// canonicalSymbol strips a symbol's generic type arguments and method-value
// suffix and folds closures and defer/go wrappers into their parent:
// "p.(*T[go.shape.int]).M.func1.2" becomes "p.(*T).M".
func canonicalSymbol(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	s := strings.TrimSuffix(b.String(), "-fm")
	for {
		trimmed := closureSuffix.ReplaceAllString(s, "")
		if trimmed == s {
			return s
		}
		s = trimmed
	}
}
