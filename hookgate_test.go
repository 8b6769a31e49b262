package dui

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"dui/internal/fuzz"
)

// The hook gate: netsim.DebugHooks is one process-global, unsynchronized
// struct, so a test that sets a hook is safe only while no other test of
// its binary runs. Go runs a package's sequential top-level tests one at a
// time and its parallel ones only after all of those return, so the gate
// keeps two rules over every test function (a top-level func of a
// _test.go file):
//   - one that sets a hook — writes a DebugHooks field, or calls
//     fuzz.SetHook or fuzz.Replay, itself or through a func of its own
//     package — calls no Parallel(), in closures and subtests included;
//   - a write or SetHook that may turn a hook on has a deferred restore in
//     the same func: a defer that writes that field false, calls
//     SetHook(_, false), or calls a setter with false.

func TestDebugHookTestsStaySequential(t *testing.T) {
	fset := token.NewFileSet()
	var files []*ast.File
	for _, path := range goFiles(t) {
		if !strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	errs, setters := hookGate(fset, files)
	for _, e := range errs {
		t.Error(e)
	}
	if len(setters) == 0 {
		t.Fatal("found no test that sets a debug hook; the scan is broken")
	}
	t.Logf("%d test funcs set a debug hook: %s", len(setters), strings.Join(setters, ", "))
}

const hookFixture = `package fixture

func TestRestored(t *testing.T) {
	netsim.DebugHooks.PoisonReleased = true
	defer func() { netsim.DebugHooks.PoisonReleased = false }()
}

func TestUnrestored(t *testing.T) {
	netsim.DebugHooks.PoisonReleased = true
	netsim.DebugHooks.PoisonReleased = false
}

func TestOtherFieldRestored(t *testing.T) {
	netsim.DebugHooks.PoisonReleased = true
	defer func() { netsim.DebugHooks.DisableLinkLanes = false }()
}

func TestSetterRestored(t *testing.T) {
	set := func(on bool) { netsim.DebugHooks.DisableLinkLanes = on }
	set(true)
	defer set(false)
}

func TestParallelSubtest(t *testing.T) {
	t.Run("x", func(t *testing.T) {
		t.Parallel()
		_ = fuzz.Replay(nil)
	})
}

func trace(lanes bool) {
	netsim.DebugHooks.DisableLinkLanes = !lanes
	defer func() { netsim.DebugHooks.DisableLinkLanes = false }()
}

func TestParallelHelper(t *testing.T) {
	t.Parallel()
	trace(true)
}

func TestUnknownHook(t *testing.T) {
	_ = fuzz.SetHook("no-such-hook", true)
}

func TestParallelOnly(t *testing.T) {
	t.Parallel()
}
`

// TestHookGateOnFixture pins each rule on its own func: a rule that never
// fired would leave the whole-tree check passing.
func TestHookGateOnFixture(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fixture_test.go", hookFixture, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	errs, setters := hookGate(fset, []*ast.File{f})
	var failed []string
	for _, e := range errs {
		failed = append(failed, strings.TrimSuffix(strings.Fields(e)[1], ":"))
	}
	wantFailed := []string{"TestUnrestored", "TestOtherFieldRestored", "TestParallelSubtest", "TestParallelHelper"}
	if !slices.Equal(failed, wantFailed) {
		t.Errorf("gate failed %q, want %q\n%s", failed, wantFailed, strings.Join(errs, "\n"))
	}
	wantSetters := []string{"TestRestored", "TestUnrestored", "TestOtherFieldRestored", "TestSetterRestored",
		"TestParallelSubtest", "trace", "TestParallelHelper"}
	if !slices.Equal(setters, wantSetters) {
		t.Errorf("setters %q, want %q", setters, wantSetters)
	}
}

// hookGate applies the gate's rules to test files. It returns one error
// per broken rule, "<file> <func>: <rule>", and the funcs that set a hook.
func hookGate(fset *token.FileSet, files []*ast.File) (errs, setters []string) {
	type fn struct {
		pkg, file, name string
		hookUse
	}
	var fns []*fn
	byName := map[string]*fn{} // "dir pkg name": a package's funcs, for the call graph
	for _, f := range files {
		file := fset.Position(f.Package).Filename
		pkg := filepath.Dir(file) + " " + f.Name.Name
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || fd.Body == nil {
				continue
			}
			x := &fn{pkg, file, fd.Name.Name, hookScan(fd.Body, f.Name.Name)}
			fns = append(fns, x)
			byName[pkg+" "+x.name] = x
			for _, u := range x.unrestored {
				errs = append(errs, fmt.Sprintf("%s %s: %s may turn a debug hook on with no deferred restore in the same func",
					file, x.name, u))
			}
		}
	}
	// A func that calls a hook-setting func of its own package sets a hook.
	for changed := true; changed; {
		changed = false
		for _, x := range fns {
			for _, c := range x.calls {
				if y := byName[x.pkg+" "+c]; !x.sets && y != nil && y.sets {
					x.sets, changed = true, true
				}
			}
		}
	}
	for _, x := range fns {
		if !x.sets {
			continue
		}
		setters = append(setters, x.name)
		if x.parallel {
			errs = append(errs, fmt.Sprintf("%s %s: sets the process-global netsim.DebugHooks and calls Parallel()",
				x.file, x.name))
		}
	}
	return errs, setters
}

// hookUse is what one func body does with the debug hooks.
type hookUse struct {
	sets, parallel bool
	calls          []string // plain-identifier calls, for the call graph
	unrestored     []string // hook writes and SetHook calls with no deferred restore
}

// hookScan walks body, closures included. pkg is the file's package name:
// inside package fuzz, SetHook and Replay are called unqualified.
func hookScan(body *ast.BlockStmt, pkg string) hookUse {
	var u hookUse
	var pending []string          // fields written other than false, "" for SetHook
	restored := map[string]bool{} // field ("" for SetHook) restored by a defer
	anySetter := false            // a deferred call passes false to a setter
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			for _, a := range n.Call.Args {
				anySetter = anySetter || isFalse(a)
			}
			ast.Inspect(n.Call, func(m ast.Node) bool {
				switch m := m.(type) {
				case *ast.AssignStmt:
					for i, l := range m.Lhs {
						if f, ok := hookField(l); ok && i < len(m.Rhs) && isFalse(m.Rhs[i]) {
							restored[f] = true
						}
					}
				case *ast.CallExpr:
					if hookCall(m, pkg) == "SetHook" && len(m.Args) == 2 && isFalse(m.Args[1]) {
						restored[""] = true
					}
				}
				return true
			})
		case *ast.AssignStmt:
			for i, l := range n.Lhs {
				if f, ok := hookField(l); ok {
					u.sets = true
					if i >= len(n.Rhs) || !isFalse(n.Rhs[i]) {
						pending = append(pending, f)
					}
				}
			}
		case *ast.CallExpr:
			switch hookCall(n, pkg) {
			case "SetHook":
				if len(n.Args) == 2 && !isFalse(n.Args[1]) && !unknownHook(n.Args[0]) {
					u.sets = true
					pending = append(pending, "")
				}
			case "Replay":
				u.sets = true // Replay turns the entry's hook on and restores it
			}
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Parallel" && len(n.Args) == 0 {
				u.parallel = true
			}
			if id, ok := n.Fun.(*ast.Ident); ok {
				u.calls = append(u.calls, id.Name)
			}
		}
		return true
	})
	for _, f := range pending {
		if !restored[f] && !anySetter {
			what := "SetHook"
			if f != "" {
				what = "DebugHooks." + f
			}
			u.unrestored = append(u.unrestored, what)
		}
	}
	return u
}

// hookField reports the DebugHooks field e names, qualified
// (netsim.DebugHooks.F) or not (inside netsim, or under a dot import).
func hookField(e ast.Expr) (string, bool) {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	switch x := sel.X.(type) {
	case *ast.Ident:
		return sel.Sel.Name, x.Name == "DebugHooks"
	case *ast.SelectorExpr:
		return sel.Sel.Name, x.Sel.Name == "DebugHooks"
	}
	return "", false
}

// hookCall returns "SetHook" or "Replay" when call calls fuzz's function of
// that name, and "" otherwise.
func hookCall(call *ast.CallExpr, pkg string) string {
	var name string
	switch f := call.Fun.(type) {
	case *ast.Ident:
		if pkg != "fuzz" {
			return ""
		}
		name = f.Name
	case *ast.SelectorExpr:
		if x, ok := f.X.(*ast.Ident); !ok || x.Name != "fuzz" {
			return ""
		}
		name = f.Sel.Name
	default:
		return ""
	}
	if name == "SetHook" || name == "Replay" {
		return name
	}
	return ""
}

func isFalse(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "false"
}

// unknownHook reports whether e is a literal hook name fuzz does not
// know: SetHook rejects it and sets nothing.
func unknownHook(e ast.Expr) bool {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return false
	}
	name, err := strconv.Unquote(lit.Value)
	_, known := fuzz.HookNames[name]
	return err == nil && !known
}
