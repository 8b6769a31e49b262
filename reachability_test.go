package dui

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

// The reachability gate: every non-test function declared under internal/
// must be kept by the linker in at least one program — the main packages
// under cmd/ and the bench/ module — or be listed in
// testdata/unreachable.txt with the reason a test still needs it. Inlining
// is switched off for dui packages (-gcflags='dui/...=-l') so a function
// that is only ever inlined still shows up as a symbol.

// allowClasses are the reasons an unreachable function may stay:
// driver — a test uses it to drive, observe or check reachable code;
// claim — a named test demonstrates a paper claim with it.
var allowClasses = map[string]bool{"driver": true, "claim": true}

const allowlistPath = "testdata/unreachable.txt"

func TestReachability(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go command not on PATH")
	}
	bin := t.TempDir()
	build := func(dir string, args ...string) {
		cmd := exec.Command(goTool, append([]string{"build", "-gcflags=dui/...=-l"}, args...)...)
		cmd.Dir = dir
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %v in %s: %v\n%s", args, dir, err, out)
		}
	}
	build(".", "-o", bin+string(filepath.Separator), "./cmd/...")
	build("bench", "-o", filepath.Join(bin, "bench"), ".")

	entries, err := os.ReadDir(bin)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 {
		t.Fatalf("built %d programs, want 4 (3 main packages + bench)", len(entries))
	}
	reached := map[string]bool{}
	for _, e := range entries {
		out, err := exec.Command(goTool, "tool", "nm", filepath.Join(bin, e.Name())).Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", e.Name(), err)
		}
		for _, name := range textSymbols(out) {
			if rest, ok := strings.CutPrefix(name, "dui/internal/"); ok {
				reached[symbolKey(rest)] = true
			}
		}
	}

	decls := internalFuncs(t)
	allow := readAllowlist(t)
	isReached := func(key string) bool {
		if reached[key] {
			return true
		}
		// A value method reached only through its pointer wrapper.
		pkg, name, _ := strings.Cut(key, ".")
		return strings.Contains(name, ".") && !strings.HasPrefix(name, "(") &&
			reached[pkg+".(*"+strings.Replace(name, ".", ").", 1)]
	}

	var missing []string
	nreached := 0
	for key, pos := range decls {
		switch {
		case isReached(key):
			nreached++
			if allow[key] {
				t.Errorf("%s: %s is reached by a program; remove it from the allowlist", allowlistPath, key)
			}
		default:
			if !allow[key] {
				missing = append(missing, key+"\t("+pos+")")
			}
		}
	}
	if nreached == 0 {
		t.Fatal("no internal function found in any program; symbol matching is broken")
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("no program reaches %s; delete it, or list it in %s with the reason a test needs it", m, allowlistPath)
	}
	for key := range allow {
		if _, ok := decls[key]; !ok {
			t.Errorf("%s lists %s, which is no longer declared", allowlistPath, key)
		}
	}
}

// nmLine matches one line of `go tool nm`: address, type letter, name.
// Names of generic instantiations may contain spaces (go.shape.struct { ... }).
var nmLine = regexp.MustCompile(`^\s*[0-9a-f]*\s+([A-Za-z])\s+(.+)$`)

// textSymbols returns the names of the text (code) symbols in nm output.
func textSymbols(nm []byte) []string {
	var names []string
	sc := bufio.NewScanner(bytes.NewReader(nm))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		m := nmLine.FindStringSubmatch(sc.Text())
		if m != nil && (m[1] == "T" || m[1] == "t") {
			names = append(names, m[2])
		}
	}
	return names
}

// closureSuffix matches the compiler's names for function literals and
// go/defer wrappers nested inside a function: F.func1, F.func1.2, F.gowrap3.
var closureSuffix = regexp.MustCompile(`(\.(func|gowrap|deferwrap)?[0-9]+)+$`)

// symbolKey maps a linker symbol, with its "dui/internal/" prefix already
// removed, to the key of the declaration it belongs to: "pkg.F",
// "pkg.T.M" or "pkg.(*T).M". Type arguments of generic instantiations, the
// "-fm" suffix of method values and closure suffixes are dropped, so a
// closure or instantiation counts as reaching its enclosing declaration.
func symbolKey(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	s := strings.TrimSuffix(b.String(), "-fm")
	return closureSuffix.ReplaceAllString(s, "")
}

// internalFuncs lists the functions and methods declared in the non-test Go
// files under internal/, keyed as symbolKey keys them, with their position.
func internalFuncs(t *testing.T) map[string]string {
	t.Helper()
	decls := map[string]string{}
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
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
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(strings.TrimPrefix(filepath.Dir(path), "internal"+string(filepath.Separator)))
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name.Name == "init" || fd.Name.Name == "_" {
				continue
			}
			decls[pkg+"."+funcName(fd)] = fset.Position(fd.Pos()).String()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return decls
}

// funcName renders a declaration's name as the linker spells it, minus the
// package path: "F", "T.M" or "(*T).M", without type parameters.
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	typ := fd.Recv.List[0].Type
	ptr := false
	if star, ok := typ.(*ast.StarExpr); ok {
		ptr, typ = true, star.X
	}
	switch x := typ.(type) {
	case *ast.IndexExpr:
		typ = x.X
	case *ast.IndexListExpr:
		typ = x.X
	}
	recv := typ.(*ast.Ident).Name
	if ptr {
		recv = "(*" + recv + ")"
	}
	return recv + "." + fd.Name.Name
}

// readAllowlist parses testdata/unreachable.txt: one "symbol<TAB>class:
// reason" line per unreachable function a test still needs; blank lines and
// lines starting with '#' are skipped.
func readAllowlist(t *testing.T) map[string]bool {
	t.Helper()
	data, err := os.ReadFile(allowlistPath)
	if err != nil {
		t.Fatal(err)
	}
	allow := map[string]bool{}
	for i, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sym, why, ok := strings.Cut(line, "\t")
		class, reason, ok2 := strings.Cut(why, ": ")
		switch {
		case !ok || !ok2 || strings.TrimSpace(reason) == "":
			t.Errorf("%s:%d: want \"symbol<TAB>class: reason\", got %q", allowlistPath, i+1, line)
		case !allowClasses[class]:
			t.Errorf("%s:%d: class %q is not driver or claim", allowlistPath, i+1, class)
		}
		if allow[sym] {
			t.Errorf("%s:%d: %s listed twice", allowlistPath, i+1, sym)
		}
		allow[sym] = true
	}
	return allow
}

func TestSymbolKey(t *testing.T) {
	for _, c := range []struct{ sym, want string }{
		{"stats.MAD", "stats.MAD"},
		{"runner.Map[go.shape.[]dui/internal/campaign.X]", "runner.Map"},
		{"runner.Map[go.shape.struct { A int; B []string }].func2", "runner.Map"},
		{"campaign.(*cache[go.shape.string,go.shape.int]).get", "campaign.(*cache).get"},
		{"netsim.(*Engine).Run.func1", "netsim.(*Engine).Run"},
		{"netsim.(*Engine).Run.func1.2", "netsim.(*Engine).Run"},
		{"campaign.(*Server).run.gowrap1", "campaign.(*Server).run"},
		{"journal.Open.deferwrap3", "journal.Open"},
		{"tcpflow.(*Sender).onRTO-fm", "tcpflow.(*Sender).onRTO"},
		{"blink.(*Pipeline).CurrentNextHop", "blink.(*Pipeline).CurrentNextHop"},
		{"stats.Binomial.CDF", "stats.Binomial.CDF"},
	} {
		if got := symbolKey(c.sym); got != c.want {
			t.Errorf("symbolKey(%q) = %q, want %q", c.sym, got, c.want)
		}
	}
}

func TestTextSymbols(t *testing.T) {
	nm := []byte("  4a1f20 T dui/internal/stats.MAD\n" +
		"  4a2000 t dui/internal/runner.Map[go.shape.struct { A int }]\n" +
		"  5b0000 D dui/internal/stats.table\n" +
		"           U runtime.morestack\n")
	got := strings.Join(textSymbols(nm), "|")
	want := "dui/internal/stats.MAD|dui/internal/runner.Map[go.shape.struct { A int }]"
	if got != want {
		t.Errorf("textSymbols = %q, want %q", got, want)
	}
}
