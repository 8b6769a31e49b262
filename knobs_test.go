package dui

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

// The knob gate: a field exists only when two programs need different
// values. TestNoDefaultOnlyFields fails on any exported scalar or func
// field of a struct declared in non-test internal/ code that no non-test
// code in the root module or bench/ sets — a value with one setting,
// which belongs in a constant, or a field nothing sets at all — unless
// testdata/knobs.txt lists it with the test or bench file that sets it.
// Three kinds of write do not set a field:
//   - a default write: one inside its own type's Defaults/defaults
//     method, or one inside an if that compares the same field with its
//     zero value (== 0, <= 0, == ""), wherever it sits;
//   - a write of the same compile-time constant as a default write of
//     the field, which only restates the default;
//   - a write of the zero-value constant (0, "", false, nil).
// The scan type-checks every non-test package against the export data
// `go list -export` writes, so a write is found however the field is
// reached: keyed and positional composite literals, assignments
// (multi-assign and op-assign included), ++/--, and &x.F (flag bindings).

const knobsPath = "testdata/knobs.txt"

func TestNoDefaultOnlyFields(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go command not on PATH")
	}
	s := newFieldScan()
	for _, mod := range []struct{ dir, pattern string }{{".", "./..."}, {"bench", "."}} {
		s.scanModule(t, goTool, mod.dir, mod.pattern)
	}
	if len(s.fields) == 0 || len(s.writes) == 0 {
		t.Fatal("found no declared or written field; the scan is broken")
	}
	knobs := readKnobs(t)
	var unset []string
	set := 0
	for key, pos := range s.fields {
		switch {
		case s.set(key):
			set++
		case knobs[key] == "":
			unset = append(unset, key+"\t("+pos+")")
		}
	}
	sort.Strings(unset)
	for _, u := range unset {
		t.Errorf("no program sets %s other than to its default or zero value; make it a constant or delete it, or list it in %s with the test that sets it", u, knobsPath)
	}
	for key := range knobs {
		switch _, ok := s.fields[key]; {
		case !ok:
			t.Errorf("%s lists %s, which is not an exported scalar or func field of an internal/ struct", knobsPath, key)
		case s.set(key):
			t.Errorf("%s lists %s, which a program sets; remove the entry", knobsPath, key)
		}
	}
	t.Logf("%d fields declared, %d of them set by a program, %d listed", len(s.fields), set, len(knobs))
}

// knobFixture exercises every rule of the gate on one struct.
const knobFixture = `package fixture

import "flag"

type Config struct {
	Limit   int     // written only by Defaults
	Window  int     // Defaults' zero-guarded default, restated by Use
	Rate    float64 // zero-guarded default outside Defaults, in Run
	Depth   int     // zero-guarded default in Run, and another constant in Use
	Name    string  // written only with the zero value
	Seed    uint64  // written a value computed at run time
	Verbose bool    // bound to a flag
}

func (c *Config) Defaults() {
	c.Limit = 10
	if c.Window <= 0 {
		c.Window = 3
	}
}

func (c Config) Run() {
	if c.Rate == 0 {
		c.Rate = 0.5
	}
	if c.Depth == 0 {
		c.Depth = 4
	}
}

func Use(seed uint64) {
	c := Config{Window: 3, Depth: 8, Name: "", Seed: seed}
	flag.BoolVar(&c.Verbose, "v", false, "verbose")
	c.Run()
}
`

// TestKnobRulesOnFixture checks which fields of knobFixture the gate
// counts as set: a rule that never fired would leave the whole-tree
// check passing, so each rule is pinned here on its own field.
func TestKnobRulesOnFixture(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go command not on PATH") // importing flag needs its export data
	}
	s := newFieldScan()
	f, err := parser.ParseFile(s.fset, "fixture.go", knobFixture, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.check("dui/internal/fixture", []*ast.File{f}, importer.ForCompiler(s.fset, "gc", nil)); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"Limit": false, "Window": false, "Rate": false, "Name": false,
		"Depth": true, "Seed": true, "Verbose": true,
	}
	if len(s.fields) != len(want) {
		t.Fatalf("declared %d fields, want %d: %v", len(s.fields), len(want), s.fields)
	}
	for name, set := range want {
		if got := s.set("fixture.Config." + name); got != set {
			t.Errorf("Config.%s counted as set = %v, want %v", name, got, set)
		}
	}
}

// listedPkg is the part of `go list -json` output the scan reads.
type listedPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	DepOnly    bool
}

// fieldScan collects, keyed "pkg.Type.Field" with the "dui/internal/"
// prefix dropped: the exported scalar and func fields of every struct type
// declared under internal/ (with the field's position), and every write
// non-test code makes to a field.
type fieldScan struct {
	fset   *token.FileSet
	fields map[string]string
	writes map[string][]fieldWrite
}

// fieldWrite is one write of a field: the compile-time constant it stores
// (nil when the value is computed at run time or the write is a binding),
// whether that constant is the zero value, and whether it is a default
// write.
type fieldWrite struct {
	val  constant.Value
	zero bool
	dflt bool
}

func newFieldScan() *fieldScan {
	return &fieldScan{fset: token.NewFileSet(), fields: map[string]string{}, writes: map[string][]fieldWrite{}}
}

// set reports whether some write sets key: one that is no default write,
// stores no zero value and restates no default write's constant.
func (s *fieldScan) set(key string) bool {
	ws := s.writes[key]
	restatesDefault := func(v constant.Value) bool {
		return v != nil && slices.ContainsFunc(ws, func(d fieldWrite) bool {
			return d.dflt && d.val != nil && sameConst(d.val, v)
		})
	}
	for _, w := range ws {
		if !w.dflt && !w.zero && !restatesDefault(w.val) {
			return true
		}
	}
	return false
}

// sameConst reports whether two constants of one field's type are equal.
func sameConst(a, b constant.Value) bool {
	numeric := func(v constant.Value) bool { return v.Kind() == constant.Int || v.Kind() == constant.Float }
	return (a.Kind() == b.Kind() || numeric(a) && numeric(b)) && constant.Compare(a, token.EQL, b)
}

// scanModule type-checks the packages pattern names in the module at dir
// from source, importing their dependencies from export data.
func (s *fieldScan) scanModule(t *testing.T, goTool, dir, pattern string) {
	t.Helper()
	cmd := exec.Command(goTool, "list", "-export", "-deps", "-json=ImportPath,Dir,GoFiles,Export,DepOnly", pattern)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v", dir, err)
	}
	export := map[string]string{}
	var pkgs []listedPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		export[p.ImportPath] = p.Export
		if !p.DepOnly {
			pkgs = append(pkgs, p)
		}
	}
	imp := importer.ForCompiler(s.fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(export[path])
	})
	for _, p := range pkgs {
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(s.fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		if err := s.check(p.ImportPath, files, imp); err != nil {
			t.Fatal(err)
		}
	}
}

// check type-checks one package's files, then records its declared fields
// and its field writes.
func (s *fieldScan) check(path string, files []*ast.File, imp types.Importer) error {
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Selections: map[*ast.SelectorExpr]*types.Selection{}}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, s.fset, files, info)
	if err != nil {
		return fmt.Errorf("type-checking %s: %v", path, err)
	}
	s.declare(pkg)
	for _, f := range files {
		s.scanFile(f, info)
	}
	return nil
}

// declare records the exported scalar and func fields of the struct types
// declared at package level in pkg, when pkg is under internal/. Fields
// with a json tag are left out: encoding/json writes them from a spec file
// or a request body, a write no type-check sees.
func (s *fieldScan) declare(pkg *types.Package) {
	for _, name := range pkg.Scope().Names() {
		tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		st, key := structOf(tn.Type())
		if st == nil {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if _, decoded := reflect.StructTag(st.Tag(i)).Lookup("json"); decoded {
				continue
			}
			if f := st.Field(i); f.Exported() && settable(f) {
				s.fields[key+"."+f.Name()] = s.fset.Position(f.Pos()).String()
			}
		}
	}
}

// scanFile records the field writes of one file, in function bodies and
// package-level initializers alike, marking each default write.
func (s *fieldScan) scanFile(f *ast.File, info *types.Info) {
	for _, d := range f.Decls {
		owner := ""
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil &&
			(fd.Name.Name == "Defaults" || fd.Name.Name == "defaults") {
			owner = typeKey(info.Types[fd.Recv.List[0].Type].Type)
		}
		var stack []ast.Node // the nodes enclosing the current one
		// record notes a write of key at n storing val (nil: a value
		// computed at run time).
		record := func(key string, n ast.Node, val ast.Expr) {
			if key == "" {
				return
			}
			w := fieldWrite{dflt: owner != "" && strings.HasPrefix(key, owner+".") || zeroGuarded(stack, n, key, info)}
			if val != nil {
				tv := info.Types[val]
				w.val = tv.Value
				w.zero = tv.IsNil() || tv.Value != nil && isZero(tv.Value)
			}
			s.writes[key] = append(s.writes[key], w)
		}
		recordLHS := func(e ast.Expr, val ast.Expr) {
			if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
				record(selectionKey(info.Selections[sel]), e, val)
			}
		}
		ast.Inspect(d, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					var val ast.Expr
					if n.Tok == token.ASSIGN && len(n.Rhs) == len(n.Lhs) {
						val = n.Rhs[i]
					}
					recordLHS(lhs, val)
				}
			case *ast.IncDecStmt:
				recordLHS(n.X, nil)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					recordLHS(n.X, nil)
				}
			case *ast.CompositeLit:
				if st, key := structOf(info.Types[n].Type); st != nil {
					for i, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							record(key+"."+kv.Key.(*ast.Ident).Name, kv, kv.Value)
						} else if i < st.NumFields() {
							record(key+"."+st.Field(i).Name(), elt, elt)
						}
					}
				}
			}
			stack = append(stack, n)
			return true
		})
	}
}

// zeroGuarded reports whether the write n of field key sits in the body of
// an if, among the nodes in stack, whose condition compares that field
// with its zero value (== 0, <= 0, == "").
func zeroGuarded(stack []ast.Node, n ast.Node, key string, info *types.Info) bool {
	for _, outer := range stack {
		ifs, ok := outer.(*ast.IfStmt)
		if !ok || n.Pos() < ifs.Body.Pos() || n.End() > ifs.Body.End() {
			continue
		}
		guarded := false
		ast.Inspect(ifs.Cond, func(c ast.Node) bool {
			b, ok := c.(*ast.BinaryExpr)
			if !ok || b.Op != token.EQL && b.Op != token.LEQ {
				return !guarded
			}
			sel, ok := ast.Unparen(b.X).(*ast.SelectorExpr)
			if ok && selectionKey(info.Selections[sel]) == key {
				if v := info.Types[b.Y].Value; v != nil && isZero(v) {
					guarded = true
				}
			}
			return !guarded
		})
		if guarded {
			return true
		}
	}
	return false
}

// isZero reports whether a constant is its type's zero value.
func isZero(v constant.Value) bool {
	switch v.Kind() {
	case constant.Bool:
		return !constant.BoolVal(v)
	case constant.String:
		return constant.StringVal(v) == ""
	case constant.Int, constant.Float, constant.Complex:
		return constant.Sign(v) == 0
	}
	return false
}

// settable reports whether a field holds a single value a caller could
// tune: a basic type (numbers, strings, bools, durations) or a func.
func settable(v *types.Var) bool {
	switch v.Type().Underlying().(type) {
	case *types.Basic, *types.Signature:
		return true
	}
	return false
}

// typeKey returns "pkg.Type" for a (pointer to a) named type declared
// under dui/internal/, and "" for any other type.
func typeKey(t types.Type) string {
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := types.Unalias(t).(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return ""
	}
	pkg, ok := strings.CutPrefix(n.Obj().Pkg().Path(), "dui/internal/")
	if !ok {
		return ""
	}
	return pkg + "." + n.Origin().Obj().Name()
}

// structOf returns the struct underlying a (pointer to a) named type with
// the type's key, or nil.
func structOf(t types.Type) (*types.Struct, string) {
	key := typeKey(t)
	if key == "" {
		return nil, ""
	}
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	st, _ := t.Underlying().(*types.Struct)
	return st, key
}

// selectionKey returns the key of the field a selector picks, walking
// embedded fields so the key names the struct that declares it.
func selectionKey(sel *types.Selection) string {
	if sel == nil || sel.Kind() != types.FieldVal {
		return ""
	}
	t := sel.Recv()
	var key string
	var field *types.Var
	for _, i := range sel.Index() {
		if p, ok := types.Unalias(t).(*types.Pointer); ok {
			t = p.Elem()
		}
		key = typeKey(t)
		field = t.Underlying().(*types.Struct).Field(i)
		t = field.Type()
	}
	if key == "" {
		return ""
	}
	return key + "." + field.Name()
}

// knobLine is one testdata/knobs.txt entry: a field key, a tab, and the
// repository path of the test or bench file that sets it.
var knobLine = regexp.MustCompile(`^([a-z]+\.[A-Z]\w*\.[A-Z]\w*)\t(\S+\.go)$`)

// readKnobs parses testdata/knobs.txt into field key → file, checking each
// entry's form, that its file exists and names the field, and that no
// field is listed twice. Blank lines and lines starting with '#' are
// skipped.
func readKnobs(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(knobsPath)
	if err != nil {
		t.Fatal(err)
	}
	knobs := map[string]string{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for i := 1; sc.Scan(); i++ {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		m := knobLine.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("%s:%d: want \"pkg.Type.Field<TAB>file.go\", got %q", knobsPath, i, line)
			continue
		}
		key, file := m[1], m[2]
		if knobs[key] != "" {
			t.Errorf("%s:%d: %s listed twice", knobsPath, i, key)
		}
		knobs[key] = file
		src, err := os.ReadFile(file)
		field := key[strings.LastIndexByte(key, '.')+1:]
		switch {
		case err != nil:
			t.Errorf("%s:%d: %v", knobsPath, i, err)
		case !strings.HasSuffix(file, "_test.go") && !strings.HasPrefix(file, "bench/"):
			t.Errorf("%s:%d: %s is neither a test nor a bench file", knobsPath, i, file)
		case !regexp.MustCompile(`\b` + field + `\b`).Match(src):
			t.Errorf("%s:%d: %s does not name %s", knobsPath, i, file, field)
		}
	}
	return knobs
}
