package dui

import (
	"bufio"
	"bytes"
	"encoding/json"
	"go/ast"
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
	"sort"
	"strings"
	"testing"
)

// The knob gate: a field exists only when two programs need different
// values. TestNoDefaultOnlyFields fails on any exported scalar or func
// field of a struct declared in non-test internal/ code that no non-test
// code in the root module or bench/ writes, outside its own type's
// Defaults/defaults method — a value with one setting, which belongs in a
// constant, or a field nothing sets at all — unless testdata/knobs.txt
// lists it with the test or bench file that sets it. The scan type-checks
// every non-test package against the export data `go list -export`
// writes, so a write is found however the field is reached: keyed and
// positional composite literals, assignments (multi-assign and op-assign
// included), ++/--, and &x.F (flag bindings).

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
	if len(s.fields) == 0 || len(s.written) == 0 {
		t.Fatal("found no declared or written field; the scan is broken")
	}
	knobs := readKnobs(t)
	var unset []string
	set := 0
	for key, pos := range s.fields {
		switch {
		case s.written[key]:
			set++
		case knobs[key] == "":
			unset = append(unset, key+"\t("+pos+")")
		}
	}
	sort.Strings(unset)
	for _, u := range unset {
		t.Errorf("no program sets %s outside its Defaults method; make it a constant or delete it, or list it in %s with the test that sets it", u, knobsPath)
	}
	for key := range knobs {
		switch _, ok := s.fields[key]; {
		case !ok:
			t.Errorf("%s lists %s, which is not an exported scalar or func field of an internal/ struct", knobsPath, key)
		case s.written[key]:
			t.Errorf("%s lists %s, which a program sets; remove the entry", knobsPath, key)
		}
	}
	t.Logf("%d fields declared, %d of them set by a program, %d listed", len(s.fields), set, len(knobs))
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
// declared under internal/ (with the field's position), and every field
// non-test code writes outside its own type's Defaults/defaults method.
type fieldScan struct {
	fset    *token.FileSet
	fields  map[string]string
	written map[string]bool
}

func newFieldScan() *fieldScan {
	return &fieldScan{fset: token.NewFileSet(), fields: map[string]string{}, written: map[string]bool{}}
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
		info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Selections: map[*ast.SelectorExpr]*types.Selection{}}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(p.ImportPath, s.fset, files, info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", p.ImportPath, err)
		}
		s.declare(pkg)
		for _, f := range files {
			s.scanFile(f, info)
		}
	}
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
// package-level initializers alike. Writes inside a Defaults/defaults
// method to its own receiver type's fields do not count; every other
// write marks its field written.
func (s *fieldScan) scanFile(f *ast.File, info *types.Info) {
	for _, d := range f.Decls {
		owner := ""
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil &&
			(fd.Name.Name == "Defaults" || fd.Name.Name == "defaults") {
			owner = typeKey(info.Types[fd.Recv.List[0].Type].Type)
		}
		mark := func(key string) {
			if key == "" || owner != "" && strings.HasPrefix(key, owner+".") {
				return
			}
			s.written[key] = true
		}
		markLHS := func(e ast.Expr) {
			if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
				mark(selectionKey(info.Selections[sel]))
			}
		}
		ast.Inspect(d, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					markLHS(lhs)
				}
			case *ast.IncDecStmt:
				markLHS(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					markLHS(n.X)
				}
			case *ast.CompositeLit:
				st, key := structOf(info.Types[n].Type)
				if st == nil {
					return true
				}
				for i, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						mark(key + "." + kv.Key.(*ast.Ident).Name)
					} else if i < st.NumFields() {
						mark(key + "." + st.Field(i).Name())
					}
				}
			}
			return true
		})
	}
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
