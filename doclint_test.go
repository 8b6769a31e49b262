package dui

// Documentation and formatting lint, run as part of the ordinary test
// suite (and therefore by the CI `check` job). Three layers:
//
//   - every .go file in the repository must be gofmt-clean and every
//     package must carry a package comment — documentation is a stated
//     deliverable of this reproduction, so a missing doc block is a test
//     failure, not a style nit;
//   - the determinism-critical packages (internal/netsim, internal/stats,
//     internal/runner) are held to the stricter godoc standard: every
//     exported top-level identifier must have a doc comment, because
//     their comments carry the engine's ordering and seeding contracts;
//   - every command the living documents name must exist, so deleting or
//     renaming one cannot leave a stale instruction behind.

import (
	"bytes"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// goFiles walks the repository and returns every tracked .go file,
// skipping testdata and hidden directories.
func goFiles(t *testing.T) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walking repository: %v", err)
	}
	if len(files) == 0 {
		t.Fatal("found no .go files — doclint is walking the wrong root")
	}
	return files
}

// TestGofmtClean asserts every .go file is unchanged by gofmt. The CI
// check job runs the suite, so a formatting regression fails the build
// rather than waiting for review.
func TestGofmtClean(t *testing.T) {
	for _, path := range goFiles(t) {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want, err := format.Source(src)
		if err != nil {
			t.Errorf("%s: gofmt: %v", path, err)
			continue
		}
		if !bytes.Equal(src, want) {
			t.Errorf("%s: not gofmt-clean (run gofmt -w %s)", path, path)
		}
	}
}

// TestPackagesHaveDocComments asserts every package directory has at least
// one file with a package doc comment (test-only packages exempt).
func TestPackagesHaveDocComments(t *testing.T) {
	documented := map[string]bool{} // package dir -> has a package comment
	fset := token.NewFileSet()
	for _, path := range goFiles(t) {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		dir := filepath.Dir(path)
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.PackageClauseOnly)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if _, seen := documented[dir]; !seen {
			documented[dir] = false
		}
		if f.Doc != nil {
			documented[dir] = true
		}
	}
	for dir, ok := range documented {
		if !ok {
			t.Errorf("package in %s has no package doc comment in any file", dir)
		}
	}
}

// strictDocPackages are held to full godoc coverage: their comments state
// the determinism contracts (event ordering, seed derivation, worker-count
// independence) that the rest of the repository builds on.
var strictDocPackages = []string{
	"internal/netsim",
	"internal/stats",
	"internal/runner",
}

// TestExportedIdentifiersDocumented asserts every exported top-level
// declaration in the strict packages carries a doc comment.
func TestExportedIdentifiersDocumented(t *testing.T) {
	for _, dir := range strictDocPackages {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, pkg := range pkgs {
			for path, f := range pkg.Files {
				for _, decl := range f.Decls {
					checkDeclDocs(t, fset, path, decl)
				}
			}
		}
	}
}

// checkDeclDocs reports exported declarations without doc comments.
func checkDeclDocs(t *testing.T, fset *token.FileSet, path string, decl ast.Decl) {
	t.Helper()
	pos := func(n ast.Node) string { return fset.Position(n.Pos()).String() }
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Name.IsExported() && d.Doc == nil {
			t.Errorf("%s: exported func %s has no doc comment", pos(d), d.Name.Name)
		}
	case *ast.GenDecl:
		// A doc comment on the gen decl covers a grouped block (var/const
		// groups commonly document the group once).
		groupDoc := d.Doc != nil
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if s.Name.IsExported() && s.Doc == nil && !groupDoc {
					t.Errorf("%s: exported type %s has no doc comment", pos(s), s.Name.Name)
				}
			case *ast.ValueSpec:
				if s.Doc != nil || s.Comment != nil || groupDoc {
					continue
				}
				for _, name := range s.Names {
					if name.IsExported() {
						t.Errorf("%s: exported %s has no doc comment", pos(s), name.Name)
					}
				}
			}
		}
	}
	_ = path
}

// docRefFiles are the living documents, and the CI files that build and
// run commands, whose command references must resolve (glob patterns).
var docRefFiles = []string{
	"README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md",
	"Makefile", ".github/workflows/*.yml", "scripts/*.sh",
}

// runLineDocs are dated logs whose prose names deleted tools on purpose:
// only their runnable lines, those matching runLine, must resolve.
var runLineDocs = []string{"EXPERIMENTS.md"}

var runLine = regexp.MustCompile(`^(?:\$ )?go run `)

// docRef matches cmd/<x> (optionally ./-prefixed) and /tmp/bins/<x>, the
// verify skill's build directory for cmd/<x>.
var docRef = regexp.MustCompile(`(?:^|[^\w/.-])(?:\./)?cmd/([\w-]+)|/tmp/bins/([\w-]+)`)

// TestDocReferencesExist asserts every cmd/<x> and /tmp/bins/<x> named in
// a living document or CI file, or on a runnable line of a dated log, is
// an existing directory.
func TestDocReferencesExist(t *testing.T) {
	var docs []string
	for _, pattern := range docRefFiles {
		matches, err := filepath.Glob(pattern)
		if err != nil || len(matches) == 0 {
			t.Fatalf("%s matches no file (%v)", pattern, err)
		}
		docs = append(docs, matches...)
	}
	for _, doc := range append(docs, runLineDocs...) {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		runOnly := slices.Contains(runLineDocs, doc)
		for i, line := range strings.Split(string(src), "\n") {
			if runOnly && !runLine.MatchString(line) {
				continue
			}
			for _, m := range docRef.FindAllStringSubmatch(line, -1) {
				dir := filepath.Join("cmd", m[1]+m[2])
				if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
					t.Errorf("%s:%d: names %s, which does not exist", doc, i+1, dir)
				}
			}
		}
	}
}
