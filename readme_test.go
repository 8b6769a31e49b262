package dui

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestReadmeQuickStartRuns compiles and runs README's quick-start
// program, its one ```go block, so the library-usage sample cannot rot.
// The program needs the internal packages, so it has to live inside the
// module: a -overlay maps it to a file path that does not exist, and
// nothing is written into the checkout.
func TestReadmeQuickStartRuns(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go command not on PATH")
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(readme), "\n```go\n")
	src, _, closed := strings.Cut(rest, "\n```\n")
	if !ok || !closed {
		t.Fatal("README.md has no closed ```go block")
	}
	if strings.Contains(rest, "\n```go\n") {
		t.Fatal("README.md has more than one ```go block; this test runs only the first")
	}

	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	virtual := filepath.Join(wd, "readme-quickstart", "main.go")
	if _, err := os.Stat(virtual); err == nil {
		t.Fatalf("%s exists; the overlay needs a path that does not", virtual)
	}
	dir := t.TempDir()
	onDisk := filepath.Join(dir, "main.go")
	overlay := filepath.Join(dir, "overlay.json")
	cfg, err := json.Marshal(map[string]map[string]string{"Replace": {virtual: onDisk}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(onDisk, []byte(src+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(overlay, cfg, 0o644); err != nil {
		t.Fatal(err)
	}

	out, err := exec.Command(goTool, "run", "-overlay", overlay, virtual).CombinedOutput()
	if err != nil {
		t.Fatalf("go run README's quick start: %v\n%s", err, out)
	}
	const want = "with the supervisor: rerouted false, 1 reroutes vetoed"
	if !slices.Contains(strings.Split(string(out), "\n"), want) {
		t.Errorf("README's quick start does not print %q:\n%s", want, out)
	}
}
