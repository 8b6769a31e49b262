// Package exampletest checks the examples/ programs from their own
// tests: it runs a program's main in process, captures what it prints,
// and asserts one headline line verbatim. The examples are the walkthroughs
// README points readers to, so these tests are what keep them from
// rotting silently.
package exampletest

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// Headline runs main with os.Stdout redirected to a file and fails t
// unless one of the printed lines equals want exactly.
func Headline(t *testing.T, main func(), want string) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	defer func() { os.Stdout = stdout }()
	main()
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(strings.Split(string(out), "\n"), want) {
		t.Errorf("output lacks the headline %q:\n%s", want, out)
	}
}
