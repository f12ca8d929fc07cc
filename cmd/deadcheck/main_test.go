package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestUnreferenced runs the checker over a small module: a declaration
// counts as used only through a non-test reference from outside itself,
// or, for a method, through an interface its type satisfies; bench/ is
// not judged.
func TestUnreferenced(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module rdnsprivacy\n\ngo 1.22\n",
		"internal/a/a.go": `package a

import "errors"

type T struct{}

func (T) String() string { return "t" }
func (T) Dead()          {}

type E struct{}

func (E) Error() string        { return "e" }
func (E) Is(target error) bool { return errors.Is(target, errT) }

var errT = errors.New("t")

func Used() T     { return T{} }
func UsedE() error { return E{} }
func Unused()     {}
func self()       { self() }

const Dead = 1
`,
		"internal/a/a_test.go": `package a

import "testing"

func TestUnused(t *testing.T) { Unused(); _ = Dead }
`,
		"cmd/x/main.go": `package main

import (
	"fmt"

	"rdnsprivacy/internal/a"
)

func main() { fmt.Println(a.Used(), a.UsedE()) }
`,
		"bench/main.go": "package main\n\nfunc unusedInBench() {}\n\nfunc main() {}\n",
	}
	for name, body := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Chdir(dir)
	got, _, err := unreferenced()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"internal/a.T.Dead", "internal/a.Unused", "internal/a.self", "internal/a.Dead"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("unreferenced = %v, want %v", got, want)
	}
}
