package testutil

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// recordingTB captures Errorf calls instead of failing the real test.
type recordingTB struct {
	*testing.T
	cleanups []func()
	failed   bool
}

func (r *recordingTB) Cleanup(f func())      { r.cleanups = append(r.cleanups, f) }
func (r *recordingTB) Errorf(string, ...any) { r.failed = true }

func (r *recordingTB) runCleanups() {
	for i := len(r.cleanups) - 1; i >= 0; i-- {
		r.cleanups[i]()
	}
}

func TestVerifyNoLeaksPassesOnCleanExit(t *testing.T) {
	rec := &recordingTB{T: t}
	VerifyNoLeaks(rec)
	done := make(chan struct{})
	go func() { close(done) }()
	<-done
	rec.runCleanups()
	if rec.failed {
		t.Fatal("clean test reported a leak")
	}
}

func TestVerifyNoLeaksCatchesParkedGoroutine(t *testing.T) {
	rec := &recordingTB{T: t}
	VerifyNoLeaks(rec)
	release := make(chan struct{})
	parked := make(chan struct{})
	go func() {
		close(parked)
		<-release
	}()
	<-parked
	// Shrink the grace window's effect by releasing after the check
	// starts failing: run cleanups in a goroutine and free the leak
	// afterwards so the test itself does not leak.
	doneCh := make(chan struct{})
	go func() {
		rec.runCleanups()
		close(doneCh)
	}()
	select {
	case <-doneCh:
	case <-time.After(5 * time.Second):
		t.Fatal("cleanup never returned")
	}
	if !rec.failed {
		t.Fatal("parked goroutine not reported")
	}
	close(release)
}

// TestNoDeferredLeakChecks: a deferred VerifyNoLeaks takes its baseline as
// the test returns, after everything the test started, so it can never
// see a leak. Every _test.go of the module must call it undeferred.
func TestNoDeferredLeakChecks(t *testing.T) {
	root := filepath.Join("..", "..")
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not at %s: %v", root, err)
	}
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		files++
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if d, ok := n.(*ast.DeferStmt); ok && calls(d.Call, "VerifyNoLeaks") {
				t.Errorf("%s: defer VerifyNoLeaks checks nothing; call it as the test's first statement", fset.Position(d.Pos()))
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 100 {
		t.Fatalf("walked only %d test files from %s", files, root)
	}
}

// calls reports whether call invokes a function or method named name.
func calls(call *ast.CallExpr, name string) bool {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name == name
	case *ast.SelectorExpr:
		return fn.Sel.Name == name
	}
	return false
}
