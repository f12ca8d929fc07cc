package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRun drives the gate over canned `go test -cover` output against a
// two-package baseline: a package below its floor, a floor with no
// coverage line and an upstream FAIL line each exit 1; a package with no
// floor only gets a note; the observed coverage is written back in
// baseline form.
func TestRun(t *testing.T) {
	dir := t.TempDir()
	baseline := filepath.Join(dir, "floors.txt")
	if err := os.WriteFile(baseline, []byte("# floors\nex/a 50.0\n\nex/b 70.0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	const (
		a    = "ok  \tex/a\t0.1s\tcoverage: 55.0% of statements\n"
		b    = "ok  \tex/b\t0.1s\tcoverage: 70.0% of statements\n"
		bLow = "ok  \tex/b\t0.1s\tcoverage: 69.9% of statements\n"
		c    = "ok  \tex/c\t0.1s\tcoverage: 12.5% of statements\n"
	)
	for _, tc := range []struct {
		name, in string
		code     int
		stderr   string
	}{
		{"at the floors", a + b, 0, "2 packages at or above their floors"},
		{"below a floor", a + bLow, 1, "FAIL ex/b: coverage 69.9% below floor 70.0%"},
		{"a floor with no coverage line", a, 1, "FAIL ex/b: floor 70.0% recorded but no coverage reported"},
		{"an upstream FAIL line", a + b + "--- FAIL: TestX (0.00s)\nFAIL\tex/d\t0.1s\n", 1, "test failures upstream"},
		{"a package with no floor", a + b + c, 0, "note: ex/c (12.5%) has no recorded floor"},
	} {
		out := filepath.Join(dir, "current.txt")
		var stdout, stderr bytes.Buffer
		code := run([]string{"-baseline", baseline, "-out", out}, strings.NewReader(tc.in), &stdout, &stderr)
		if code != tc.code || !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("%s: exit %d, stderr %q; want %d and %q", tc.name, code, stderr.String(), tc.code, tc.stderr)
		}
		if stdout.String() != tc.in {
			t.Errorf("%s: echoed %q, want the input", tc.name, stdout.String())
		}
		if tc.code != 0 {
			continue
		}
		written, err := readBaseline(out)
		if err != nil {
			t.Fatal(err)
		}
		if len(written) < 2 || written["ex/a"] != 55 || written["ex/b"] != 70 {
			t.Errorf("%s: wrote %v", tc.name, written)
		}
	}

	var stderr bytes.Buffer
	if code := run([]string{"-baseline", filepath.Join(dir, "missing.txt")}, strings.NewReader(a), &bytes.Buffer{}, &stderr); code != 1 {
		t.Errorf("a missing baseline: exit %d, want 1", code)
	}
	if code := run([]string{"-slack", "1"}, strings.NewReader(a), &bytes.Buffer{}, &stderr); code != 2 {
		t.Errorf("an unknown flag: exit %d, want 2", code)
	}
}
