package testutil

import (
	"os"
	"path/filepath"
	"testing"
)

// TestOpenFDs: opening a file adds one descriptor, closing it gives it
// back.
func TestOpenFDs(t *testing.T) {
	before, err := OpenFDs()
	if err != nil {
		t.Skipf("no descriptor listing: %v", err)
	}
	f, err := os.Create(filepath.Join(t.TempDir(), "f"))
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := OpenFDs(); n != before+1 {
		t.Fatalf("%d descriptors with one file open, %d before", n, before)
	}
	f.Close()
	if n, _ := OpenFDs(); n != before {
		t.Fatalf("%d descriptors after Close, %d before", n, before)
	}
}
