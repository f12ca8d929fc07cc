package testutil

import (
	"maps"
	"os"
	"path/filepath"
	"testing"
)

// TestDirDigest: the digest names every file with its size and hash, and
// it changes when a file's bytes change or a file appears.
func TestDirDigest(t *testing.T) {
	dir := t.TempDir()
	for name, body := range map[string]string{"a": "alpha", "b": ""} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	before, err := DirDigest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(before) != 2 || before["b"] != "0 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855" {
		t.Fatalf("digest %v", before)
	}
	if again, err := DirDigest(dir); err != nil || !maps.Equal(again, before) {
		t.Fatalf("a second digest of the same files: %v, %v", again, err)
	}
	if err := os.WriteFile(filepath.Join(dir, "a"), []byte("alphA"), 0o644); err != nil {
		t.Fatal(err)
	}
	if after, err := DirDigest(dir); err != nil || after["a"] == before["a"] || after["b"] != before["b"] {
		t.Fatalf("after rewriting a: %v, %v", after, err)
	}
	if err := os.WriteFile(filepath.Join(dir, "c"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if after, err := DirDigest(dir); err != nil || len(after) != 3 {
		t.Fatalf("after creating c: %v, %v", after, err)
	}
	if _, err := DirDigest(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("digest of a missing directory succeeded")
	}
	if err := os.Mkdir(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := DirDigest(dir); err == nil {
		t.Fatal("digest of a directory holding a directory succeeded")
	}
}
