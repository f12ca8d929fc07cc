package testutil

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
)

// DirDigest maps every file of dir to its size and SHA-256, so a test can
// show that an operation left a directory byte for byte as it was: no
// file written, created or removed.
func DirDigest(dir string) (map[string]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := make(map[string]string, len(entries))
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		out[e.Name()] = fmt.Sprintf("%d %x", len(data), sha256.Sum256(data))
	}
	return out, nil
}
