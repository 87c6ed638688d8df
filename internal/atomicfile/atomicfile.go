// Package atomicfile writes files via the temp-file + rename idiom, so a
// crash or failed write never leaves a truncated or half-written file where
// a complete one (a persisted sensitivity profile, bought with real
// crowdsourcing dollars) used to be.
package atomicfile

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Write streams content into a temp file in path's directory via the write
// callback, then renames it over path. On any failure the temp file is
// removed and path is left untouched.
func Write(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+"-*")
	if err != nil {
		return fmt.Errorf("atomicfile: temp file for %s: %w", path, err)
	}
	if err := write(tmp); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("atomicfile: closing temp for %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("atomicfile: installing %s: %w", path, err)
	}
	return nil
}
