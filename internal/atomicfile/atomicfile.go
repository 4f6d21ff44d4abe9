// Package atomicfile writes files so a crash at any instant leaves
// either the previous complete file or the new complete file — never a
// truncated hybrid. Checkpoints and crawler datasets both write through
// it; the kill-point crash tests exercise the guarantee directly.
package atomicfile

import (
	"fmt"
	"os"
	"path/filepath"
)

// mode is the permission every written file gets: world-readable, as
// os.WriteFile(path, data, 0o644) produced before writes went through a
// temporary file (os.CreateTemp creates files 0600).
const mode = 0o644

// WriteFile is the temp + fsync + rename + dir-fsync sequence: the
// chunks land, in order, in a temporary file in the destination's
// directory, which is synced and closed, and only then renamed over the
// destination. Passing the content as several chunks lets callers write
// a large payload without first concatenating it.
func WriteFile(path string, chunks ...[]byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("atomicfile: create temp file: %w", err)
	}
	tmpName := tmp.Name()
	// Any failure past this point removes the temp file; the destination
	// is only ever touched by the rename.
	fail := func(step string, err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("atomicfile: %s: %w", step, err)
	}
	for _, c := range chunks {
		if _, err := tmp.Write(c); err != nil {
			return fail("write temp file", err)
		}
	}
	if err := tmp.Chmod(mode); err != nil {
		return fail("chmod temp file", err)
	}
	if err := tmp.Sync(); err != nil {
		return fail("fsync temp file", err)
	}
	if err := tmp.Close(); err != nil {
		return fail("close temp file", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("atomicfile: rename into place: %w", err)
	}
	// Persist the rename itself. Directory fsync can legitimately fail
	// on some filesystems; the rename is still atomic, so a failure here
	// only weakens durability, not consistency.
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}
