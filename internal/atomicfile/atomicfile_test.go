package atomicfile

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// leftovers lists the temporary files WriteFile left in dir.
func leftovers(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var tmps []string
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			tmps = append(tmps, e.Name())
		}
	}
	return tmps
}

func TestWriteFileChunksRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := WriteFile(path, []byte("head["), nil, []byte("1,2,3"), []byte{}, []byte("]tail")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "head[1,2,3]tail" {
		t.Fatalf("content = %q, want the chunks in order", got)
	}
	// A second write replaces the content whole.
	if err := WriteFile(path, []byte("new")); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "new" {
		t.Fatalf("content after overwrite = %q", got)
	}
	if tmps := leftovers(t, dir); len(tmps) != 0 {
		t.Fatalf("temp files left after success: %v", tmps)
	}
}

// TestWriteFileMode pins the permission: written files are 0644, not
// the 0600 os.CreateTemp gives the temporary file.
func TestWriteFileMode(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	if err := WriteFile(path, []byte("{}")); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if perm := info.Mode().Perm(); perm != mode {
		t.Fatalf("mode = %o, want %o", perm, mode)
	}
}

func TestWriteFileMissingDirectory(t *testing.T) {
	dir := t.TempDir()
	if err := WriteFile(filepath.Join(dir, "missing", "out.json"), []byte("x")); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
	if tmps := leftovers(t, dir); len(tmps) != 0 {
		t.Fatalf("temp files left after failure: %v", tmps)
	}
}

// TestWriteFileUnwritableTarget fails the rename — the destination is
// a non-empty directory — after the temp file was written and synced:
// the previous content survives and the temp file is gone.
func TestWriteFileUnwritableTarget(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "out.json")
	keep := filepath.Join(target, "keep")
	if err := os.Mkdir(target, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(keep, []byte("previous"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(target, []byte("replacement")); err == nil {
		t.Fatal("write over a non-empty directory succeeded")
	}
	if got, err := os.ReadFile(keep); err != nil || string(got) != "previous" {
		t.Fatalf("previous content = %q, %v; want it intact", got, err)
	}
	if tmps := leftovers(t, dir); len(tmps) != 0 {
		t.Fatalf("temp files left after failure: %v", tmps)
	}
}
