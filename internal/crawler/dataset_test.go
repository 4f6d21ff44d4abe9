package crawler

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"searchads/internal/websim"
)

// TestDatasetSaveLoadRoundTrip crawls a small real dataset and asserts
// the Save → Load round trip: Load must return exactly what
// json.Unmarshal decodes from the saved bytes, and re-saving the loaded dataset must reproduce the file byte
// for byte.
func TestDatasetSaveLoadRoundTrip(t *testing.T) {
	w := websim.NewWorld(websim.Config{Seed: 55, Engines: []string{"bing", "startpage"}, QueriesPerEngine: 4})
	ds, err := New(Config{World: w}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Iterations) != 8 {
		t.Fatalf("iterations = %d", len(ds.Iterations))
	}
	path := filepath.Join(t.TempDir(), "ds.json")
	if err := ds.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want Dataset
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, &want) {
		t.Fatal("Load differs from json.Unmarshal of the same bytes")
	}

	// A second save of the loaded dataset must be byte-identical — the
	// canonical form is a serialization fixpoint.
	path2 := filepath.Join(t.TempDir(), "ds2.json")
	if err := back.Save(path2); err != nil {
		t.Fatal(err)
	}
	b2, _ := os.ReadFile(path2)
	if string(data) != string(b2) {
		t.Fatal("re-saving a loaded dataset changed its bytes")
	}

	// And the analyses of the two must agree exactly — the round trip
	// loses nothing the pipeline reads.
	if got, want := len(back.ByEngine()), len(ds.ByEngine()); got != want {
		t.Fatalf("engines after round trip = %d, want %d", got, want)
	}
}

// TestLoadCorruptDataset: corrupt or truncated files must yield a
// useful error naming the parse step, and a missing file a read error —
// never a zero dataset.
func TestLoadCorruptDataset(t *testing.T) {
	dir := t.TempDir()

	corrupt := filepath.Join(dir, "corrupt.json")
	if err := os.WriteFile(corrupt, []byte(`{"seed": "not-a-number"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(corrupt); err == nil || !strings.Contains(err.Error(), "parse dataset") {
		t.Fatalf("corrupt file error = %v, want a parse error", err)
	}

	// json.Unmarshal accepts a null iteration; Load must refuse it.
	null := filepath.Join(dir, "null.json")
	if err := os.WriteFile(null, []byte(`{"seed":1,"storage_mode":"flat","created_at":"2022-09-01T00:00:00Z","iterations":[null]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(null); err == nil || !strings.Contains(err.Error(), "parse dataset") {
		t.Fatalf("null iteration error = %v, want a parse error", err)
	}

	// Truncate a real dataset mid-stream.
	w := websim.NewWorld(websim.Config{Seed: 56, Engines: []string{"qwant"}, QueriesPerEngine: 2})
	ds, err := New(Config{World: w, SkipRevisit: true}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	full := filepath.Join(dir, "full.json")
	if err := ds.Save(full); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	truncated := filepath.Join(dir, "truncated.json")
	if err := os.WriteFile(truncated, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(truncated); err == nil || !strings.Contains(err.Error(), "parse dataset") {
		t.Fatalf("truncated file error = %v, want a parse error", err)
	}

	if _, err := Load(filepath.Join(dir, "missing.json")); err == nil || !strings.Contains(err.Error(), "read dataset") {
		t.Fatalf("missing file error = %v, want a read error", err)
	}
}

// TestDatasetSaveAtomic is the truncation-crash regression test for the
// atomic dataset writer: overwriting an existing dataset must never
// expose a truncated hybrid (the pre-atomic os.WriteFile did exactly
// that when killed mid-write), and failed saves must leave both the
// destination and the directory untouched.
func TestDatasetSaveAtomic(t *testing.T) {
	w := websim.NewWorld(websim.Config{Seed: 58, Engines: []string{"qwant"}, QueriesPerEngine: 3})
	ds, err := New(Config{World: w, SkipRevisit: true}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "ds.json")
	for i := 0; i < 10; i++ {
		if err := ds.Save(path); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path); err != nil {
			t.Fatalf("after save %d the destination does not parse: %v", i, err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp litter after saves: %d entries", len(entries))
	}

	// A save that cannot complete (directory missing) must fail without
	// touching the destination it was aimed at.
	bad := filepath.Join(dir, "no-such-dir", "ds.json")
	if err := ds.Save(bad); err == nil {
		t.Fatal("save into a missing directory succeeded")
	}
	if _, err := os.Stat(bad); !os.IsNotExist(err) {
		t.Fatal("failed save left a file behind")
	}
}

// TestDatasetVersionStamping: Save stamps DatasetVersion on every
// dataset, a clean crawl with no versioned field set included, and Load
// reads that version back; a file with no version key, or any other
// version, is refused with ErrDatasetVersion.
func TestDatasetVersionStamping(t *testing.T) {
	w := websim.NewWorld(websim.Config{Seed: 57, Engines: []string{"bing", "google"}, QueriesPerEngine: 2})
	clean, err := New(Config{World: w}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range clean.Iterations {
		if it.ErrorClass != "" || it.Outcome != "" {
			t.Fatalf("clean crawl iteration %d carries class %q, outcome %q", it.Index, it.ErrorClass, it.Outcome)
		}
	}
	type row struct {
		data    []byte
		refused bool
	}
	rows := map[string]row{"clean crawl": {data: saveBytes(t, clean)}}
	for name, data := range refusedVersions() {
		rows[name] = row{data, true}
	}
	dir := t.TempDir()
	for name, row := range rows {
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, row.data, 0o644); err != nil {
			t.Fatal(err)
		}
		ds, err := Load(path)
		if row.refused {
			if !errors.Is(err, ErrDatasetVersion) {
				t.Errorf("%s: Load error = %v, want ErrDatasetVersion", name, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.HasPrefix(row.data, []byte("{\n \"version\": 3,\n")) || ds.Version != DatasetVersion {
			t.Errorf("%s: saved and loaded without version %d", name, DatasetVersion)
		}
	}
}
