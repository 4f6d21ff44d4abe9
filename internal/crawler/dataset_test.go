package crawler

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"searchads/internal/websim"
)

// TestDatasetSaveLoadRoundTrip crawls a small real dataset and asserts
// the Save → Load round trip: Load must return exactly what
// json.Unmarshal (plus the version migration) decodes from the saved
// bytes, and re-saving the loaded dataset must reproduce the file byte
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
	want.migrate()
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
