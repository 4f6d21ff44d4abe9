package searchads_test

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"searchads"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden report corpus from current output")

// goldenCells are the pinned (seed, config) cells of the golden-report
// corpus: three qualitatively different studies whose rendered and JSON
// reports are committed under testdata/golden/ and gated byte-for-byte
// in CI. Any change to crawl order, identifier derivation, analysis
// folding, or report formatting shows up here as a diff — deliberate
// changes re-pin with `go test -run TestGoldenReports -update .`.
var goldenCells = []struct {
	name string
	cfg  searchads.Config
}{
	{
		// The smallest honest end-to-end study: sequential, flat storage.
		name: "baseline",
		cfg: searchads.Config{
			Seed:             101,
			Engines:          []string{"google", "bing"},
			QueriesPerEngine: 12,
		},
	},
	{
		// Partitioned cookie jars + the embedded filter lists: exercises
		// the storage model and blocked-request accounting.
		name: "partitioned_filter",
		cfg: searchads.Config{
			Seed:             202,
			Engines:          []string{"google", "bing", "duckduckgo"},
			QueriesPerEngine: 10,
			Storage:          searchads.PartitionedStorage,
			Filter:           searchads.DefaultFilterEngine(),
		},
	},
	{
		// Bot-hostile faults at 10%: retries, failed iterations, and the
		// crawl-loss table all appear in the report.
		name: "bot_hostile",
		cfg: searchads.Config{
			Seed:             303,
			Engines:          []string{"google", "bing"},
			QueriesPerEngine: 10,
			FaultProfile:     "bot-hostile",
			FaultRate:        0.1,
		},
	},
}

// TestGoldenReports regenerates each corpus cell and compares the
// rendered and JSON reports byte-for-byte against testdata/golden/,
// and the SHA-256 of the cell's saved dataset against its
// <cell>.dataset.sha256 digest. With -update it rewrites the corpus
// instead.
func TestGoldenReports(t *testing.T) {
	for _, cell := range goldenCells {
		t.Run(cell.name, func(t *testing.T) {
			study := searchads.NewStudy(cell.cfg)
			ds, err := study.Crawl(t.Context())
			if err != nil {
				t.Fatalf("Crawl: %v", err)
			}
			path := filepath.Join(t.TempDir(), "dataset.json")
			if err := ds.Save(path); err != nil {
				t.Fatalf("Save: %v", err)
			}
			saved, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(saved)
			checkGolden(t, cell.name+".dataset.sha256", []byte(hex.EncodeToString(sum[:])+"\n"))
			report, err := study.Analyze(t.Context())
			if err != nil {
				t.Fatalf("Analyze: %v", err)
			}
			jsonBytes, err := report.JSON()
			if err != nil {
				t.Fatalf("JSON: %v", err)
			}
			checkGolden(t, cell.name+".txt", []byte(report.Render()))
			checkGolden(t, cell.name+".json", jsonBytes)
		})
	}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden file: %v (run `go test -run TestGoldenReports -update .` to create it)", err)
	}
	if string(got) != string(want) {
		t.Errorf("%s drifted from the golden corpus (%d bytes now, %d pinned): first divergence at byte %d\nre-pin deliberate changes with `go test -run TestGoldenReports -update .`",
			name, len(got), len(want), firstDiff(got, want))
	}
}

// firstDiff returns the index of the first differing byte (or the
// shorter length when one output is a prefix of the other).
func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
