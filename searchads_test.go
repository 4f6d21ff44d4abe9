package searchads_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"searchads"
)

func TestStudyEndToEnd(t *testing.T) {
	ctx := context.Background()
	study := searchads.NewStudy(searchads.Config{
		Seed:             314,
		Engines:          []string{searchads.Google, searchads.Qwant},
		QueriesPerEngine: 15,
	})
	ds, err := study.Crawl(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Iterations) != 30 {
		t.Fatalf("iterations = %d", len(ds.Iterations))
	}
	// Crawl is cached: a second call returns the same dataset.
	if ds2, _ := study.Crawl(ctx); ds2 != ds {
		t.Fatal("Crawl not cached")
	}
	report, err := study.Analyze(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if r2, _ := study.Analyze(ctx); r2 != report {
		t.Fatal("Analyze not cached")
	}
	if report.During["google"].NavTrackingFraction != 1.0 {
		t.Fatalf("google nav tracking = %.2f", report.During["google"].NavTrackingFraction)
	}
	out := report.Render()
	if !strings.Contains(out, "Table 6") {
		t.Fatal("render incomplete")
	}
}

// TestLoadDatasetRefusesOtherVersions: a saved dataset carries schema
// version 3 and loads; the same file with the version key removed, or
// set to 1, 2 or 4, is refused with ErrDatasetVersion.
func TestLoadDatasetRefusesOtherVersions(t *testing.T) {
	ds, err := searchads.NewStudy(searchads.Config{
		Seed:             316,
		Engines:          []string{searchads.Bing},
		QueriesPerEngine: 2,
	}).Crawl(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	saved := saveBytes(t, ds)
	stamp := []byte("\n \"version\": 3,")
	if !bytes.Contains(saved, stamp) {
		t.Fatal("saved dataset carries no version 3 stamp")
	}
	dir := t.TempDir()
	for name, repl := range map[string]string{
		"version 3":  string(stamp),
		"no version": "",
		"version 1":  "\n \"version\": 1,",
		"version 2":  "\n \"version\": 2,",
		"version 4":  "\n \"version\": 4,",
	} {
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, bytes.Replace(saved, stamp, []byte(repl), 1), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := searchads.LoadDataset(path)
		if name == "version 3" {
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		} else if !errors.Is(err, searchads.ErrDatasetVersion) {
			t.Errorf("%s: LoadDataset error = %v, want ErrDatasetVersion", name, err)
		}
	}
}

func TestCrawlUnknownEngineErrors(t *testing.T) {
	// A typo in Config.Engines must surface as an error, not an empty
	// dataset.
	_, err := searchads.NewStudy(searchads.Config{
		Seed:             3,
		Engines:          []string{"gogle"},
		QueriesPerEngine: 2,
	}).Crawl(context.Background())
	if err == nil {
		t.Fatal("unknown engine did not error")
	}
	if !strings.Contains(err.Error(), "gogle") || !strings.Contains(err.Error(), "unknown engine") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

func TestFacadeComponents(t *testing.T) {
	if got := searchads.AllEngines(); len(got) != 5 {
		t.Fatalf("engines = %v", got)
	}
	fe := searchads.DefaultFilterEngine()
	if fe.Len() == 0 {
		t.Fatal("empty filter engine")
	}
	if !fe.IsTracker(searchads.FilterRequest{
		URL: "https://bat.bing.com/bat.js", Type: searchads.TypeScript,
		FirstParty: "shop.example", ThirdParty: true,
	}) {
		t.Fatal("filter engine misses bat.bing.com")
	}
	ents := searchads.DefaultEntities()
	if ents.EntityOf("ad.doubleclick.net") != "Google" {
		t.Fatal("entity list broken")
	}
	world := searchads.NewStudy(searchads.Config{Seed: 1, QueriesPerEngine: 2}).World()
	if world.Sites.Sites() == 0 {
		t.Fatal("world has no sites")
	}
}
