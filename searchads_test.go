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

func TestDatasetRoundTripThroughFacade(t *testing.T) {
	ctx := context.Background()
	study := searchads.NewStudy(searchads.Config{
		Seed:             315,
		Engines:          []string{searchads.Bing},
		QueriesPerEngine: 5,
	})
	ds, err := study.Crawl(ctx)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ds.json")
	if err := ds.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := searchads.LoadDataset(path)
	if err != nil {
		t.Fatal(err)
	}
	r1 := searchads.AnalyzeDataset(ds)
	r2 := searchads.AnalyzeDataset(back)
	if r1.After["bing"].MSCLKID != r2.After["bing"].MSCLKID {
		t.Fatal("analysis differs after round trip")
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

func TestStudiesAreReproducible(t *testing.T) {
	cfg := searchads.Config{
		Seed:             777,
		Engines:          []string{searchads.DuckDuckGo},
		QueriesPerEngine: 8,
	}
	ctx := context.Background()
	a, errA := searchads.NewStudy(cfg).Crawl(ctx)
	b, errB := searchads.NewStudy(cfg).Crawl(ctx)
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	for i := range a.Iterations {
		if a.Iterations[i].FinalURL != b.Iterations[i].FinalURL {
			t.Fatalf("iteration %d differs across identical studies", i)
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

// TestSinkStreamsIterations: Config.Sink — now a thin adapter over the
// Iterations stream — observes every iteration, in deterministic
// dataset order, for sequential and parallel crawls alike, without
// changing the dataset.
func TestSinkStreamsIterations(t *testing.T) {
	ctx := context.Background()
	for _, parallel := range []bool{false, true} {
		var streamed []string
		study := searchads.NewStudy(searchads.Config{
			Seed:             91,
			Engines:          []string{searchads.Bing, searchads.Qwant},
			QueriesPerEngine: 4,
			Parallel:         parallel,
			Sink:             func(it *searchads.Iteration) { streamed = append(streamed, it.Instance) },
		})
		ds, err := study.Crawl(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(streamed) != len(ds.Iterations) || len(streamed) != 8 {
			t.Fatalf("parallel=%v: sink saw %d iterations, dataset has %d",
				parallel, len(streamed), len(ds.Iterations))
		}
		for i, it := range ds.Iterations {
			if streamed[i] != it.Instance {
				t.Fatalf("parallel=%v: sink order diverges at %d: %s != %s",
					parallel, i, streamed[i], it.Instance)
			}
		}
	}
}

// TestAnalyzeWithMatchesAnalyze: explicit default options must give the
// same report as Analyze, and a shared filter engine must be usable.
func TestAnalyzeWithMatchesAnalyze(t *testing.T) {
	cfg := searchads.Config{Seed: 92, Engines: []string{searchads.Google}, QueriesPerEngine: 5}
	ctx := context.Background()
	plain, err := searchads.NewStudy(cfg).Analyze(ctx)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := searchads.NewStudy(cfg).AnalyzeWith(ctx, searchads.AnalysisOptions{
		Filter:   searchads.DefaultFilterEngine(),
		Entities: searchads.DefaultEntities(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Render() != shared.Render() {
		t.Fatal("AnalyzeWith(default deps) differs from Analyze")
	}
	// Caching: the first call's options win.
	s := searchads.NewStudy(cfg)
	r1, err := s.AnalyzeWith(ctx, searchads.AnalysisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r2, _ := s.Analyze(ctx); r2 != r1 {
		t.Fatal("AnalyzeWith result not cached")
	}
}
