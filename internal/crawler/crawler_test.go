package crawler

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"searchads/internal/serp"
	"searchads/internal/storage"
	"searchads/internal/websim"
)

func smallWorld() *websim.World {
	return websim.NewWorld(websim.Config{Seed: 11, QueriesPerEngine: 12})
}

// mustRun runs the crawl and fails the test on a config error.
func mustRun(t testing.TB, cfg Config) *Dataset {
	t.Helper()
	ds, err := New(cfg).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestCrawlAllEngines(t *testing.T) {
	w := smallWorld()
	ds := mustRun(t, Config{World: w, Iterations: 6})
	if len(ds.Iterations) != 30 {
		t.Fatalf("iterations = %d, want 30", len(ds.Iterations))
	}
	for _, it := range ds.Iterations {
		if it.Error != "" {
			t.Fatalf("%s/%d: %s", it.Engine, it.Index, it.Error)
		}
		if len(it.DisplayedAds) == 0 || it.ClickedAd < 0 {
			t.Fatalf("%s/%d: no ads clicked", it.Engine, it.Index)
		}
		if it.FinalURL == "" || !strings.Contains(it.FinalURL, ".example") {
			t.Fatalf("%s/%d: final URL %q", it.Engine, it.Index, it.FinalURL)
		}
		if len(it.Hops) == 0 {
			t.Fatalf("%s/%d: no hops recorded", it.Engine, it.Index)
		}
		if len(it.SERPRequests) == 0 || len(it.Cookies) == 0 {
			t.Fatalf("%s/%d: missing records", it.Engine, it.Index)
		}
		if it.ExtensionRequestCount < it.CrawlerRequestCount {
			t.Fatalf("%s/%d: extension log smaller than crawler log", it.Engine, it.Index)
		}
		if len(it.RevisitCookies) == 0 {
			t.Fatalf("%s/%d: revisit data missing", it.Engine, it.Index)
		}
	}
	if got := len(ds.Engines()); got != 5 {
		t.Fatalf("engines = %d", got)
	}
	if got := len(ds.ByEngine()["bing"]); got != 6 {
		t.Fatalf("bing iterations = %d", got)
	}
}

func TestRunRejectsDuplicateEngines(t *testing.T) {
	_, err := New(Config{World: smallWorld(), Engines: []string{serp.Bing, serp.Bing}}).Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "listed twice") {
		t.Fatalf("duplicate engines not rejected: %v", err)
	}
}

func TestCrawlDeterministic(t *testing.T) {
	run := func() *Dataset {
		return mustRun(t, Config{World: smallWorld(), Engines: []string{serp.Bing}, Iterations: 4})
	}
	a, b := run(), run()
	if len(a.Iterations) != len(b.Iterations) {
		t.Fatal("iteration counts differ")
	}
	for i := range a.Iterations {
		ia, ib := a.Iterations[i], b.Iterations[i]
		if ia.FinalURL != ib.FinalURL {
			t.Fatalf("iteration %d final URL differs:\n%s\n%s", i, ia.FinalURL, ib.FinalURL)
		}
		if len(ia.Cookies) != len(ib.Cookies) {
			t.Fatalf("iteration %d cookie counts differ", i)
		}
		for j := range ia.Cookies {
			if ia.Cookies[j] != ib.Cookies[j] {
				t.Fatalf("iteration %d cookie %d differs", i, j)
			}
		}
	}
}

func TestAdChoicePrefersUnvisited(t *testing.T) {
	w := smallWorld()
	ds := mustRun(t, Config{World: w, Engines: []string{serp.Google}, Iterations: 10})
	domains := map[string]int{}
	for _, it := range ds.Iterations {
		domains[it.DisplayedAds[it.ClickedAd].LandingDomain]++
	}
	// With a 108-campaign pool and unvisited-first choice, 10 iterations
	// should reach (close to) 10 distinct destinations.
	if len(domains) < 8 {
		t.Fatalf("distinct destinations = %d, want >= 8", len(domains))
	}
}

func TestChooseAd(t *testing.T) {
	ads := []AdRecord{
		{LandingDomain: "a.example"},
		{LandingDomain: "b.example"},
	}
	visited := map[string]bool{"a.example": true}
	if got := chooseAd(ads, visited); got != 1 {
		t.Fatalf("chooseAd = %d, want 1", got)
	}
	visited["b.example"] = true
	if got := chooseAd(ads, visited); got != 0 {
		t.Fatalf("all visited: chooseAd = %d, want 0", got)
	}
}

// TestInstanceLabel: the label is the engine name, a dash and the index
// padded to four digits, as fmt's "%s-%04d" writes it, past four digits
// too.
func TestInstanceLabel(t *testing.T) {
	for _, index := range []int{0, 7, 42, 999, 1000, 9999, 10000, 123456} {
		if got, want := instanceLabel("duckduckgo", index), fmt.Sprintf("%s-%04d", "duckduckgo", index); got != want {
			t.Errorf("instanceLabel(%d) = %q, want %q", index, got, want)
		}
	}
}

func TestNoStealthYieldsNoAds(t *testing.T) {
	w := smallWorld()
	ds := mustRun(t, Config{World: w, Engines: []string{serp.Bing}, Iterations: 3, NoStealth: true})
	for _, it := range ds.Iterations {
		if it.Error != "no ads displayed" {
			t.Fatalf("expected bot detection, got error=%q ads=%d", it.Error, len(it.DisplayedAds))
		}
	}
}

func TestSkipRevisit(t *testing.T) {
	w := smallWorld()
	ds := mustRun(t, Config{World: w, Engines: []string{serp.Qwant}, Iterations: 2, SkipRevisit: true})
	for _, it := range ds.Iterations {
		if len(it.RevisitCookies) != 0 {
			t.Fatal("revisit data present despite SkipRevisit")
		}
	}
}

func TestPartitionedCrawl(t *testing.T) {
	w := smallWorld()
	ds := mustRun(t, Config{
		World: w, Engines: []string{serp.StartPage}, Iterations: 3,
		StorageMode: storage.Partitioned,
	})
	if ds.StorageMode != "partitioned" {
		t.Fatalf("mode = %q", ds.StorageMode)
	}
	// Partitioned jars record partition keys.
	var sawPartition bool
	for _, it := range ds.Iterations {
		for _, c := range it.Cookies {
			if c.PartitionKey != "" {
				sawPartition = true
			}
		}
	}
	if !sawPartition {
		t.Fatal("no partitioned cookies recorded")
	}
}

func TestRecorderCoverage(t *testing.T) {
	w := smallWorld()
	ds := mustRun(t, Config{World: w, Engines: []string{serp.Bing}, Iterations: 8})
	for _, it := range ds.Iterations {
		ratio := float64(it.CrawlerRequestCount) / float64(it.ExtensionRequestCount)
		if ratio < 0.80 || ratio > 1.0 {
			t.Fatalf("coverage ratio = %.2f", ratio)
		}
	}
}

func TestDatasetSaveLoad(t *testing.T) {
	w := smallWorld()
	ds := mustRun(t, Config{World: w, Engines: []string{serp.Bing}, Iterations: 2})
	path := filepath.Join(t.TempDir(), "dataset.json")
	if err := ds.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Iterations) != len(ds.Iterations) {
		t.Fatal("round trip lost iterations")
	}
	if back.Iterations[0].FinalURL != ds.Iterations[0].FinalURL {
		t.Fatal("round trip mutated data")
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("expected error for missing file")
	}
}

func TestHopsValidatedByLocationHeaders(t *testing.T) {
	// §3.2: redirects are validated via Location headers and 30x codes.
	w := smallWorld()
	ds := mustRun(t, Config{World: w, Engines: []string{serp.StartPage}, Iterations: 4})
	for _, it := range ds.Iterations {
		for i, h := range it.Hops {
			last := i == len(it.Hops)-1
			if !last && h.Status != 302 {
				t.Fatalf("intermediate hop status = %d", h.Status)
			}
			if !last && h.Location == "" {
				t.Fatal("intermediate hop missing Location")
			}
			if last && h.Status != 200 {
				t.Fatalf("final hop status = %d", h.Status)
			}
		}
	}
}
