package websim_test

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"searchads/internal/analysis"
	"searchads/internal/crawler"
	"searchads/internal/netsim"
	"searchads/internal/websim"
)

// crawlReport crawls a world end to end and returns its report's JSON.
func crawlReport(w *websim.World) ([]byte, error) {
	ds, err := crawler.New(crawler.Config{World: w}).Run(context.Background())
	if err != nil {
		return nil, err
	}
	return analysis.Analyze(ds).JSON()
}

// TestBlueprintSharedAcrossConcurrentCrawls instantiates four worlds
// from one blueprint, with different engines, corpus sizes and fault
// plans, and crawls them concurrently (run it under -race): each
// report must equal, byte for byte, the report of a standalone NewWorld
// of the same config. Sharing the seeded web never leaks one crawl's
// identifier state into another's.
func TestBlueprintSharedAcrossConcurrentCrawls(t *testing.T) {
	rates, err := netsim.ProfileRates("bot-hostile", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []websim.Config{
		{Seed: 61, Engines: []string{"bing", "google"}, QueriesPerEngine: 4},
		{Seed: 61, Engines: []string{"duckduckgo"}, QueriesPerEngine: 6},
		{Seed: 61, Engines: []string{"startpage", "qwant"}, QueriesPerEngine: 3},
		{Seed: 61, Engines: []string{"bing", "google"}, QueriesPerEngine: 4, Faults: netsim.FaultPlan{Rates: rates}},
	}
	bp := websim.Derive(cfgs[0])
	got := make([][]byte, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = crawlReport(bp.Instantiate(cfg))
		}()
	}
	wg.Wait()
	for i, cfg := range cfgs {
		if errs[i] != nil {
			t.Fatalf("world %d: %v", i, errs[i])
		}
		want, err := crawlReport(websim.NewWorld(cfg))
		if err != nil {
			t.Fatalf("standalone world %d: %v", i, err)
		}
		if !bytes.Equal(got[i], want) {
			t.Errorf("world %d (%v): report from the shared blueprint differs from a standalone NewWorld", i, cfg.Engines)
		}
	}
}

// TestInstantiateReadsOnlyInstanceFields pins the split of Config: the
// derivation fields of the config handed to Instantiate are ignored in
// favour of the blueprint's, and its instance fields are honoured.
func TestInstantiateReadsOnlyInstanceFields(t *testing.T) {
	bp := websim.Derive(websim.Config{Seed: 62})
	w := bp.Instantiate(websim.Config{Seed: 999, Engines: []string{"qwant"}, QueriesPerEngine: 3})
	if w.Cfg.Seed != 62 {
		t.Fatalf("instantiated world seed = %d, want the blueprint's 62", w.Cfg.Seed)
	}
	if len(w.Queries) != 1 || len(w.Queries["qwant"]) != 3 {
		t.Fatalf("queries = %v, want 3 for qwant only", w.Queries)
	}
	ref := websim.NewWorld(websim.Config{Seed: 62, Engines: []string{"qwant"}, QueriesPerEngine: 3})
	for i, q := range ref.Queries["qwant"] {
		if w.Queries["qwant"][i] != q {
			t.Fatalf("query %d = %q, want %q", i, w.Queries["qwant"][i], q)
		}
	}
}
