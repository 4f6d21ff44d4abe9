// Package crawler_test hosts the parallel-mode tests as an external test
// package: they consume the analysis package, which itself imports
// crawler, so they cannot live inside it.
package crawler_test

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"testing"

	"searchads/internal/analysis"
	. "searchads/internal/crawler"
	"searchads/internal/serp"
	"searchads/internal/websim"
)

// run runs the crawl, failing the test on a config error.
func run(t testing.TB, cfg Config) *Dataset {
	t.Helper()
	ds, err := New(cfg).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// marshal renders a dataset to its canonical JSON bytes.
func marshal(t *testing.T, ds *Dataset) []byte {
	t.Helper()
	data, err := json.Marshal(ds)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestParallelCrawlByteIdenticalToSequential is the PR-2 determinism
// contract: identifier streams derive from (engine, iteration) labels
// and every browser profile runs its own clock, so the worker-pool crawl
// must produce the very same bytes as the sequential one — and repeat
// runs of each mode must reproduce themselves.
func TestParallelCrawlByteIdenticalToSequential(t *testing.T) {
	crawl := func(parallel bool) []byte {
		ds := run(t, Config{
			World:    websim.NewWorld(websim.Config{Seed: 91, QueriesPerEngine: 8}),
			Parallel: parallel,
		})
		return marshal(t, ds)
	}
	seq1, seq2 := crawl(false), crawl(false)
	par1, par2 := crawl(true), crawl(true)
	if !bytes.Equal(seq1, seq2) {
		t.Fatal("sequential crawl is not self-reproducible")
	}
	if !bytes.Equal(par1, par2) {
		t.Fatal("parallel crawl is not self-reproducible")
	}
	if !bytes.Equal(seq1, par1) {
		t.Fatal("parallel dataset differs from sequential dataset")
	}
}

func TestParallelCrawlMatchesSequentialAggregates(t *testing.T) {
	seq := run(t, Config{World: websim.NewWorld(websim.Config{Seed: 55, QueriesPerEngine: 20})})
	par := run(t, Config{World: websim.NewWorld(websim.Config{Seed: 55, QueriesPerEngine: 20}), Parallel: true})

	if len(seq.Iterations) != len(par.Iterations) {
		t.Fatalf("iteration counts differ: %d vs %d", len(seq.Iterations), len(par.Iterations))
	}
	// Engine grouping and order are preserved.
	se, pe := seq.Engines(), par.Engines()
	for i := range se {
		if se[i] != pe[i] {
			t.Fatalf("engine order differs: %v vs %v", se, pe)
		}
	}
	// Per-iteration structure matches: same query, same destination
	// domain choice (ad choice is deterministic within an engine), same
	// hop count.
	for i := range seq.Iterations {
		a, b := seq.Iterations[i], par.Iterations[i]
		if a.Query != b.Query || a.Engine != b.Engine {
			t.Fatalf("iteration %d identity differs", i)
		}
		if a.Error != b.Error {
			t.Fatalf("iteration %d errors differ: %q vs %q", i, a.Error, b.Error)
		}
		da := a.DisplayedAds[a.ClickedAd].LandingDomain
		db := b.DisplayedAds[b.ClickedAd].LandingDomain
		if da != db {
			t.Fatalf("iteration %d clicked different destinations: %s vs %s", i, da, db)
		}
		if len(a.Hops) != len(b.Hops) {
			t.Fatalf("iteration %d hop counts differ", i)
		}
	}
}

func TestParallelCrawlAnalysisShape(t *testing.T) {
	par := run(t, Config{World: websim.NewWorld(websim.Config{Seed: 56, QueriesPerEngine: 25}), Parallel: true})
	r := analysis.Analyze(par)
	// The headline shapes hold under parallel crawling too.
	if r.During["google"].NavTrackingFraction != 1.0 {
		t.Errorf("google nav tracking = %.2f", r.During["google"].NavTrackingFraction)
	}
	if got := r.During["bing"].RedirectorCDF.At(0); got < 0.8 {
		t.Errorf("bing P(0 redirectors) = %.2f", got)
	}
	if !r.Before["bing"].StoresUserIDs || r.Before["qwant"].StoresUserIDs {
		t.Error("before-click identifiers wrong under parallel crawl")
	}
}

// TestLentFoldByteIdentical: folding RunChains' lent iterations into
// analysis.Accumulator — sequential on one accumulator, Parallel on one
// per pool worker merged by analysis.ReportShards — with every lent
// record scribbled over once its visit returns, gives the report
// analysis.Analyze gives over Run's dataset, byte for byte: the fold
// keeps nothing of a record past its visit. The configs are a plain
// crawl and a bot-hostile one under a strict adversary and the full
// countermeasure bundle, whose failed, retried and shed iterations take
// the lending paths a clean crawl does not. Each lent iteration must
// also encode, during its visit, to the bytes of Run's iteration at its
// position, and one kept past its visit must read the sentinel, or the
// scribbling tested nothing.
func TestLentFoldByteIdentical(t *testing.T) {
	defer ScribbleLent(true)()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	engines := []string{serp.Google, serp.Bing, serp.StartPage}
	cases := []struct {
		name string
		cfg  func() Config
	}{
		{"plain", func() Config {
			return Config{World: websim.NewWorld(websim.Config{Seed: 77, Engines: engines, QueriesPerEngine: 10})}
		}},
		{"bot-hostile-strict-full", func() Config { return HostileConfig(t, 78, engines, 16) }},
	}
	reportBytes := func(r *analysis.Report) []byte {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return append(b, r.Render()...)
	}
	for _, tc := range cases {
		ds := run(t, tc.cfg())
		failed := 0
		for _, it := range ds.Iterations {
			if it.Error != "" {
				failed++
			}
		}
		if tc.name != "plain" && failed == 0 {
			t.Fatalf("%s: no iteration failed, so the failure paths went untested", tc.name)
		}
		want := reportBytes(analysis.Analyze(ds))
		for _, parallel := range []bool{false, true} {
			cfg := tc.cfg()
			cfg.Parallel = parallel
			c := New(cfg)
			accs := make([]*analysis.Accumulator, len(c.Engines()))
			var kept *Iteration
			err := c.RunChains(context.Background(), func(worker, _, seq int, it *Iteration) {
				if accs[worker] == nil {
					accs[worker] = analysis.NewAccumulator(analysis.Options{})
				}
				accs[worker].AddAt(it, seq)
				got, _ := AppendIteration(nil, it)
				if want, _ := AppendIteration(nil, ds.Iterations[seq]); !bytes.Equal(got, want) {
					t.Errorf("%s, parallel=%v: lent iteration %d differs from Run's", tc.name, parallel, seq)
				}
				if worker == 0 && it.FinalURL != "" {
					kept = it
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := analysis.ReportShards(accs)
			if err != nil {
				t.Fatal(err)
			}
			if got := reportBytes(rep); !bytes.Equal(got, want) {
				t.Errorf("%s, parallel=%v: the lent fold's report differs from Analyze(Run())", tc.name, parallel)
			}
			if kept == nil || kept.Instance != Scribbled || kept.FinalURL != Scribbled ||
				len(kept.SERPRequests) == 0 || kept.SERPRequests[0].URL != Scribbled {
				t.Errorf("%s, parallel=%v: an iteration kept past its visit was not scribbled", tc.name, parallel)
			}
		}
	}
}
