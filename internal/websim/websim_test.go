package websim

import (
	"strings"
	"testing"

	"searchads/internal/browser"
	"searchads/internal/detrand"
	"searchads/internal/serp"
	"searchads/internal/urlx"
)

func smallConfig() Config {
	return Config{Seed: 7, QueriesPerEngine: 20}
}

func TestWorldBuilds(t *testing.T) {
	w := NewWorld(smallConfig())
	if len(w.Engines) != 5 {
		t.Fatalf("engines = %d", len(w.Engines))
	}
	for _, name := range serp.AllEngineNames() {
		if len(w.Queries[name]) != 20 {
			t.Fatalf("%s queries = %d", name, len(w.Queries[name]))
		}
		if len(w.SitesByEngine[name]) == 0 {
			t.Fatalf("%s has no advertiser sites", name)
		}
	}
	if w.Sites.Sites() < 300 {
		t.Fatalf("too few sites: %d", w.Sites.Sites())
	}
	if got := w.Describe(); !strings.Contains(got, "advertiser sites") {
		t.Fatalf("Describe = %q", got)
	}
}

func TestWorldDeterministic(t *testing.T) {
	a := NewWorld(smallConfig())
	b := NewWorld(smallConfig())
	for _, name := range serp.AllEngineNames() {
		qa, qb := a.Queries[name], b.Queries[name]
		for i := range qa {
			if qa[i] != qb[i] {
				t.Fatalf("%s query %d differs", name, i)
			}
		}
		sa, sb := a.SitesByEngine[name], b.SitesByEngine[name]
		if len(sa) != len(sb) {
			t.Fatalf("%s pool size differs", name)
		}
		for i := range sa {
			if sa[i].Domain != sb[i].Domain {
				t.Fatalf("%s site %d domain differs: %s vs %s", name, i, sa[i].Domain, sb[i].Domain)
			}
			if len(sa[i].Trackers) != len(sb[i].Trackers) {
				t.Fatalf("%s site %d tracker count differs", name, i)
			}
		}
	}
}

func TestWorldEndToEndClick(t *testing.T) {
	w := NewWorld(smallConfig())
	for _, name := range serp.AllEngineNames() {
		e := w.Engine(name)
		b := browser.New(w.Net, browser.Options{Seed: detrand.New(3)})
		if _, err := b.Navigate(e.SearchURL(w.Queries[name][0])); err != nil {
			t.Fatalf("%s: navigate: %v", name, err)
		}
		ads := serp.FindAds(name, b.Page())
		if len(ads) == 0 {
			t.Fatalf("%s: no ads", name)
		}
		res, err := b.Click(ads[0])
		if err != nil {
			t.Fatalf("%s: click: %v", name, err)
		}
		if res.FinalURL.IsZero() || !strings.HasSuffix(urlx.RegistrableDomain(res.FinalURL.Host), ".example") {
			t.Fatalf("%s: did not land on an advertiser: %v", name, res.FinalURL)
		}
	}
}

func TestCalibrationOverride(t *testing.T) {
	cal := defaultCalibrations()["qwant"]
	cal.PoolSize = 3
	w := NewWorld(Config{Seed: 7, QueriesPerEngine: 5, Calibrations: map[string]EngineCalibration{"qwant": cal}})
	if got := len(w.SitesByEngine["qwant"]); got != 3 {
		t.Fatalf("qwant pool = %d, want 3", got)
	}
	// Other engines keep their defaults.
	if got := len(w.SitesByEngine["bing"]); got != defaultCalibrations()["bing"].PoolSize {
		t.Fatalf("bing pool = %d", got)
	}
}

func TestStackDistributionsSampled(t *testing.T) {
	w := NewWorld(smallConfig())
	// Bing campaigns: ~96% empty stacks.
	empty, total := 0, 0
	for _, c := range w.Engines["bing"].Pool.Campaigns {
		total++
		if len(c.Stack) == 0 && !c.DirectFromEngine {
			empty++
		}
	}
	frac := float64(empty) / float64(total)
	if frac < 0.85 || frac > 1.0 {
		t.Fatalf("bing direct fraction = %.2f, want ~0.96", frac)
	}
	// Qwant must include DirectFromEngine campaigns (~20%).
	direct := 0
	for _, c := range w.Engines["qwant"].Pool.Campaigns {
		if c.DirectFromEngine {
			direct++
			if c.AutoTag {
				t.Fatal("direct campaign cannot auto-tag")
			}
		}
	}
	if direct == 0 {
		t.Fatal("qwant has no direct campaigns")
	}
}

func TestRedirectorInventoryRegistered(t *testing.T) {
	w := NewWorld(smallConfig())
	for _, host := range []string{
		"clickserve.dartsearch.net", "ad.doubleclick.net",
		"pixel.everesttech.net", "6102.xg4ken.com", "t23.intelliad.de",
		"1045.netrk.net", "monitor.clickcease.com", "monitor.ppcprotect.com",
		"tpt.mediaplex.com", "track.effiliation.com", "click.linksynergy.com",
		"t.myvisualiq.net", "awin1.com", "zenaps.com", "ad.atdmt.com",
		"www.googleadservices.com", "www.bing.com", "www.google.com",
		"duckduckgo.com", "www.startpage.com", "api.qwant.com",
	} {
		if _, ok := w.Net.Lookup(host); !ok {
			t.Errorf("host %s not registered", host)
		}
	}
}

func TestTrackerSampling(t *testing.T) {
	w := NewWorld(smallConfig())
	clean, total := 0, 0
	for _, sites := range w.SitesByEngine {
		for _, s := range sites {
			total++
			if len(s.Trackers) == 0 {
				clean++
			}
		}
	}
	frac := float64(clean) / float64(total)
	if frac < 0.02 || frac > 0.15 {
		t.Fatalf("clean-site fraction = %.3f, want ~0.07", frac)
	}
}

func TestMintDomainUnique(t *testing.T) {
	used := map[string]bool{}
	g := detrand.New(4).Rand()
	r := &g
	seen := map[string]bool{}
	for i := 0; i < 600; i++ {
		d := mintDomain(r, used)
		if seen[d] {
			t.Fatalf("duplicate domain %s", d)
		}
		seen[d] = true
		if !strings.HasSuffix(d, ".example") {
			t.Fatalf("domain %s has wrong suffix", d)
		}
	}
}

// benchConfig is a sweep-cell-sized world: two crawled engines with
// eight queries each.
func benchConfig(seed int64) Config {
	return Config{Seed: seed, Engines: []string{serp.Bing, serp.DuckDuckGo}, QueriesPerEngine: 8}
}

// BenchmarkDerive times the seeded half of a world build: trackers,
// advertiser sites, campaign pools.
func BenchmarkDerive(b *testing.B) {
	b.ReportAllocs()
	var n int64
	for b.Loop() {
		Derive(benchConfig(n%4 + 1))
		n++
	}
}

// BenchmarkInstantiate times the per-crawl half: network, registries,
// engines, query corpora.
func BenchmarkInstantiate(b *testing.B) {
	bp := Derive(benchConfig(1))
	b.ReportAllocs()
	for b.Loop() {
		bp.Instantiate(benchConfig(1))
	}
}
