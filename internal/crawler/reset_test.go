package crawler

import (
	"bytes"
	"testing"

	"searchads/internal/serp"
	"searchads/internal/storage"
	"searchads/internal/websim"
)

// TestResetBrowserMatchesNew crawls every engine's chain twice on equal
// worlds: once with the chain's browser Reset between iterations, once
// with a browser.New for every iteration, the paper's "new browser
// instance" taken literally. Iteration k of the first crawl runs on a
// browser Reset after iteration k-1; the saved bytes of every iteration
// must match. The configurations cover flat and partitioned storage,
// stealth and headless fingerprints, and a hostile crawl whose session
// rotations and CAPTCHA solves leave countermeasure state to reset.
func TestResetBrowserMatchesNew(t *testing.T) {
	engines := []string{serp.Google, serp.Bing, serp.DuckDuckGo, serp.StartPage, serp.Qwant}
	world := func(seed int64, engine string) *websim.World {
		return websim.NewWorld(websim.Config{Seed: seed, Engines: []string{engine}, QueriesPerEngine: 6})
	}
	cases := []struct {
		name string
		cfg  func(engine string) Config
	}{
		{"flat", func(e string) Config { return Config{World: world(61, e)} }},
		{"partitioned", func(e string) Config { return Config{World: world(62, e), StorageMode: storage.Partitioned} }},
		{"flat-headless", func(e string) Config { return Config{World: world(63, e), NoStealth: true} }},
		{"partitioned-headless", func(e string) Config {
			return Config{World: world(64, e), StorageMode: storage.Partitioned, NoStealth: true}
		}},
		{"hostile", func(e string) Config { return hostileConfig(t, 65, []string{e}, 16) }},
	}
	var rotations, solves int
	for _, tc := range cases {
		for _, engine := range engines {
			reset := crawlChain(t, tc.cfg(engine), false)
			fresh := crawlChain(t, tc.cfg(engine), true)
			if len(reset) != len(fresh) || len(reset) == 0 {
				t.Fatalf("%s/%s: %d iterations on a Reset browser, %d on new ones", tc.name, engine, len(reset), len(fresh))
			}
			for k := range reset {
				if !bytes.Equal(reset[k].bytes, fresh[k].bytes) {
					t.Errorf("%s/%s iteration %d: Reset browser saved\n%s\nnew browser saved\n%s",
						tc.name, engine, k, reset[k].bytes, fresh[k].bytes)
				}
				rotations += reset[k].it.Rotations
				solves += reset[k].it.CaptchaSolves
			}
		}
	}
	if rotations == 0 || solves == 0 {
		t.Errorf("the hostile crawls rotated %d sessions and solved %d CAPTCHAs; both must be non-zero for Reset to be tested against them",
			rotations, solves)
	}
}

// crawledIteration is one iteration and the bytes it saves as.
type crawledIteration struct {
	it    *Iteration
	bytes []byte
}

// crawlChain crawls the single engine chain of cfg in order. With fresh
// set, it drops the chain's storage, browser included, before every
// iteration, so each one runs on a browser.New.
func crawlChain(t *testing.T, cfg Config, fresh bool) []crawledIteration {
	t.Helper()
	c := New(cfg)
	p, err := c.plan()
	if err != nil {
		t.Fatal(err)
	}
	var out []crawledIteration
	for i := 0; i < p.counts[0]; i++ {
		if fresh {
			p.chains[0] = nil
		}
		it := c.runOne(p, 0, i)
		b, err := AppendIteration(nil, it)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, crawledIteration{it, b})
	}
	return out
}
