package crawler

import (
	"net/http"
	"testing"

	"searchads/internal/adtech"
	"searchads/internal/netsim"
	"searchads/internal/serp"
	"searchads/internal/urlx"
	"searchads/internal/websim"
)

// TestIterationSurvivesDeadDestination injects a campaign whose landing
// host is not registered (a dead advertiser): the iteration must record
// the failure and the crawl must continue.
func TestIterationSurvivesDeadDestination(t *testing.T) {
	w := websim.NewWorld(websim.Config{Seed: 71, QueriesPerEngine: 4})
	e := w.Engine(serp.Bing)
	// Shrink the pool to a dead campaign plus one healthy one, so both
	// get clicked within two iterations (unvisited-first choice).
	dead := &adtech.Campaign{
		ID:      "dead",
		Landing: urlx.MustParse("https://unregistered-host.example/x"),
	}
	e.Pool.Campaigns = []*adtech.Campaign{dead, e.Pool.Campaigns[0]}

	ds := mustRun(t, Config{World: w, Engines: []string{serp.Bing}, Iterations: 2})
	var failed, succeeded int
	for _, it := range ds.Iterations {
		if it.Error != "" {
			failed++
			// Assert on the typed class, not the error prose — the string
			// is for display and free to change.
			if it.ErrorClass != string(ClassDNS) {
				t.Fatalf("error class = %q (error %q), want %q", it.ErrorClass, it.Error, ClassDNS)
			}
		} else {
			succeeded++
		}
	}
	if failed == 0 {
		t.Fatal("dead destination never clicked")
	}
	if succeeded == 0 {
		t.Fatal("crawl did not continue past the failure")
	}
}

// TestIterationSurvivesRedirectLoop injects a redirector that loops
// forever: the browser's hop cap must convert it into a recorded error.
func TestIterationSurvivesRedirectLoop(t *testing.T) {
	w := websim.NewWorld(websim.Config{Seed: 72, QueriesPerEngine: 3})
	w.Net.Handle("loop.example", netsim.HandlerFunc(func(req *netsim.Request) *netsim.Response {
		return netsim.Redirect(http.StatusFound, "https://loop.example/again")
	}))
	e := w.Engine(serp.Qwant)
	loopy := &adtech.Campaign{
		ID:               "loopy",
		Landing:          urlx.MustParse("https://loop.example/enter"),
		DirectFromEngine: true,
	}
	e.Pool.Campaigns = []*adtech.Campaign{loopy, e.Pool.Campaigns[0]}

	ds := mustRun(t, Config{World: w, Engines: []string{serp.Qwant}, Iterations: 2})
	var sawLoopError bool
	for _, it := range ds.Iterations {
		if it.ErrorClass == string(ClassRedirectLoop) {
			if it.Error == "" {
				t.Fatal("redirect-loop iteration classified but carries no display string")
			}
			sawLoopError = true
		}
	}
	if !sawLoopError {
		t.Fatal("redirect loop not surfaced as an iteration error")
	}
}

// TestAnalysisTolerantOfFailedIterations: failed iterations (no
// FinalURL) must not poison the analysis.
func TestAnalysisTolerantOfFailedIterations(t *testing.T) {
	ds := &Dataset{Iterations: []*Iteration{
		{Engine: "bing", EngineHost: "www.bing.com", Error: "click: boom", ClickedAd: -1},
		{Engine: "bing", EngineHost: "www.bing.com", Error: "no ads displayed"},
	}}
	// Must not panic; produces empty-but-valid results.
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("analysis panicked on failed iterations: %v", r)
		}
	}()
	if err := ds.Save(t.TempDir() + "/x.json"); err != nil {
		t.Fatal(err)
	}
}
