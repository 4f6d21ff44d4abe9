package advertiser

import (
	"strings"
	"sync"
	"testing"

	"searchads/internal/browser"
	"searchads/internal/detrand"
	"searchads/internal/filterlist"
	"searchads/internal/netsim"
)

func world(t *testing.T, site *Site, trackers []*Tracker) (*netsim.Network, *browser.Browser) {
	t.Helper()
	n := netsim.NewNetwork()
	NewTrackerRegistry(detrand.New(21), trackers).Register(n)
	NewSiteRegistry(detrand.New(22), []*Site{site}).Register(n)
	return n, browser.New(n, browser.Options{Seed: detrand.New(23)})
}

func TestLandingPageEmbedsTrackers(t *testing.T) {
	trackers := BuiltinTrackers()[:3] // GA, GTM, doubleclick
	site := &Site{Domain: "shoes.example", LandingPath: "/sale", Trackers: trackers}
	n, b := world(t, site, trackers)

	if _, err := b.Navigate(site.LandingURL()); err != nil {
		t.Fatal(err)
	}
	// Each tracker contributes a script fetch and a pixel phone-home.
	hosts := map[string]int{}
	for _, r := range b.ExtensionRequests() {
		hosts[r.URL.Host]++
	}
	for _, tr := range trackers {
		if hosts[tr.Host] < 2 {
			t.Errorf("tracker %s requests = %d, want >= 2", tr.Host, hosts[tr.Host])
		}
	}
	// GA planted a first-party cookie on the advertiser's site.
	if _, ok := b.Jar().Get("shoes.example", "_ga"); !ok {
		t.Error("GA first-party cookie missing")
	}
	// The filter engine sees the tracker traffic.
	eng := filterlist.DefaultEngine()
	trackerReqs := 0
	for _, r := range b.ExtensionRequests() {
		if eng.IsTracker(filterlist.InfoFor(r)) {
			trackerReqs++
		}
	}
	if trackerReqs < len(trackers) {
		t.Errorf("filter engine matched %d tracker requests, want >= %d", trackerReqs, len(trackers))
	}
	_ = n
}

func TestThirdPartyCookieFromPixel(t *testing.T) {
	trackers := []*Tracker{BuiltinTrackers()[2]} // stats.g.doubleclick.net, 3p cookie
	site := &Site{Domain: "shop.example", LandingPath: "/", Trackers: trackers}
	_, b := world(t, site, trackers)
	if _, err := b.Navigate(site.LandingURL()); err != nil {
		t.Fatal(err)
	}
	if _, ok := b.Jar().Get("stats.g.doubleclick.net", "tuid"); !ok {
		t.Fatal("third-party tracker cookie missing")
	}
}

func TestClickIDPersistence(t *testing.T) {
	site := &Site{
		Domain:                "hotel.example",
		LandingPath:           "/book",
		PersistParams:         []string{"gclid", "msclkid"},
		PersistToLocalStorage: true,
	}
	_, b := world(t, site, nil)
	if _, err := b.Navigate(site.LandingURL() + "?gclid=Cj0KCQjwTESTVALUE123&msclkid=abcdef0123456789"); err != nil {
		t.Fatal(err)
	}
	if v, ok := b.Jar().Get("hotel.example", "_gcl_aw"); !ok || v != "Cj0KCQjwTESTVALUE123" {
		t.Fatalf("_gcl_aw = %q, %v", v, ok)
	}
	if v, ok := b.Jar().Get("hotel.example", "_uetmsclkid"); !ok || v != "abcdef0123456789" {
		t.Fatalf("_uetmsclkid = %q, %v", v, ok)
	}
	if v, ok := b.LocalStorage().Get("hotel.example", "https://hotel.example", "_gcl_aw"); !ok || v == "" {
		t.Fatalf("localStorage mirror missing: %q", v)
	}
}

func TestNoPersistenceWithoutConfig(t *testing.T) {
	site := &Site{Domain: "plain.example", LandingPath: "/x"}
	_, b := world(t, site, nil)
	if _, err := b.Navigate(site.LandingURL() + "?gclid=Cj0KCQjwTESTVALUE123"); err != nil {
		t.Fatal(err)
	}
	if _, ok := b.Jar().Get("plain.example", "_gcl_aw"); ok {
		t.Fatal("click ID persisted without configuration")
	}
}

func TestSmuggledUIDReadByTracker(t *testing.T) {
	ga := BuiltinTrackers()[0] // reads smuggled UIDs
	site := &Site{Domain: "gear.example", LandingPath: "/l", Trackers: []*Tracker{ga}}
	_, b := world(t, site, []*Tracker{ga})
	if _, err := b.Navigate(site.LandingURL() + "?gclid=Cj0KCQjwSMUGGLED99"); err != nil {
		t.Fatal(err)
	}
	// The tracker forwarded the smuggled click ID on its phone-home.
	var forwarded bool
	for _, r := range b.ExtensionRequests() {
		if r.URL.Host == ga.Host && r.Query("gclid") == "Cj0KCQjwSMUGGLED99" {
			forwarded = true
		}
	}
	if !forwarded {
		t.Fatal("smuggled UID not forwarded by tracker")
	}
}

func TestSessionCookieRotates(t *testing.T) {
	site := &Site{Domain: "rotate.example", LandingPath: "/"}
	n, b := world(t, site, nil)
	b.Navigate(site.LandingURL())
	v1, ok := b.Jar().Get("rotate.example", "sess")
	if !ok {
		t.Fatal("no session cookie")
	}
	// A different browser instance gets a different session value.
	b2 := browser.New(n, browser.Options{Seed: detrand.New(99)})
	b2.Navigate(site.LandingURL())
	v2, _ := b2.Jar().Get("rotate.example", "sess")
	if v1 == v2 {
		t.Fatal("session values must differ across instances")
	}
	// Same browser keeps its session (cookie replay suppresses re-set).
	b.Navigate(site.LandingURL())
	v3, _ := b.Jar().Get("rotate.example", "sess")
	if v3 != v1 {
		t.Fatal("session must be stable within an instance")
	}
}

func TestMintUnknownTrackersShape(t *testing.T) {
	ts := MintUnknownTrackers(detrand.New(31), 40)
	if len(ts) != 40 {
		t.Fatalf("minted = %d", len(ts))
	}
	eng := filterlist.DefaultEngine()
	for _, tr := range ts {
		if !strings.Contains(tr.Host, "-analytics.") {
			t.Fatalf("host %q misses the -analytics. pattern", tr.Host)
		}
		// Generic rules must catch the script fetch.
		ri := filterlist.RequestInfo{
			URL: tr.ScriptURL(), Type: netsim.TypeScript,
			FirstParty: "any.example", ThirdParty: true,
		}
		if !eng.IsTracker(ri) {
			t.Fatalf("minted tracker %s not matched by generic rules", tr.ScriptURL())
		}
	}
	// Deterministic.
	again := MintUnknownTrackers(detrand.New(31), 40)
	for i := range ts {
		if ts[i].Host != again[i].Host {
			t.Fatal("minting not deterministic")
		}
	}
}

func TestSiteRegistryLookup(t *testing.T) {
	s := &Site{Domain: "a.example", LandingPath: "/"}
	reg := NewSiteRegistry(detrand.New(1), []*Site{s})
	if got, ok := reg.Lookup("a.example"); !ok || got != s {
		t.Fatal("lookup failed")
	}
	if _, ok := reg.Lookup("b.example"); ok {
		t.Fatal("phantom site")
	}
	if reg.Sites() != 1 {
		t.Fatal("site count wrong")
	}
}

func TestTrackerRegistryLookup(t *testing.T) {
	ts := BuiltinTrackers()
	reg := NewTrackerRegistry(detrand.New(1), ts)
	if _, ok := reg.Lookup("bat.bing.com"); !ok {
		t.Fatal("bat.bing.com missing")
	}
	if _, ok := reg.Lookup("nope.example"); ok {
		t.Fatal("phantom tracker")
	}
}

func TestWWWSubdomainServed(t *testing.T) {
	site := &Site{Domain: "brand.example", LandingPath: "/p"}
	_, b := world(t, site, nil)
	res, err := b.Navigate("https://www.brand.example/p")
	if err != nil {
		t.Fatal(err)
	}
	if res.Page == nil || res.Page.Title != "brand.example" {
		t.Fatal("www subdomain not served by site handler")
	}
}

// TestTrackerURLsConcurrentFirstUse: a tracker's URLs are built on
// first use and shared by every world and crawl worker using the
// tracker, so concurrent first uses must agree, and match the host and
// paths.
func TestTrackerURLsConcurrentFirstUse(t *testing.T) {
	for _, tr := range BuiltinTrackers() {
		wantScript := "https://" + tr.Host + tr.ScriptPath
		wantPixel := "https://" + tr.Host + tr.PixelPath
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if got := tr.ScriptURL(); got != wantScript {
					t.Errorf("ScriptURL = %q, want %q", got, wantScript)
				}
				if got := tr.PixelURL(); got.String() != wantPixel || got.Host != tr.Host || got.Path != tr.PixelPath {
					t.Errorf("PixelURL = %+v, want %q", got, wantPixel)
				}
			}()
		}
		wg.Wait()
	}
}
