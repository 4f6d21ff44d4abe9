package serp

import (
	"net/http"
	"strings"
	"testing"

	"searchads/internal/adtech"
	"searchads/internal/browser"
	"searchads/internal/detrand"
	"searchads/internal/netsim"
	"searchads/internal/tokens"
	"searchads/internal/urlx"
)

// testWorld wires one engine with a two-campaign pool, its platform's
// click infrastructure, and a stub advertiser.
func testWorld(t testing.TB, name string) (*netsim.Network, *Engine) {
	t.Helper()
	seed := detrand.New(77)
	net := netsim.NewNetwork()
	reg := adtech.NewRegistry(seed)

	var platform *adtech.Platform
	switch name {
	case Google, StartPage:
		platform = adtech.GoogleAds(seed)
		reg.Add(&adtech.Policy{Host: "www.googleadservices.com", Path: "/pagead/aclk", UIDCookieProb: 1, CookieName: "gac"})
	default:
		platform = adtech.MicrosoftAds(seed)
	}
	reg.Add(&adtech.Policy{Host: "ad.doubleclick.net", Path: "/ddm/clk", UIDCookieProb: 1, CookieName: "IDE"})
	reg.Add(&adtech.Policy{Host: "clickserve.dartsearch.net", Path: "/link/click", UIDCookieProb: 0, NonUIDCookie: true})
	reg.Register(net)

	pool := &adtech.Pool{Campaigns: []*adtech.Campaign{
		{ID: "shoes", Landing: urlx.MustParse("https://shoes.example/sale"), Keywords: []string{"shoes"}, AutoTag: true},
		{ID: "hotel", Landing: urlx.MustParse("https://hotel.example/book"), Keywords: []string{"hotel"},
			Stack: []string{"clickserve.dartsearch.net", "ad.doubleclick.net"}, AutoTag: true},
	}}

	spec := SpecFor(name)
	e := NewEngine(spec, platform, pool, reg, seed)
	e.Beacons = BeaconsFor(name)
	switch name {
	case Bing:
		e.BouncePolicy = &adtech.Policy{Host: "www.bing.com", UIDCookieProb: 1, CookieName: "MUID"}
	case Google:
		e.BouncePolicy = &adtech.Policy{Host: "www.google.com", UIDCookieProb: 1, CookieName: "NID"}
	}
	e.Register(net)

	// Register the other engines' hosts that this engine's chains rely
	// on (StartPage needs google.com/aclk; DDG and Qwant need
	// bing.com/aclk).
	switch name {
	case StartPage:
		g := NewEngine(GoogleSpec(), adtech.GoogleAds(seed), nil, reg, seed)
		g.BouncePolicy = &adtech.Policy{Host: "www.google.com", UIDCookieProb: 1, CookieName: "NID"}
		g.Register(net)
	case DuckDuckGo, Qwant:
		b := NewEngine(BingSpec(), adtech.MicrosoftAds(seed), nil, reg, seed)
		b.BouncePolicy = &adtech.Policy{Host: "www.bing.com", UIDCookieProb: 1, CookieName: "MUID"}
		b.Register(net)
	}

	stub := netsim.HandlerFunc(func(req *netsim.Request) *netsim.Response {
		resp := netsim.NewResponse(http.StatusOK)
		resp.Page = &netsim.Page{Title: "landing", Root: netsim.NewElement("div")}
		return resp
	})
	net.HandleSite("shoes.example", stub)
	net.HandleSite("hotel.example", stub)
	return net, e
}

func navigateSERP(t *testing.T, net *netsim.Network, e *Engine, query string) (*browser.Browser, []*netsim.Element) {
	t.Helper()
	b := browser.New(net, browser.Options{Seed: detrand.New(42)})
	if _, err := b.Navigate(e.SearchURL(query)); err != nil {
		t.Fatal(err)
	}
	return b, FindAds(e.Spec.Name, b.Page())
}

func pathOf(res *browser.NavResult) []string {
	var hosts []string
	for _, h := range res.Hops {
		u := urlx.MustParse(h.URL)
		site := urlx.RegistrableDomain(u.Host)
		if len(hosts) == 0 || hosts[len(hosts)-1] != site {
			hosts = append(hosts, site)
		}
	}
	return hosts
}

func TestBingSERPAndClick(t *testing.T) {
	net, e := testWorld(t, Bing)
	b, ads := navigateSERP(t, net, e, "buy shoes")
	if len(ads) == 0 {
		t.Fatal("no ads on Bing SERP")
	}
	// §4.1.1: Bing stores MUID on the SERP visit.
	if _, ok := b.Jar().Get("bing.com", "MUID"); !ok {
		t.Fatal("MUID not set on SERP")
	}
	res, err := b.Click(ads[0])
	if err != nil {
		t.Fatal(err)
	}
	path := pathOf(res)
	if path[0] != "bing.com" || path[len(path)-1] != "shoes.example" {
		t.Fatalf("path = %v", path)
	}
	// Beacon to GLinkPingPost with destination URL (§4.2.1).
	var beacon *netsim.Request
	for _, r := range b.ExtensionRequests() {
		if strings.Contains(r.URL.Path, "GLinkPingPost") {
			beacon = r
		}
	}
	if beacon == nil {
		t.Fatal("GLinkPingPost beacon missing")
	}
	if beacon.Query("url") == "" || beacon.Query("q") != "buy shoes" {
		t.Fatalf("beacon params = %s", beacon.URL.RawQuery)
	}
	// The beacon carries the MUID identifier as a cookie.
	if _, ok := beacon.Cookie("MUID"); !ok {
		t.Fatal("MUID cookie missing on beacon")
	}
	// MSCLKID reached the destination (campaign auto-tags).
	if got, _ := urlx.Param(res.FinalURL, "msclkid"); len(got) != 32 {
		t.Fatalf("msclkid = %q", got)
	}
}

func TestGoogleSERPAndClick(t *testing.T) {
	net, e := testWorld(t, Google)
	b, ads := navigateSERP(t, net, e, "cheap hotel")
	if len(ads) == 0 {
		t.Fatal("no ads on Google SERP")
	}
	// The paper detects Google ads by their googleadservices.com hrefs.
	for _, ad := range ads {
		if !strings.Contains(ad.Attr("href"), "googleadservices.com") {
			t.Fatalf("ad href = %s", ad.Attr("href"))
		}
	}
	if _, ok := b.Jar().Get("google.com", "NID"); !ok {
		t.Fatal("NID not set on SERP")
	}
	res, err := b.Click(ads[0])
	if err != nil {
		t.Fatal(err)
	}
	path := pathOf(res)
	// The click navigation starts at googleadservices.com (the SERP
	// origin google.com is prepended by the analysis stage); the
	// campaign stack follows.
	want := []string{"googleadservices.com", "dartsearch.net", "doubleclick.net", "hotel.example"}
	if len(path) != len(want) {
		t.Fatalf("path = %v, want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
	if got, _ := urlx.Param(res.FinalURL, "gclid"); !strings.HasPrefix(got, "Cj0KCQjw") {
		t.Fatalf("gclid = %q", got)
	}
	var sawGen204 bool
	for _, r := range b.ExtensionRequests() {
		if r.URL.Path == "/gen_204" && r.Method == http.MethodPost {
			sawGen204 = true
			if _, ok := r.Cookie("NID"); !ok {
				t.Error("gen_204 beacon missing NID cookie")
			}
		}
	}
	if !sawGen204 {
		t.Fatal("gen_204 beacon missing")
	}
}

func TestDuckDuckGoClickRoutesThroughBing(t *testing.T) {
	net, e := testWorld(t, DuckDuckGo)
	b, ads := navigateSERP(t, net, e, "buy shoes")
	if len(ads) == 0 {
		t.Fatal("no ads on DDG SERP")
	}
	// §4.1.1: no user identifiers in DDG first-party storage.
	for _, c := range b.Jar().All(net.Clock().Now()) {
		if tokens.PassesValueHeuristics(c.Value) {
			t.Fatalf("DDG stored identifier-like cookie %s=%s", c.Name, c.Value)
		}
	}
	res, err := b.Click(ads[0])
	if err != nil {
		t.Fatal(err)
	}
	path := pathOf(res)
	want := []string{"duckduckgo.com", "bing.com", "shoes.example"}
	if len(path) != len(want) {
		t.Fatalf("path = %v, want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
	// Bing identified the DDG user during the bounce (Table 4).
	if _, ok := b.Jar().Get("www.bing.com", "MUID"); !ok {
		t.Fatal("bing.com did not store MUID during DDG bounce")
	}
	// improving.duckduckgo.com beacon with provider and destination.
	var saw bool
	for _, r := range b.ExtensionRequests() {
		if r.URL.Host == "improving.duckduckgo.com" {
			saw = true
			if r.Query("ad_provider") != "bing" {
				t.Errorf("ad_provider = %q", r.Query("ad_provider"))
			}
		}
	}
	if !saw {
		t.Fatal("improving.duckduckgo.com beacon missing")
	}
}

func TestStartPageClickRoutesThroughGoogle(t *testing.T) {
	net, e := testWorld(t, StartPage)
	b, ads := navigateSERP(t, net, e, "buy shoes")
	if len(ads) == 0 {
		t.Fatal("no ads in Sponsored Links container")
	}
	res, err := b.Click(ads[0])
	if err != nil {
		t.Fatal(err)
	}
	path := pathOf(res)
	want := []string{"startpage.com", "google.com", "googleadservices.com", "shoes.example"}
	if len(path) != len(want) {
		t.Fatalf("path = %v, want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
	// Google identified the StartPage user (Table 4: google.com 100%).
	if _, ok := b.Jar().Get("www.google.com", "NID"); !ok {
		t.Fatal("google.com did not store NID during StartPage bounce")
	}
	// sp/cl beacon has position but no destination URL (§4.2.1).
	for _, r := range b.ExtensionRequests() {
		if r.URL.Path == "/sp/cl" {
			if r.Query("pos") == "" {
				t.Error("sp/cl missing position")
			}
			if r.Query("url") != "" || r.Query("du") != "" {
				t.Error("sp/cl must not carry the destination URL")
			}
			return
		}
	}
	t.Fatal("sp/cl beacon missing")
}

func TestQwantAdsInIframe(t *testing.T) {
	net, e := testWorld(t, Qwant)
	b, ads := navigateSERP(t, net, e, "buy shoes")
	if len(ads) == 0 {
		t.Fatal("no ads found (iframe merge failed?)")
	}
	var sawFrame bool
	for _, r := range b.ExtensionRequests() {
		if r.Type == netsim.TypeSubdocument && r.URL.Path == "/ads-frame" {
			sawFrame = true
		}
	}
	if !sawFrame {
		t.Fatal("Qwant ads frame not loaded")
	}
	res, err := b.Click(ads[0])
	if err != nil {
		t.Fatal(err)
	}
	path := pathOf(res)
	if path[0] != "qwant.com" || path[1] != "bing.com" {
		t.Fatalf("path = %v", path)
	}
	var sawClickSerp bool
	for _, r := range b.ExtensionRequests() {
		if r.URL.Path == "/action/click_serp" {
			sawClickSerp = true
			for _, param := range []string{"q", "device", "locale", "position", "url"} {
				if r.Query(param) == "" {
					t.Errorf("click_serp missing %s", param)
				}
			}
		}
	}
	if !sawClickSerp {
		t.Fatal("click_serp beacon missing")
	}
}

func TestDirectFromEngineCampaign(t *testing.T) {
	net, e := testWorld(t, Qwant)
	e.Pool.Campaigns = []*adtech.Campaign{{
		ID: "direct", Landing: urlx.MustParse("https://shoes.example/d"),
		DirectFromEngine: true,
	}}
	b, ads := navigateSERP(t, net, e, "anything")
	res, err := b.Click(ads[0])
	if err != nil {
		t.Fatal(err)
	}
	path := pathOf(res)
	want := []string{"qwant.com", "shoes.example"}
	if len(path) != 2 || path[0] != want[0] || path[1] != want[1] {
		t.Fatalf("path = %v, want %v", path, want)
	}
}

func TestBotGetsNoAds(t *testing.T) {
	net, e := testWorld(t, Bing)
	b := browser.New(net, browser.Options{
		Fingerprint: browser.DefaultHeadlessFingerprint(),
		Seed:        detrand.New(1),
	})
	if _, err := b.Navigate(e.SearchURL("buy shoes")); err != nil {
		t.Fatal(err)
	}
	if ads := FindAds(Bing, b.Page()); len(ads) != 0 {
		t.Fatalf("headless browser got %d ads, want 0 (stealth required)", len(ads))
	}
}

func TestSERPSessionCookieRotates(t *testing.T) {
	net, e := testWorld(t, Bing)
	b, _ := navigateSERP(t, net, e, "q1")
	v1, ok := b.Jar().Get("www.bing.com", "_EDGE_S")
	if !ok {
		t.Fatal("_EDGE_S not set")
	}
	b.Navigate(e.SearchURL("q2"))
	v2, _ := b.Jar().Get("www.bing.com", "_EDGE_S")
	if v1 == v2 {
		t.Fatal("_EDGE_S must rotate per visit")
	}
	// MUID must NOT rotate.
	m1, _ := b.Jar().Get("bing.com", "MUID")
	b.Navigate(e.SearchURL("q3"))
	m2, _ := b.Jar().Get("bing.com", "MUID")
	if m1 != m2 {
		t.Fatal("MUID must persist across visits")
	}
}

func TestUIDCookieValuesPassHeuristics(t *testing.T) {
	net, e := testWorld(t, Google)
	b, _ := navigateSERP(t, net, e, "q")
	nid, _ := b.Jar().Get("google.com", "NID")
	if !tokens.PassesValueHeuristics(nid) {
		t.Fatalf("NID value %q would not classify as identifier", nid)
	}
	_ = net
}

func TestFindAdsFallback(t *testing.T) {
	if FindAds(Google, nil) != nil {
		t.Fatal("nil page should give nil ads")
	}
	page := &netsim.Page{Root: netsim.NewElement("div").Append(
		netsim.NewElement("a", "href", "https://x.example/", "data-ad", "1"),
	)}
	if len(FindAds("unknown-engine", page)) != 1 {
		t.Fatal("generic fallback failed")
	}
}

func TestSearchURL(t *testing.T) {
	_, e := testWorld(t, StartPage)
	u := e.SearchURL("two words")
	if !strings.Contains(u, "query=two+words") || !strings.Contains(u, "startpage.com/do/search") {
		t.Fatalf("SearchURL = %s", u)
	}
}

func TestAllEngineNames(t *testing.T) {
	names := AllEngineNames()
	if len(names) != 5 || names[0] != Bing || names[4] != Qwant {
		t.Fatalf("names = %v", names)
	}
	for _, n := range names {
		if SpecFor(n).Name != n {
			t.Errorf("SpecFor(%s) broken", n)
		}
		if BeaconsFor(n) == nil {
			t.Errorf("BeaconsFor(%s) nil", n)
		}
	}
	if BeaconsFor("nope") != nil || SpecFor("nope").Host != "" {
		t.Error("unknown engine should give zero values")
	}
}
