package serp

import (
	"net/http"
	"slices"
	"strconv"
	"sync"
	"testing"

	"searchads/internal/adtech"
	"searchads/internal/detrand"
	"searchads/internal/netsim"
	"searchads/internal/urlx"
)

func serveDirect(t *testing.T, e *Engine, rawURL string) *netsim.Response {
	t.Helper()
	return e.serve(&netsim.Request{URL: urlx.MustParse(rawURL), Header: make(http.Header)})
}

func TestEngineHomePage(t *testing.T) {
	_, e := testWorld(t, Bing)
	resp := serveDirect(t, e, "https://www.bing.com/")
	if resp.Status != 200 || resp.Page == nil {
		t.Fatalf("home = %+v", resp)
	}
	form := resp.Page.Root.Find(func(el *netsim.Element) bool { return el.Tag == "form" })
	if form == nil || form.Attr("action") != "/search" {
		t.Fatal("home page search form missing")
	}
	// Home visits also set the engine's cookies (§4.1.1).
	var sawMUID bool
	for _, c := range resp.SetCookies {
		if c.Name == "MUID" {
			sawMUID = true
		}
	}
	if !sawMUID {
		t.Fatal("MUID not set on home page")
	}
}

func TestEngineUnknownPathIs404(t *testing.T) {
	_, e := testWorld(t, Bing)
	if resp := serveDirect(t, e, "https://www.bing.com/nonexistent"); resp.Status != http.StatusNotFound {
		t.Fatalf("status = %d", resp.Status)
	}
}

func TestEngineStaticAssetsServed(t *testing.T) {
	_, e := testWorld(t, Google)
	if resp := serveDirect(t, e, "https://www.google.com/static/serp.js"); resp.Status != 200 {
		t.Fatalf("static asset status = %d", resp.Status)
	}
}

func TestEngineBounceWithoutNextIs404(t *testing.T) {
	_, e := testWorld(t, DuckDuckGo)
	if resp := serveDirect(t, e, "https://duckduckgo.com/y.js"); resp.Status != http.StatusNotFound {
		t.Fatalf("bounce without next = %d", resp.Status)
	}
}

func TestBeaconSinkAcceptsAllEngineBeacons(t *testing.T) {
	for _, tc := range []struct{ engine, url string }{
		{Bing, "https://www.bing.com/fd/ls/GLinkPingPost.aspx?url=x"},
		{Google, "https://www.google.com/gen_204?label=ad_click"},
		{DuckDuckGo, "https://improving.duckduckgo.com/t/ad_click?q=x"},
		{StartPage, "https://www.startpage.com/sp/cl?pos=1"},
		{Qwant, "https://www.qwant.com/action/click_serp?q=x"},
	} {
		_, e := testWorld(t, tc.engine)
		if resp := serveDirect(t, e, tc.url); resp.Status != http.StatusNoContent {
			t.Errorf("%s beacon status = %d", tc.engine, resp.Status)
		}
	}
}

func TestRenderAdsWithoutPool(t *testing.T) {
	e := &Engine{Spec: BingSpec()}
	container := e.renderAds("query", "bing-0000")
	if len(container.Children) != 0 {
		t.Fatal("pool-less engine rendered ads")
	}
}

// TestAdBlockSetAttrKeepsNeighbours: the ad block's elements share one
// attribute array, and scripts decorate ad links in place. Adding an
// attribute to the container or to any ad must leave every other
// element's attributes as they were.
func TestAdBlockSetAttrKeepsNeighbours(t *testing.T) {
	_, e := testWorld(t, StartPage)
	e.Pool.Campaigns = append(e.Pool.Campaigns,
		&adtech.Campaign{ID: "tv", Landing: urlx.MustParse("https://tv.example/deals"), Stack: []string{"ad.doubleclick.net"}},
		&adtech.Campaign{ID: "bike", Landing: urlx.MustParse("https://bike.example/"), DirectFromEngine: true},
	)
	container := e.renderAds("buy shoes", "startpage-0001")
	if len(container.Children) != AdsPerSERP {
		t.Fatalf("rendered %d ads, want %d", len(container.Children), AdsPerSERP)
	}
	els := append([]*netsim.Element{container}, container.Children...)
	keys := []string{"id", "title", "href", "data-landing", "data-ad", "data-pos"}
	attrs := func() [][]string {
		var all [][]string
		for _, el := range els {
			var vals []string
			for _, k := range keys {
				vals = append(vals, el.Attr(k))
			}
			all = append(all, vals)
		}
		return all
	}
	before := attrs()
	for i, el := range els {
		el.SetAttr("data-decorated", strconv.Itoa(i))
	}
	after := attrs()
	for i, el := range els {
		if !slices.Equal(after[i], before[i]) {
			t.Errorf("element %d: attributes %q became %q after SetAttr on the block", i, before[i], after[i])
		}
		if got := el.Attr("data-decorated"); got != strconv.Itoa(i) {
			t.Errorf("element %d: data-decorated = %q, want %d", i, got, i)
		}
	}
}

// TestAdTemplateMemoConcurrent: renders racing to fill a fresh engine's
// per-campaign template cache on first use all get the href a
// sequential render gives.
func TestAdTemplateMemoConcurrent(t *testing.T) {
	_, e := testWorld(t, StartPage)
	var clicks []*adtech.AdClick
	var want []string
	for _, c := range e.Pool.Campaigns {
		click := e.Platform.BuildClick(c, "startpage-0001")
		clicks = append(clicks, click)
		want = append(want, e.BuildHref(click))
	}
	for range 20 {
		fresh := NewEngine(e.Spec, e.Platform, e.Pool, nil, detrand.New(1))
		var wg sync.WaitGroup
		for range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i, click := range clicks {
					if got := fresh.BuildHref(click); got != want[i] {
						t.Errorf("%s: concurrent first render %q, want %q", click.Campaign.ID, got, want[i])
					}
				}
			}()
		}
		wg.Wait()
	}
}

func TestQwantBotGetsEmptyFrame(t *testing.T) {
	_, e := testWorld(t, Qwant)
	req := &netsim.Request{
		URL:    urlx.MustParse("https://www.qwant.com/ads-frame?q=x"),
		Header: http.Header{"X-Headless": []string{"1"}},
	}
	resp := e.serve(req)
	if resp.Page == nil {
		t.Fatal("frame must still serve a document")
	}
	if ads := FindAds(Qwant, resp.Page); len(ads) != 0 {
		t.Fatalf("bot got %d ads in frame", len(ads))
	}
}

// BenchmarkServeSERP times one engine serving one client a results page
// and the ads frame it references: the organic block, four ads with
// their click chains and beacons, and the engine's cookies. Qwant is the
// engine that loads its ads through a frame and wraps them in its own
// bounce endpoint.
func BenchmarkServeSERP(b *testing.B) {
	_, e := testWorld(b, Qwant)
	e.Pool.Campaigns = append(e.Pool.Campaigns,
		&adtech.Campaign{ID: "tv", Landing: urlx.MustParse("https://tv.example/deals"), Keywords: []string{"shoes"},
			Stack: []string{"pixel.everesttech.net"}, AutoTag: true, CrossTagGCLID: true, OtherUIDParam: "irclickid"},
		&adtech.Campaign{ID: "bike", Landing: urlx.MustParse("https://bike.example/"), Keywords: []string{"shoes"},
			DirectFromEngine: true},
	)
	serpReq := netsim.Request{URL: urlx.MustParse(e.SearchURL("buy shoes")), Header: make(http.Header), Client: "qwant-0001"}
	page := e.serve(&serpReq).Page
	if len(page.Frames) != 1 {
		b.Fatalf("frames = %v", page.Frames)
	}
	frameReq := serpReq
	frameReq.URL = urlx.MustParse(page.Frames[0])
	if ads := FindAds(Qwant, e.serve(&frameReq).Page); len(ads) != AdsPerSERP {
		b.Fatalf("ads = %d, want %d", len(ads), AdsPerSERP)
	}
	b.ReportAllocs()
	for b.Loop() {
		s, f := serpReq, frameReq
		e.serve(&s)
		e.serve(&f)
	}
}
