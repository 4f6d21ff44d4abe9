package browser

import (
	"errors"
	"net/http"
	"strings"
	"testing"

	"searchads/internal/detrand"
	"searchads/internal/netsim"
	"searchads/internal/storage"
	"searchads/internal/urlx"
)

// buildWorld wires a small ecosystem: a page on a.com linking through a
// redirector r.com to dest.com, with a tracker script and pixel.
func buildWorld(t *testing.T) *netsim.Network {
	t.Helper()
	n := netsim.NewNetwork()

	n.Handle("a.com", netsim.HandlerFunc(func(req *netsim.Request) *netsim.Response {
		resp := netsim.NewResponse(http.StatusOK)
		link := netsim.NewElement("a",
			"href", "https://r.com/bounce?dest=https%3A%2F%2Fdest.com%2Fland",
			"ping", "https://a.com/ping")
		link.OnClick = []netsim.Beacon{{
			Method: http.MethodPost,
			URL:    "https://a.com/clicklog",
			Type:   netsim.TypePing,
			Body:   "clicked",
		}}
		resp.Page = &netsim.Page{
			Title: "start",
			Root:  netsim.NewElement("div").Append(link),
			Resources: []netsim.ResourceRef{
				{URL: "https://tracker.com/t.js", Type: netsim.TypeScript},
			},
		}
		resp.AddCookie(netsim.NewCookie("a_session", "s1"))
		return resp
	}))

	n.Handle("tracker.com", netsim.HandlerFunc(func(req *netsim.Request) *netsim.Response {
		resp := netsim.NewResponse(http.StatusOK)
		if strings.HasSuffix(req.URL.Path, ".js") {
			resp.Script = netsim.ScriptFunc(func(env netsim.ScriptEnv) {
				env.SetDocumentCookie(netsim.NewCookie("t_fp", "fp01"))
				env.LocalStorageSet("t_ls", "ls01")
				pixel := urlx.MustParse("https://tracker.com/px?page=" + env.PageURL().Host)
				env.Fetch(http.MethodGet, pixel, netsim.TypeImage, "")
				env.DecorateLinks(func(href urlx.URL) urlx.URL {
					if href.Host != "r.com" {
						return urlx.URL{}
					}
					return urlx.Decorate(href, "uid", "SmuggledUid12345")
				})
			})
		}
		return resp
	}))

	n.Handle("r.com", netsim.HandlerFunc(func(req *netsim.Request) *netsim.Response {
		dest := req.Query("dest")
		resp := netsim.Redirect(http.StatusFound, dest)
		resp.AddCookie(netsim.NewCookie("r_uid", "r01"))
		return resp
	}))

	n.Handle("dest.com", netsim.HandlerFunc(func(req *netsim.Request) *netsim.Response {
		resp := netsim.NewResponse(http.StatusOK)
		resp.Page = &netsim.Page{Title: "landing", Root: netsim.NewElement("div")}
		return resp
	}))

	return n
}

func newBrowser(t *testing.T, n *netsim.Network) *Browser {
	t.Helper()
	return New(n, Options{Seed: detrand.New(7)})
}

func TestNavigateLoadsPageAndRunsScripts(t *testing.T) {
	n := buildWorld(t)
	b := newBrowser(t, n)
	res, err := b.Navigate("https://a.com/")
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalURL.Host != "a.com" || res.Page.Title != "start" {
		t.Fatalf("final = %v", res.FinalURL)
	}
	// Script effects: first-party cookie, localStorage, pixel request.
	if v, ok := b.Jar().Get("a.com", "t_fp"); !ok || v != "fp01" {
		t.Error("script document.cookie not stored")
	}
	if v, ok := b.LocalStorage().Get("a.com", "https://a.com", "t_ls"); !ok || v != "ls01" {
		t.Error("script localStorage not stored")
	}
	var sawPixel bool
	for _, r := range b.ExtensionRequests() {
		if r.URL.Host == "tracker.com" && r.Type == netsim.TypeImage {
			sawPixel = true
			if !r.IsThirdParty() {
				t.Error("pixel should be third-party")
			}
		}
	}
	if !sawPixel {
		t.Error("tracker pixel not requested")
	}
}

func TestClickFollowsRedirectChain(t *testing.T) {
	n := buildWorld(t)
	b := newBrowser(t, n)
	if _, err := b.Navigate("https://a.com/"); err != nil {
		t.Fatal(err)
	}
	link := b.Page().Root.Find(func(e *netsim.Element) bool { return e.Tag == "a" })
	if link == nil {
		t.Fatal("no link on page")
	}
	// The tracker script decorated the link with a uid param.
	if !strings.Contains(link.Attr("href"), "uid=SmuggledUid12345") {
		t.Fatalf("link not decorated: %s", link.Attr("href"))
	}
	res, err := b.Click(link)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalURL.String() != "https://dest.com/land" {
		t.Fatalf("final = %s", res.FinalURL)
	}
	// Hops: r.com (302) then dest.com (200).
	if len(res.Hops) != 2 {
		t.Fatalf("hops = %d: %+v", len(res.Hops), res.Hops)
	}
	if res.Hops[0].Status != 302 || res.Hops[0].Location == "" {
		t.Fatalf("hop0 = %+v", res.Hops[0])
	}
	if res.Hops[0].Mechanism != "initial" || res.Hops[1].Mechanism != "http" {
		t.Fatalf("mechanisms = %s,%s", res.Hops[0].Mechanism, res.Hops[1].Mechanism)
	}
	// The redirector set its first-party cookie during the bounce.
	if got := res.Hops[0].SetCookieNames; len(got) != 1 || got[0] != "r_uid" {
		t.Fatalf("hop0 cookies = %v", got)
	}
	if v, ok := b.Jar().Get("r.com", "r_uid"); !ok || v != "r01" {
		t.Error("redirector cookie not persisted")
	}
	// Click beacons fired before navigation: onclick + ping.
	var beacons []string
	for _, r := range b.ExtensionRequests() {
		if r.Initiator == "click" {
			beacons = append(beacons, r.URL.String())
		}
	}
	if len(beacons) != 2 {
		t.Fatalf("click beacons = %v", beacons)
	}
	if b.FirstParty() != "dest.com" {
		t.Fatalf("first party = %s", b.FirstParty())
	}
}

func TestClickErrors(t *testing.T) {
	n := buildWorld(t)
	b := newBrowser(t, n)
	if _, err := b.Click(netsim.NewElement("a")); err == nil {
		t.Fatal("click before navigation must fail")
	}
	b.Navigate("https://a.com/")
	if _, err := b.Click(nil); err == nil {
		t.Fatal("nil element click must fail")
	}
	if _, err := b.Click(netsim.NewElement("a")); err == nil {
		t.Fatal("missing href must fail")
	}
}

func TestRedirectLoopCapped(t *testing.T) {
	n := netsim.NewNetwork()
	n.Handle("loop.com", netsim.HandlerFunc(func(req *netsim.Request) *netsim.Response {
		return netsim.Redirect(http.StatusFound, "https://loop.com/again")
	}))
	b := New(n, Options{MaxRedirects: 5, Seed: detrand.New(1)})
	_, err := b.Navigate("https://loop.com/")
	if !errors.Is(err, ErrTooManyRedirects) {
		t.Fatalf("err = %v", err)
	}
}

func TestMetaRefreshAndJSRedirect(t *testing.T) {
	n := netsim.NewNetwork()
	n.Handle("meta.com", netsim.HandlerFunc(func(req *netsim.Request) *netsim.Response {
		resp := netsim.NewResponse(http.StatusOK)
		resp.Page = &netsim.Page{Root: netsim.NewElement("div"), MetaRefresh: "https://js.com/"}
		return resp
	}))
	n.Handle("js.com", netsim.HandlerFunc(func(req *netsim.Request) *netsim.Response {
		resp := netsim.NewResponse(http.StatusOK)
		resp.Page = &netsim.Page{Root: netsim.NewElement("div"), JSRedirect: "https://end.com/"}
		return resp
	}))
	n.Handle("end.com", netsim.HandlerFunc(func(req *netsim.Request) *netsim.Response {
		resp := netsim.NewResponse(http.StatusOK)
		resp.Page = &netsim.Page{Root: netsim.NewElement("div"), Title: "end"}
		return resp
	}))
	b := New(n, Options{Seed: detrand.New(1)})
	res, err := b.Navigate("https://meta.com/")
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalURL.Host != "end.com" {
		t.Fatalf("final = %v", res.FinalURL)
	}
	mechs := make([]string, len(res.Hops))
	for i, h := range res.Hops {
		mechs[i] = h.Mechanism
	}
	want := []string{"initial", "meta", "js"}
	for i := range want {
		if mechs[i] != want[i] {
			t.Fatalf("mechanisms = %v, want %v", mechs, want)
		}
	}
}

func TestScriptRedirectViaEnv(t *testing.T) {
	n := netsim.NewNetwork()
	n.Handle("page.com", netsim.HandlerFunc(func(req *netsim.Request) *netsim.Response {
		resp := netsim.NewResponse(http.StatusOK)
		resp.Page = &netsim.Page{
			Root:      netsim.NewElement("div"),
			Resources: []netsim.ResourceRef{{URL: "https://page.com/go.js", Type: netsim.TypeScript}},
		}
		if req.URL.Path == "/go.js" {
			resp.Page = nil
			resp.Script = netsim.ScriptFunc(func(env netsim.ScriptEnv) {
				env.Redirect("https://final.com/")
			})
		}
		return resp
	}))
	n.Handle("final.com", netsim.HandlerFunc(func(req *netsim.Request) *netsim.Response {
		resp := netsim.NewResponse(http.StatusOK)
		resp.Page = &netsim.Page{Root: netsim.NewElement("div")}
		return resp
	}))
	b := New(n, Options{Seed: detrand.New(1)})
	res, err := b.Navigate("https://page.com/")
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalURL.Host != "final.com" {
		t.Fatalf("final = %v", res.FinalURL)
	}
}

func TestFrameMergedIntoParentDOM(t *testing.T) {
	n := netsim.NewNetwork()
	n.Handle("outer.com", netsim.HandlerFunc(func(req *netsim.Request) *netsim.Response {
		resp := netsim.NewResponse(http.StatusOK)
		if req.URL.Path == "/frame" {
			resp.Page = &netsim.Page{Root: netsim.NewElement("div").Append(
				netsim.NewElement("a", "href", "https://adnet.com/clk", "data-ad", "1"),
			)}
			return resp
		}
		resp.Page = &netsim.Page{
			Root:   netsim.NewElement("div"),
			Frames: []string{"https://outer.com/frame"},
		}
		return resp
	}))
	b := New(n, Options{Seed: detrand.New(1)})
	if _, err := b.Navigate("https://outer.com/"); err != nil {
		t.Fatal(err)
	}
	ads := b.Page().Root.FindAll(func(e *netsim.Element) bool { return e.Attr("data-ad") == "1" })
	if len(ads) != 1 {
		t.Fatalf("frame ads visible = %d, want 1", len(ads))
	}
	// Frame fetch recorded as subdocument.
	var sawFrame bool
	for _, r := range b.ExtensionRequests() {
		if r.Type == netsim.TypeSubdocument {
			sawFrame = true
		}
	}
	if !sawFrame {
		t.Fatal("frame request not recorded")
	}
}

func TestCaptureProbability(t *testing.T) {
	n := netsim.NewNetwork()
	n.Handle("many.com", netsim.HandlerFunc(func(req *netsim.Request) *netsim.Response {
		resp := netsim.NewResponse(http.StatusOK)
		if req.URL.Path == "/" {
			page := &netsim.Page{Root: netsim.NewElement("div")}
			for i := 0; i < 400; i++ {
				page.Resources = append(page.Resources, netsim.ResourceRef{
					URL: "https://many.com/r", Type: netsim.TypeImage,
				})
			}
			resp.Page = page
		}
		return resp
	}))
	b := New(n, Options{CaptureProb: 0.97, Seed: detrand.New(11)})
	if _, err := b.Navigate("https://many.com/"); err != nil {
		t.Fatal(err)
	}
	ext, crawl := len(b.ExtensionRequests()), len(b.CrawlerRequests())
	if ext != 401 {
		t.Fatalf("extension log = %d", ext)
	}
	ratio := float64(crawl) / float64(ext)
	if ratio < 0.93 || ratio > 1.0 {
		t.Fatalf("capture ratio = %.3f, want ~0.97", ratio)
	}
	// Determinism: same seed, same loss pattern.
	b2 := New(n, Options{CaptureProb: 0.97, Seed: detrand.New(11)})
	b2.Navigate("https://many.com/")
	if len(b2.CrawlerRequests()) != crawl {
		t.Fatal("capture loss not deterministic")
	}
}

func TestFingerprintHeaders(t *testing.T) {
	n := netsim.NewNetwork()
	var got *netsim.Request
	n.Handle("probe.com", netsim.HandlerFunc(func(req *netsim.Request) *netsim.Response {
		got = req
		return netsim.NewResponse(http.StatusOK)
	}))
	b := New(n, Options{Fingerprint: DefaultHeadlessFingerprint(), Seed: detrand.New(1)})
	b.Navigate("https://probe.com/")
	if got.Header.Get("X-Headless") != "1" || got.Header.Get("X-Webdriver") != "1" {
		t.Fatal("headless markers missing")
	}
	if !strings.Contains(got.Header.Get("User-Agent"), "HeadlessChrome") {
		t.Fatal("headless UA missing")
	}

	b2 := New(n, Options{Seed: detrand.New(1)}) // default = stealth
	b2.Navigate("https://probe.com/")
	if got.Header.Get("X-Headless") == "1" {
		t.Fatal("stealth fingerprint leaked headless marker")
	}
}

func TestPartitionedBrowserIsolation(t *testing.T) {
	// The same tracker pixel embedded on two sites gets two partitions
	// in a partitioned browser.
	n := netsim.NewNetwork()
	pixelSetter := netsim.HandlerFunc(func(req *netsim.Request) *netsim.Response {
		resp := netsim.NewResponse(http.StatusOK)
		if req.URL.Host == "tracker.com" {
			c := netsim.NewCookie("t_uid", "01")
			c.SameSite = netsim.SameSiteNone
			resp.AddCookie(c)
			return resp
		}
		resp.Page = &netsim.Page{
			Root:      netsim.NewElement("div"),
			Resources: []netsim.ResourceRef{{URL: "https://tracker.com/px", Type: netsim.TypeImage}},
		}
		return resp
	})
	n.Handle("s1.com", pixelSetter)
	n.Handle("s2.com", pixelSetter)
	n.Handle("tracker.com", pixelSetter)

	b := New(n, Options{StorageMode: storage.Partitioned, Seed: detrand.New(1)})
	b.Navigate("https://s1.com/")
	b.Navigate("https://s2.com/")
	parts := map[string]bool{}
	for _, c := range b.Jar().All(n.Clock().Now()) {
		if c.Name == "t_uid" {
			parts[c.PartitionKey] = true
		}
	}
	if len(parts) != 2 {
		t.Fatalf("partitions = %v, want 2 distinct", parts)
	}
}

func TestNavigateBadURL(t *testing.T) {
	b := New(netsim.NewNetwork(), Options{Seed: detrand.New(1)})
	if _, err := b.Navigate("http://%zz"); err == nil {
		t.Fatal("expected parse error")
	}
}
