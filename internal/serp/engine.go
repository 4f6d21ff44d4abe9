// Package serp implements the five search engines the paper studies:
// Google and Bing (traditional, user-tracking) and DuckDuckGo, StartPage,
// and Qwant (privacy-branded). Each engine serves its results page with
// ads from its advertising platform, its post-click beacon endpoints
// (§4.2.1), and — where the real engine does — an own-domain bounce
// endpoint that participates in the redirect chain (§4.2.2).
package serp

import (
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"searchads/internal/adtech"
	"searchads/internal/detrand"
	"searchads/internal/netsim"
	"searchads/internal/urlx"
)

// AdsPerSERP is how many ads a results page carries.
const AdsPerSERP = 4

// Spec is the static description of one search engine.
type Spec struct {
	// Name is the engine's short name ("google", "bing", ...).
	Name string
	// Host is the engine's canonical host.
	Host string
	// ExtraHosts are additional engine-owned hosts (beacon endpoints,
	// API subdomains).
	ExtraHosts []string
	// SearchPath is the results-page path.
	SearchPath string
	// QueryParam is the search query parameter name.
	QueryParam string
	// AdsInFrame loads the ad block through an iframe instead of the
	// main document ("ads are either part of the main page or are
	// loaded through an iframe", §3.1).
	AdsInFrame bool
	// AdContainerTitle titles the ads container element; the paper's
	// scraper keys on it for StartPage ("all ads on StartPage are
	// inside an HTML element titled 'Sponsored Links'").
	AdContainerTitle string
	// BouncePath is the engine's own-domain click-bounce endpoint (""
	// if the engine has none). Ad hrefs carry it verbatim, so it must be
	// a plain path that needs no escaping.
	BouncePath string
	// BounceHost overrides the bounce endpoint's host (api.qwant.com).
	BounceHost string
	// WrapOwnAds routes the engine's ad hrefs through its bounce
	// endpoint. Google serves /aclk for StartPage's chains but links
	// its own SERP ads straight to googleadservices.com, so it keeps
	// this false.
	WrapOwnAds bool
	// UpstreamHops are engine-specific hosts between the engine bounce
	// and the platform click server (StartPage routes through
	// google.com before googleadservices.com).
	UpstreamHops []string
	// StoresUserID makes the engine plant user-identifying first-party
	// cookies on SERP visits — true only for Google and Bing (§4.1.1).
	StoresUserID bool
	// UIDCookies names the engine's identifier cookies (NID/AEC, MUID).
	UIDCookies []string
	// PrefCookies are constant, non-identifying first-party values
	// (client-side preferences, §4.1.1: private engines "did store
	// other values in first-party storage ... used for purposes other
	// than user identification").
	PrefCookies map[string]string
	// SessionCookie, when non-empty, is re-minted on every SERP visit —
	// the rotating value the §3.2 session filter must reject.
	SessionCookie string
}

// Engine is a running search engine bound to a platform, campaign pool,
// and redirector registry.
type Engine struct {
	Spec     Spec
	Platform *adtech.Platform
	Pool     *adtech.Pool

	// BouncePolicy governs UID-cookie behaviour of the engine's own
	// bounce endpoint (google.com identifies StartPage users in 100% of
	// cases, Table 4; the private engines' endpoints store nothing).
	BouncePolicy *adtech.Policy
	redirectors  *adtech.Registry

	// Beacons builds the engine's post-click beacon requests.
	Beacons func(e *Engine, query string, ad *adtech.AdClick, pos int) []netsim.Beacon

	seed detrand.Source
	// seq scopes identifier minting per requesting client so that values
	// depend only on (engine, client, serial) — never on how requests
	// from concurrently-crawled engines interleave.
	seq detrand.Seq

	// ads caches each campaign's adTemplate (*adtech.Campaign →
	// *adTemplate), filled on first render. It lives on the engine, not
	// the campaign: a blueprint's campaigns are shared by every world
	// instantiated from it. A campaign's fields must not change after
	// its first render on the engine.
	ads sync.Map

	// homeResources and serpResources are the pages' static
	// subresources, built once from Spec.Host and shared read-only by
	// every page the engine serves.
	homeResources, serpResources []netsim.ResourceRef
}

// NewEngine wires an engine from its parts.
func NewEngine(spec Spec, platform *adtech.Platform, pool *adtech.Pool, reg *adtech.Registry, seed detrand.Source) *Engine {
	static := "https://" + spec.Host + "/static/"
	return &Engine{
		Spec:        spec,
		Platform:    platform,
		Pool:        pool,
		redirectors: reg,
		seed:        seed.Derive("engine", spec.Name),
		homeResources: []netsim.ResourceRef{
			{URL: static + "app.js", Type: netsim.TypeScript},
		},
		serpResources: []netsim.ResourceRef{
			{URL: static + "serp.js", Type: netsim.TypeScript},
			{URL: static + "logo.png", Type: netsim.TypeImage},
		},
	}
}

// SearchURL returns the results-page URL for a query. Built with one
// strings.Builder pass instead of url.Values/URL.String: the crawler
// constructs one per SERP visit, and the url.Values detour was ~6
// allocations of pure ceremony for a three-part concatenation.
func (e *Engine) SearchURL(query string) string {
	var b strings.Builder
	b.Grow(len("https://") + len(e.Spec.Host) + len(e.Spec.SearchPath) + len(e.Spec.QueryParam) + 2 + len(query) + 8)
	b.WriteString("https://")
	b.WriteString(e.Spec.Host)
	b.WriteString(e.Spec.SearchPath)
	b.WriteByte('?')
	urlx.AppendQuery(&b, e.Spec.QueryParam, query)
	return b.String()
}

// Register installs the engine's hosts on the network.
func (e *Engine) Register(net *netsim.Network) {
	net.HandleSite(urlx.RegistrableDomain(e.Spec.Host), netsim.HandlerFunc(e.serve))
	for _, h := range e.Spec.ExtraHosts {
		net.Handle(h, netsim.HandlerFunc(e.serve))
	}
}

// mint returns a fresh identifier for the requesting client. The stream
// is keyed by (engine seed, label, client, per-client serial): requests
// from one client are strictly ordered, so the value is a pure function
// of the crawl configuration regardless of cross-client scheduling.
func (e *Engine) mint(label, client string) string {
	n := e.seq.Next(client)
	return e.seed.Derive(label, client).DeriveN("n", n).Token(24, detrand.AlphaNumDash)
}

// serve dispatches the engine's endpoints.
func (e *Engine) serve(req *netsim.Request) *netsim.Response {
	path := req.URL.Path
	switch {
	case e.Spec.BouncePath != "" && path == e.Spec.BouncePath:
		return e.bounce(req)
	case e.Platform != nil && req.URL.Host == e.Platform.ClickHost && path == e.Platform.ClickPath:
		// Microsoft serves ad clicks from the engine's own domain
		// (bing.com/aclk); Google's click host is registered separately.
		return e.platformBounce(req)
	case strings.HasPrefix(path, "/beacon") || isBeaconPath(path):
		return e.beaconSink(req)
	case path == "/ads-frame":
		return e.adsFrame(req)
	case path == e.Spec.SearchPath:
		return e.serveSERP(req)
	case path == "/" && e.Spec.SearchPath != "/":
		return e.serveHome(req)
	case strings.HasPrefix(path, "/static/"):
		return netsim.NewResponse(http.StatusOK)
	default:
		return netsim.NewResponse(http.StatusNotFound)
	}
}

// isBeaconPath recognises the engines' real post-click endpoints.
func isBeaconPath(path string) bool {
	switch path {
	case "/fd/ls/GLinkPingPost.aspx", // Bing
		"/gen_204",           // Google
		"/t/ad_click",        // improving.duckduckgo.com
		"/action/click_serp", // Qwant
		"/sp/cl":             // StartPage
		return true
	}
	return false
}

func (e *Engine) beaconSink(req *netsim.Request) *netsim.Response {
	return netsim.NewResponse(http.StatusNoContent)
}

// bounce serves the engine's own click-bounce endpoint.
func (e *Engine) bounce(req *netsim.Request) *netsim.Response {
	policy := e.BouncePolicy
	if policy == nil {
		policy = &adtech.Policy{Host: req.URL.Host}
	}
	return e.redirectors.Bounce(policy, req)
}

// platformBounce serves the ad platform's click endpoint when it lives on
// the engine's own domain (bing.com/aclk). Bing's click server stores
// user-identifying cookies (Table 4: bing.com identifies >95% of
// DuckDuckGo users).
func (e *Engine) platformBounce(req *netsim.Request) *netsim.Response {
	policy := e.BouncePolicy
	if policy == nil {
		policy = &adtech.Policy{Host: req.URL.Host}
	}
	return e.redirectors.Bounce(policy, req)
}

// serveHome serves the engine's landing page with a search form.
func (e *Engine) serveHome(req *netsim.Request) *netsim.Response {
	resp := netsim.NewResponse(http.StatusOK)
	resp.Page = &netsim.Page{
		Title: e.Spec.Name,
		Root: netsim.NewElement("div").Append(
			netsim.NewElement("form", "action", e.Spec.SearchPath, "id", "search-form"),
		),
		Resources: e.homeResources,
	}
	e.applyStorage(req, resp)
	return resp
}

// applyStorage sets the engine's first-party cookies: identifier cookies
// for Google/Bing (§4.1.1), constant preference values for the private
// engines, and rotating session values where configured.
func (e *Engine) applyStorage(req *netsim.Request, resp *netsim.Response) {
	if e.Spec.StoresUserID {
		for _, name := range e.Spec.UIDCookies {
			if _, ok := req.Cookie(name); ok {
				continue // identifier persists across visits
			}
			c := netsim.NewCookie(name, e.mint("uid/"+name, req.Client))
			c.WithDomain(urlx.RegistrableDomain(e.Spec.Host))
			c.Expires = req.Time.Add(180 * 24 * time.Hour)
			resp.AddCookie(c)
		}
	}
	for name, value := range e.Spec.PrefCookies {
		if _, ok := req.Cookie(name); !ok {
			c := netsim.NewCookie(name, value)
			c.Expires = req.Time.Add(365 * 24 * time.Hour)
			resp.AddCookie(c)
		}
	}
	if e.Spec.SessionCookie != "" {
		// Re-minted every visit: a value that changes on the next-day
		// revisit and must be filtered as a session identifier.
		c := netsim.NewCookie(e.Spec.SessionCookie, e.mint("sess", req.Client))
		resp.AddCookie(c)
	}
}

// botDetected implements the server-side arms race against naive
// headless crawlers; the paper needed puppeteer-extra-plugin-stealth to
// avoid this. Detected bots receive a SERP without ads.
func botDetected(req *netsim.Request) bool {
	if req.Header.Get("X-Headless") == "1" || req.Header.Get("X-Webdriver") == "1" {
		return true
	}
	return strings.Contains(req.Header.Get("User-Agent"), "HeadlessChrome")
}

// serveSERP renders the results page: organic results plus AdsPerSERP
// ads from the engine's platform pool.
func (e *Engine) serveSERP(req *netsim.Request) *netsim.Response {
	query := req.Query(e.Spec.QueryParam)
	resp := netsim.NewResponse(http.StatusOK)
	root := netsim.NewElement("div", "id", "serp")
	root.Append(organicsBlock())

	page := &netsim.Page{
		Title:     query + " - " + e.Spec.Name,
		Root:      root,
		Resources: e.serpResources,
	}

	if !botDetected(req) {
		if e.Spec.AdsInFrame {
			var f strings.Builder
			f.Grow(len("https://") + len(e.Spec.Host) + len("/ads-frame?") + len(e.Spec.QueryParam) + 1 + len(query) + 8)
			f.WriteString("https://")
			f.WriteString(e.Spec.Host)
			f.WriteString("/ads-frame?")
			urlx.AppendQuery(&f, e.Spec.QueryParam, query)
			page.Frames = append(page.Frames, f.String())
		} else {
			root.Append(e.renderAds(query, req.Client))
		}
	}
	resp.Page = page
	e.applyStorage(req, resp)
	return resp
}

// adsFrame serves the iframe-hosted ad block.
func (e *Engine) adsFrame(req *netsim.Request) *netsim.Response {
	query := req.Query(e.Spec.QueryParam)
	resp := netsim.NewResponse(http.StatusOK)
	if botDetected(req) {
		resp.Page = &netsim.Page{Root: netsim.NewElement("div")}
		return resp
	}
	resp.Page = &netsim.Page{Root: e.renderAds(query, req.Client)}
	return resp
}

// organicHrefs are the constant organic-result links shared by every
// SERP render.
var organicHrefs = func() [8]string {
	var hrefs [8]string
	for i := range hrefs {
		hrefs[i] = "https://organic-" + strconv.Itoa(i) + ".example/result"
	}
	return hrefs
}()

// organicsScaffold is the storage of one page's organic-results block:
// the container and its links, the container's child list, and every
// element's attributes (the container's id pair, then href and
// data-organic per link).
type organicsScaffold struct {
	els  [1 + len(organicHrefs)]netsim.Element
	kids [len(organicHrefs)]*netsim.Element
	kv   [2 + 4*len(organicHrefs)]string
}

// organicsBlock builds a fresh organic-results block (plain links,
// never to trackers, §4.1.2) in one allocation. Served DOM is mutable —
// scripts decorate links in place with SetAttr — so nothing is shared
// between pages, and each element's attributes are capped so that an
// appended attribute cannot spill into its neighbour's.
func organicsBlock() *netsim.Element {
	s := new(organicsScaffold)
	s.kv[0], s.kv[1] = "id", "organic"
	s.els[0] = netsim.MakeElement("div", s.kv[0:2:2]...)
	for i, href := range organicHrefs {
		kv := s.kv[2+4*i : 6+4*i : 6+4*i]
		kv[0], kv[1], kv[2], kv[3] = "href", href, "data-organic", "1"
		s.els[1+i] = netsim.MakeElement("a", kv...)
		s.kids[i] = &s.els[1+i]
	}
	s.els[0].Children = s.kids[:]
	return &s.els[0]
}

// adsScaffold is the storage of one page's ad block: the container and
// its ads, the container's child list, and every element's attributes
// (the container's id and title pairs, then href, data-landing, data-ad
// and data-pos per ad).
type adsScaffold struct {
	els  [1 + AdsPerSERP]netsim.Element
	kids [AdsPerSERP]*netsim.Element
	kv   [4 + 8*AdsPerSERP]string
}

// adTemplate is what every ad of one campaign shares on one engine: the
// href's chain template, the engine's bounce wrap included, and the
// landing domain the ad element carries.
type adTemplate struct {
	href   adtech.ChainTemplate
	domain string
	text   string // "Ad · " + domain
}

// adTemplateFor returns c's ad template on e, building it on first use.
// The href chain enters the engine's own bounce endpoint (if it wraps
// its ads), then the engine-specific upstream hops, the platform click
// server and the campaign's ad-tech stack. DirectFromEngine campaigns
// skip the platform click server entirely (the "qwant.com -
// destination" and "startpage.com - google.com - destination" paths of
// Table 2). The template is a pure function of e's Spec, its platform's
// click host and c's fields, so concurrent first uses store equal
// values; none of those may change once c has been rendered.
func (e *Engine) adTemplateFor(c *adtech.Campaign) *adTemplate {
	if t, ok := e.ads.Load(c); ok {
		return t.(*adTemplate)
	}
	var buf [8]string
	hops := append(buf[:0], e.Spec.UpstreamHops...)
	if !c.DirectFromEngine {
		hops = append(hops, e.Platform.ClickHost)
	}
	hops = append(hops, c.Stack...)
	href := adtech.NewChainTemplate(hops)
	if e.Spec.WrapOwnAds && e.Spec.BouncePath != "" {
		host := e.Spec.BounceHost
		if host == "" {
			host = e.Spec.Host
		}
		// The engine's own bounce endpoint wraps the chain; its path
		// comes from the Spec, so custom engines work without a
		// hopPaths entry.
		href = href.Wrap(host, e.Spec.BouncePath)
	}
	domain := c.LandingDomain()
	t := &adTemplate{href: href, domain: domain, text: "Ad · " + domain}
	e.ads.Store(c, t)
	return t
}

// renderAds builds the ads container in one allocation (beside each
// ad's click, href and beacons). Every ad element carries the landing
// domain ("The landing domains are included within the HTML objects of
// the advertisements on all search engines", §3.1). Scripts decorate
// ad links in place with SetAttr, so each element's attributes are
// capped, as in organicsBlock.
func (e *Engine) renderAds(query, client string) *netsim.Element {
	title := e.Spec.AdContainerTitle
	if title == "" {
		title = "Ads"
	}
	if e.Pool == nil || e.Platform == nil {
		return netsim.NewElement("div", "id", "ads", "title", title)
	}
	var buf [128]*adtech.Campaign // above every calibrated pool size
	campaigns := e.Pool.Select(buf[:0], query, AdsPerSERP, e.seed)
	s := new(adsScaffold)
	s.kv[0], s.kv[1], s.kv[2], s.kv[3] = "id", "ads", "title", title
	s.els[0] = netsim.MakeElement("div", s.kv[0:4:4]...)
	for pos, c := range campaigns {
		t := e.adTemplateFor(c)
		click := e.Platform.BuildClick(c, client)
		kv := s.kv[4+8*pos : 12+8*pos : 12+8*pos]
		kv[0], kv[1] = "href", t.href.Render(click.Landing)
		kv[2], kv[3] = "data-landing", t.domain
		kv[4], kv[5] = "data-ad", "1"
		kv[6], kv[7] = "data-pos", strconv.Itoa(pos+1)
		el := &s.els[1+pos]
		*el = netsim.MakeElement("a", kv...)
		el.Text = t.text
		if e.Beacons != nil {
			el.OnClick = e.Beacons(e, query, click, pos+1)
		}
		s.kids[pos] = el
	}
	s.els[0].Children = s.kids[:len(campaigns)]
	return &s.els[0]
}
