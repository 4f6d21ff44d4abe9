// Package adtech implements the advertising-system side of the simulated
// web: the two ad platforms the paper's search engines rely on (Google
// Ads and Microsoft Advertising), click-URL construction, click-ID
// minting (GCLID / MSCLKID), campaign ad-tech stacks, and the redirector
// services users bounce through (§2.2.2, Tables 2, 4, 7).
package adtech

import (
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"searchads/internal/detrand"
	"searchads/internal/netsim"
	"searchads/internal/urlx"
)

// NextParam is the query parameter carrying the next hop of a redirect
// chain. Real ad-tech uses many names (ds_dest_url, u, url, ...); the
// simulated services standardise on one, with per-host aliases preserved
// for realism in BuildChain.
const NextParam = "next"

// Policy describes one redirector service's behaviour during a bounce.
type Policy struct {
	// Host is the exact hostname (or registrable domain when Wildcard)
	// the service answers on.
	Host string
	// Wildcard registers the whole eTLD+1 (xg4ken.com runs numbered
	// subdomains).
	Wildcard bool
	// Path is the bounce endpoint path.
	Path string
	// UIDCookieProb is the probability the service stores a
	// user-identifying first-party cookie during a bounce (Table 4).
	// Zero means the service never identifies users (e.g. dartsearch).
	UIDCookieProb float64
	// CookieName is the UID cookie's name.
	CookieName string
	// NonUIDCookie makes the service store a timestamp cookie when it
	// does not store a UID one — traffic-accounting state that the token
	// heuristics must reject.
	NonUIDCookie bool
	// ExtraDelay simulates slow fraud-scoring services.
	ExtraDelay time.Duration
	// SmuggleViaReferrer makes the service pass its identifier through
	// document.referrer instead of decorating the destination URL: it
	// first redirects to its own URL decorated with the identifier,
	// then JS-navigates to the destination, whose document.referrer now
	// carries the ID. The paper lists this technique as a limitation of
	// its query-parameter-only detection (§5); this implementation and
	// the matching analysis close that gap.
	SmuggleViaReferrer bool
}

// Registry owns every redirector service and serves their bounces.
type Registry struct {
	mu       sync.Mutex
	policies map[string]*Policy // by host (exact) or site (wildcard)
	seed     detrand.Source
	// seq scopes minting and bounce decisions per requesting client;
	// every redirector is shared by all engines' chains, so a global
	// counter would tie minted UIDs to cross-engine request interleaving.
	seq detrand.Seq
}

// NewRegistry returns a registry minting identifiers from seed.
func NewRegistry(seed detrand.Source) *Registry {
	return &Registry{
		policies: make(map[string]*Policy),
		seed:     seed.Derive("redirectors"),
	}
}

// Add registers a policy. Adding a second policy for the same host
// replaces the first.
func (r *Registry) Add(p *Policy) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if p.Path == "" {
		p.Path = "/redirect"
	}
	if p.CookieName == "" {
		p.CookieName = "uid"
	}
	r.policies[p.Host] = p
}

// Policies returns all registered policies (indexed by host).
func (r *Registry) Policies() map[string]*Policy {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]*Policy, len(r.policies))
	for k, v := range r.policies {
		out[k] = v
	}
	return out
}

// Register installs every policy's handler on the network.
func (r *Registry) Register(net *netsim.Network) {
	for _, p := range r.Policies() {
		policy := p
		h := netsim.HandlerFunc(func(req *netsim.Request) *netsim.Response {
			return r.Bounce(policy, req)
		})
		if policy.Wildcard {
			net.HandleSite(policy.Host, h)
		} else {
			net.Handle(policy.Host, h)
		}
	}
}

// mintUID returns a fresh high-entropy identifier value, unique across
// the whole study and a pure function of (host, client, per-client
// serial) — one client's bounces are strictly ordered, so the value
// never depends on other clients' scheduling.
func (r *Registry) mintUID(host, client string) string {
	n := r.seq.Next(client)
	return r.seed.Derive("uid", host, client).DeriveN("n", n).Token(26, detrand.Base64URLLike)
}

// bounceDecision returns whether this bounce stores a UID cookie. The
// decision stream is derived per (host, client, serial) so it is
// deterministic under any crawl scheduling.
func (r *Registry) bounceDecision(host, client string, prob float64) bool {
	n := r.seq.Next(client)
	g := r.seed.Derive("decide", host, client).DeriveN("n", n).Rand()
	return detrand.Bernoulli(&g, prob)
}

// Bounce implements one redirect hop: read the next-hop parameter, apply
// the cookie policy, and 302 onward. Engines whose own domains double as
// redirectors (bing.com/aclk, google.com/aclk) call this directly from
// their handlers.
func (r *Registry) Bounce(p *Policy, req *netsim.Request) *netsim.Response {
	next := req.Query(NextParam)
	if next == "" {
		return netsim.NewResponse(http.StatusNotFound)
	}
	if p.SmuggleViaReferrer {
		return r.referrerBounce(p, req, next)
	}
	resp := netsim.Redirect(http.StatusFound, next)

	if _, already := req.Cookie(p.CookieName); already {
		// Returning visitor: the stored identifier is re-sent by the
		// browser; the service refreshes nothing and can link this
		// bounce to the previous ones (the privacy harm of §4.2.2).
		return resp
	}
	if p.UIDCookieProb > 0 && r.bounceDecision(p.Host, req.Client, p.UIDCookieProb) {
		c := netsim.NewCookie(p.CookieName, r.mintUID(p.Host, req.Client))
		c.SameSite = netsim.SameSiteNone
		c.Secure = true
		c.Expires = req.Time.Add(390 * 24 * time.Hour)
		resp.AddCookie(c)
	} else if p.NonUIDCookie {
		// Accounting cookie: a same-valued-across-users timestamp that
		// the §3.2 heuristics must discard.
		c := netsim.NewCookie("last_click", unixSeconds(req.Time))
		c.SameSite = netsim.SameSiteNone
		resp.AddCookie(c)
	}
	return resp
}

// referrerBounce implements the two-step referrer-smuggling hop: first a
// 302 onto the service's own URL decorated with the identifier, then a
// JS navigation to the destination, which observes the decorated URL as
// its document.referrer.
func (r *Registry) referrerBounce(p *Policy, req *netsim.Request, next string) *netsim.Response {
	uid := ""
	if c, ok := req.Cookie(p.CookieName); ok {
		uid = c.Value
	}
	if req.Query("ruid") == "" {
		// Step 1: decorate our own URL with the identifier.
		if uid == "" {
			uid = r.mintUID(p.Host, req.Client)
		}
		own := urlx.WithParams(req.URL, map[string]string{"ruid": uid})
		resp := netsim.Redirect(http.StatusFound, own.String())
		if _, already := req.Cookie(p.CookieName); !already {
			c := netsim.NewCookie(p.CookieName, uid)
			c.SameSite = netsim.SameSiteNone
			c.Secure = true
			c.Expires = req.Time.Add(390 * 24 * time.Hour)
			resp.AddCookie(c)
		}
		return resp
	}
	// Step 2: JS-navigate to the destination; document.referrer at the
	// destination becomes this decorated URL.
	resp := netsim.NewResponse(http.StatusOK)
	resp.Page = &netsim.Page{
		Title:      "redirecting",
		Root:       netsim.NewElement("div"),
		JSRedirect: next,
	}
	return resp
}

func unixSeconds(t time.Time) string {
	return strconv.FormatInt(t.Unix(), 10)
}

// hopPaths gives each well-known redirector its realistic endpoint path.
var hopPaths = map[string]string{
	"clickserve.dartsearch.net":        "/link/click",
	"ad.doubleclick.net":               "/ddm/clk",
	"pixel.everesttech.net":            "/cq",
	"xg4ken.com":                       "/media/redir.php",
	"t23.intelliad.de":                 "/index.php",
	"1045.netrk.net":                   "/rd",
	"monitor.clickcease.com":           "/tracker/tracker.aspx",
	"monitor.ppcprotect.com":           "/v1/track",
	"tpt.mediaplex.com":                "/click",
	"track.effiliation.com":            "/servlet/effi.redir",
	"click.linksynergy.com":            "/deeplink",
	"tracking.deepsearch.adlucent.com": "/redir",
	"t.myvisualiq.net":                 "/impression_pixel",
	"awin1.com":                        "/cread.php",
	"zenaps.com":                       "/rclick.php",
	"ad.atdmt.com":                     "/c/go",
	"googleadservices.com":             "/pagead/aclk",
	"www.googleadservices.com":         "/pagead/aclk",
	// Engine-owned bounce endpoints.
	"www.bing.com":      "/aclk",
	"www.google.com":    "/aclk",
	"duckduckgo.com":    "/y.js",
	"api.qwant.com":     "/v3/redirect",
	"www.startpage.com": "/do/clickthrough",
}

// HopPath returns the bounce endpoint path for a redirector host.
func HopPath(host string) string {
	if p, ok := hopPaths[host]; ok {
		return p
	}
	if p, ok := hopPaths[urlx.RegistrableDomain(host)]; ok {
		return p
	}
	return "/redirect"
}

// ChainTemplate is a redirect chain with its landing URL left open.
// Query escaping works byte by byte, so a chain of depth k through
// hops P1…Pk ("https://host/path?next=" each) is
// P1 + esc(P2) + … + esc^(k−1)(Pk) + esc^k(landing): a fixed prefix
// plus the landing escaped once per hop. A template holds that prefix
// and k; an engine builds one per campaign and renders each ad
// impression's decorated landing into it in one pass. The zero
// ChainTemplate has no hops and renders the landing itself.
type ChainTemplate struct {
	prefix string
	depth  int
}

// NewChainTemplate returns the template of the chain entering hops[0]
// and bouncing through each hop in order, each at its HopPath.
func NewChainTemplate(hops []string) ChainTemplate {
	var t ChainTemplate
	for i := len(hops) - 1; i >= 0; i-- {
		t = t.Wrap(hops[i], HopPath(hops[i]))
	}
	return t
}

// Wrap returns t with one more hop outside it: the chain now enters
// https://host+path and carries t's chain in its NextParam. path goes
// in verbatim, so it must be a plain path that needs no escaping.
func (t ChainTemplate) Wrap(host, path string) ChainTemplate {
	var b strings.Builder
	b.Grow(len("https://") + len(host) + len(path) + len("?"+NextParam+"=") + urlx.QueryEscapeLen(t.prefix))
	b.WriteString("https://")
	b.WriteString(host)
	b.WriteString(path)
	b.WriteString("?" + NextParam + "=")
	urlx.WriteQueryEscapeN(&b, t.prefix, 1)
	return ChainTemplate{prefix: b.String(), depth: t.depth + 1}
}

// Render returns the chain's URL for landing, written in one pass into
// one exactly sized string.
func (t ChainTemplate) Render(landing string) string {
	if t.depth == 0 {
		return landing
	}
	var b strings.Builder
	b.Grow(len(t.prefix) + urlx.QueryEscapeNLen(landing, t.depth))
	b.WriteString(t.prefix)
	urlx.WriteQueryEscapeN(&b, landing, t.depth)
	return b.String()
}

// BuildChain composes the nested bounce URL for a redirect chain: the
// returned URL enters hops[0]; each hop's NextParam carries the following
// hop; the innermost target is the landing URL. An empty hops slice
// returns the landing URL itself. Engines render their ads from
// per-campaign templates instead of rebuilding every chain.
func BuildChain(hops []string, landing string) string {
	return NewChainTemplate(hops).Render(landing)
}
