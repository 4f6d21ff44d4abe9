// Package advertiser implements the destination side of an ad click: the
// advertisers' landing sites and the third-party trackers they embed.
// The paper finds that "93% of ads destination pages ... included tracker
// and privacy-harming resources" (§4.3.1) and that advertisers persist
// the click IDs they receive in first-party storage (§4.3.2); both
// behaviours are produced here.
package advertiser

import (
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"

	"searchads/internal/detrand"
	"searchads/internal/netsim"
	"searchads/internal/urlx"
)

// Tracker is one third-party tracking service embedded on landing pages.
type Tracker struct {
	// Host serves the tracker's script and pixel.
	Host string
	// ScriptPath is the analytics script resource.
	ScriptPath string
	// PixelPath is the collection endpoint (image/XHR).
	PixelPath string
	// SetsFirstPartyCookie makes the script plant an ID in the embedding
	// page's first-party storage (the pattern of §6's "first-party
	// cookies set by third-party javascript").
	SetsFirstPartyCookie bool
	// FirstPartyCookieName is that cookie's name (e.g. "_ga").
	FirstPartyCookieName string
	// SetsThirdPartyCookie makes the pixel response carry a SameSite=None
	// identifier cookie under the tracker's own domain.
	SetsThirdPartyCookie bool
	// ReadsSmuggledUIDs makes the script read click-ID query parameters
	// (gclid, msclkid) off the landing URL and forward them on its
	// phone-home request — the "UID smuggling lets redirectors
	// aggregate activity on destination sites" behaviour of §4.3.
	ReadsSmuggledUIDs bool

	// urls holds the script and pixel URLs, built on first use and then
	// shared: a study's worlds share one tracker universe, and every
	// landing page and tracker script run needs the URLs. The fields
	// above must not change once a URL has been asked for.
	urls atomic.Pointer[trackerURLs]
}

// trackerURLs is a tracker's script and pixel URL.
type trackerURLs struct {
	script string
	pixel  urlx.URL
}

// builtURLs returns the tracker's URLs, building them on first use.
// Concurrent first uses build equal values; either may be kept.
func (t *Tracker) builtURLs() *trackerURLs {
	if u := t.urls.Load(); u != nil {
		return u
	}
	u := &trackerURLs{
		script: "https://" + t.Host + t.ScriptPath,
		pixel:  urlx.MustParse("https://" + t.Host + t.PixelPath),
	}
	t.urls.Store(u)
	return u
}

// ScriptURL returns the tracker's script resource URL.
func (t *Tracker) ScriptURL() string { return t.builtURLs().script }

// PixelURL returns the tracker's pixel URL.
func (t *Tracker) PixelURL() urlx.URL { return t.builtURLs().pixel }

// BuiltinTrackers returns the named tracker services of Table 5 (Google,
// Microsoft, Amazon, Facebook, Criteo properties).
func BuiltinTrackers() []*Tracker {
	return []*Tracker{
		{Host: "www.google-analytics.com", ScriptPath: "/analytics.js", PixelPath: "/collect",
			SetsFirstPartyCookie: true, FirstPartyCookieName: "_ga", ReadsSmuggledUIDs: true},
		{Host: "www.googletagmanager.com", ScriptPath: "/gtm.js", PixelPath: "/collect",
			SetsFirstPartyCookie: true, FirstPartyCookieName: "_gcl_au"},
		{Host: "stats.g.doubleclick.net", ScriptPath: "/dc.js", PixelPath: "/r/collect",
			SetsThirdPartyCookie: true},
		{Host: "pagead2.googlesyndication.com", ScriptPath: "/pagead/js/adsbygoogle.js", PixelPath: "/pagead/gen_204",
			SetsThirdPartyCookie: true},
		{Host: "bat.bing.com", ScriptPath: "/bat.js", PixelPath: "/action/0",
			SetsFirstPartyCookie: true, FirstPartyCookieName: "_uetvid", ReadsSmuggledUIDs: true},
		{Host: "www.clarity.ms", ScriptPath: "/tag/abc123", PixelPath: "/collect",
			SetsFirstPartyCookie: true, FirstPartyCookieName: "_clck"},
		{Host: "s.amazon-adsystem.com", ScriptPath: "/iu3", PixelPath: "/px",
			SetsThirdPartyCookie: true},
		{Host: "c.amazon-adsystem.com", ScriptPath: "/aax2/apstag.js", PixelPath: "/bh",
			SetsThirdPartyCookie: true},
		{Host: "connect.facebook.net", ScriptPath: "/en_US/fbevents.js", PixelPath: "/tr",
			SetsFirstPartyCookie: true, FirstPartyCookieName: "_fbp"},
		{Host: "dis.criteo.com", ScriptPath: "/dis/usersync.js", PixelPath: "/dis/dis.gif",
			SetsThirdPartyCookie: true},
		{Host: "sslwidget.criteo.com", ScriptPath: "/event", PixelPath: "/event.gif",
			SetsThirdPartyCookie: true},
	}
}

// unknownWords seed the minted long-tail tracker hostnames.
var unknownWords = []string{
	"metric", "pixel", "track", "stat", "beacon", "quant", "tag", "session",
	"heat", "funnel", "count", "audience", "vector", "signal", "panel",
	"scope", "pulse", "lens", "orbit", "prism",
}

// MintUnknownTrackers generates n long-tail tracker services on
// *.example domains. Their hostnames follow the "-analytics." pattern
// and their endpoints use /pixel and /collect paths, so the embedded
// generic EasyPrivacy rules detect them while the entity list does not —
// they form the "unknown" rows of Tables 3 and 5.
func MintUnknownTrackers(seed detrand.Source, n int) []*Tracker {
	g := seed.Derive("unknown-trackers").Rand()
	r := &g
	out := make([]*Tracker, 0, n)
	used := make(map[string]bool, n)
	for i := 0; i < n; i++ {
		w1 := unknownWords[r.Intn(len(unknownWords))]
		w2 := unknownWords[r.Intn(len(unknownWords))]
		host := w1 + w2 + "-analytics.example"
		if i%3 == 0 {
			host = "cdn." + host
		}
		for used[host] {
			host = w1 + w2 + strconv.Itoa(r.Intn(10000)) + "-analytics.example"
		}
		used[host] = true
		out = append(out, &Tracker{
			Host:                 host,
			ScriptPath:           "/a.js",
			PixelPath:            "/pixel",
			SetsFirstPartyCookie: i%2 == 0,
			FirstPartyCookieName: "_" + w1 + "id",
			SetsThirdPartyCookie: i%2 == 1,
			ReadsSmuggledUIDs:    i%5 == 0,
		})
	}
	return out
}

// TrackerRegistry serves every tracker host and mints their identifiers.
type TrackerRegistry struct {
	trackers map[string]*Tracker
	seed     detrand.Source
	// seq scopes minting per requesting client (trackers are embedded on
	// every engine's destinations, so a global counter would tie minted
	// IDs to cross-engine request interleaving).
	seq detrand.Seq
}

// NewTrackerRegistry builds a registry over the given trackers.
func NewTrackerRegistry(seed detrand.Source, trackers []*Tracker) *TrackerRegistry {
	reg := &TrackerRegistry{
		trackers: make(map[string]*Tracker, len(trackers)),
		seed:     seed.Derive("trackers"),
	}
	for _, t := range trackers {
		reg.trackers[t.Host] = t
	}
	return reg
}

// Register installs all tracker hosts on the network, building each
// tracker's script program once for every response that serves it.
func (reg *TrackerRegistry) Register(net *netsim.Network) {
	for host, t := range reg.trackers {
		script := reg.scriptFor(t)
		net.Handle(host, netsim.HandlerFunc(func(req *netsim.Request) *netsim.Response {
			return reg.serve(t, script, req)
		}))
	}
}

// Lookup returns the tracker for a host.
func (reg *TrackerRegistry) Lookup(host string) (*Tracker, bool) {
	t, ok := reg.trackers[host]
	return t, ok
}

func (reg *TrackerRegistry) mint(label, client string) string {
	n := reg.seq.Next(client)
	return reg.seed.Derive(label, client).DeriveN("n", n).Token(22, detrand.AlphaNum)
}

func (reg *TrackerRegistry) serve(t *Tracker, script netsim.ScriptProgram, req *netsim.Request) *netsim.Response {
	resp := netsim.NewResponse(http.StatusOK)
	switch {
	case strings.HasPrefix(req.URL.Path, t.ScriptPath):
		resp.Script = script
	case strings.HasPrefix(req.URL.Path, t.PixelPath):
		if t.SetsThirdPartyCookie {
			if _, already := req.Cookie("tuid"); !already {
				c := netsim.NewCookie("tuid", reg.mint("3p/"+t.Host, req.Client))
				c.SameSite = netsim.SameSiteNone
				c.Secure = true
				resp.AddCookie(c)
			}
		}
		resp.Body = "GIF89a"
	}
	return resp
}

// scriptFor returns the tracker script's behaviour: plant a first-party
// ID, read smuggled click IDs, and phone home with a pixel request.
func (reg *TrackerRegistry) scriptFor(t *Tracker) netsim.ScriptProgram {
	return netsim.ScriptFunc(func(env netsim.ScriptEnv) {
		if t.SetsFirstPartyCookie {
			name := t.FirstPartyCookieName
			if _, exists := findCookie(env.DocumentCookies(), name); !exists {
				env.SetDocumentCookie(netsim.NewCookie(name, reg.mint("fp/"+t.Host, env.Client())))
			}
		}
		// Phone home: the collection request the filter lists catch.
		page := env.PageURL()
		var buf [6]string
		kv := append(buf[:0], "dl", page.Host)
		if t.ReadsSmuggledUIDs {
			// Forward smuggled click IDs so the tracker can join the
			// destination visit to the click (§4.3: "redirectors can
			// aggregate users' activity on ads destination websites").
			for _, param := range []string{"gclid", "msclkid"} {
				if v, ok := urlx.Param(page, param); ok {
					kv = append(kv, param, v)
				}
			}
		}
		env.Fetch(http.MethodGet, urlx.Decorate(t.PixelURL(), kv...), netsim.TypeImage, "")
	})
}

func findCookie(cs []*netsim.Cookie, name string) (*netsim.Cookie, bool) {
	for _, c := range cs {
		if c.Name == name {
			return c, true
		}
	}
	return nil, false
}
