package serp

import (
	"net/http"
	"strconv"
	"strings"

	"searchads/internal/adtech"
	"searchads/internal/netsim"
	"searchads/internal/urlx"
)

// Engine names used across the module. The order matches the paper's
// tables (traditional engines first).
const (
	Bing       = "bing"
	Google     = "google"
	DuckDuckGo = "duckduckgo"
	StartPage  = "startpage"
	Qwant      = "qwant"
)

// AllEngineNames lists the five engines in table order.
func AllEngineNames() []string {
	return []string{Bing, Google, DuckDuckGo, StartPage, Qwant}
}

// BingSpec describes bing.com. Bing stores the MUID identifier ("a
// cookie identifying unique web browsers visiting Microsoft sites") and
// pings GLinkPingPost.aspx on every ad click with the destination URL.
func BingSpec() Spec {
	return Spec{
		Name:         Bing,
		Host:         "www.bing.com",
		SearchPath:   "/search",
		QueryParam:   "q",
		StoresUserID: true,
		UIDCookies:   []string{"MUID"},
		PrefCookies: map[string]string{
			"SRCHD":  "AF=NOFORM",
			"SRCHHP": "CW=1920&CH=1080",
		},
		SessionCookie: "_EDGE_S",
	}
}

// GoogleSpec describes google.com. Google stores NID and AEC identifier
// cookies and POSTs to /gen_204 on ad clicks.
func GoogleSpec() Spec {
	return Spec{
		Name:         Google,
		Host:         "www.google.com",
		SearchPath:   "/search",
		QueryParam:   "q",
		StoresUserID: true,
		UIDCookies:   []string{"NID", "AEC"},
		// google.com/aclk serves StartPage's upstream hop; Google's own
		// ads link straight to googleadservices.com (WrapOwnAds false).
		BouncePath: "/aclk",
		PrefCookies: map[string]string{
			"CONSENT": "YES+cb.20220901-07-p0.en+FX",
		},
		SessionCookie: "1P_JAR",
	}
}

// DuckDuckGoSpec describes duckduckgo.com. Ads are Microsoft's; clicks
// route through duckduckgo.com/y.js before Bing's click server, and the
// engine beacons to improving.duckduckgo.com. No identifier cookies.
func DuckDuckGoSpec() Spec {
	return Spec{
		Name:       DuckDuckGo,
		Host:       "duckduckgo.com",
		ExtraHosts: []string{"improving.duckduckgo.com"},
		SearchPath: "/",
		QueryParam: "q",
		BouncePath: "/y.js",
		WrapOwnAds: true,
		PrefCookies: map[string]string{
			"ah": "us-en",
			"l":  "us-en",
		},
	}
}

// StartPageSpec describes startpage.com. Ads are Google's, rendered
// inside a container titled "Sponsored Links"; clicks route through
// startpage.com then google.com before googleadservices.com; the engine
// beacons to /sp/cl with the ad position only.
func StartPageSpec() Spec {
	return Spec{
		Name:             StartPage,
		Host:             "www.startpage.com",
		SearchPath:       "/do/search",
		QueryParam:       "query",
		AdContainerTitle: "Sponsored Links",
		BouncePath:       "/do/clickthrough",
		WrapOwnAds:       true,
		// StartPage clicks route through google.com before reaching
		// googleadservices.com (Table 2: "startpage.com - google.com -
		// googleadservices.com - destination", 73%).
		UpstreamHops: []string{"www.google.com"},
		PrefCookies: map[string]string{
			"preferences": "lang=en&theme=air",
		},
	}
}

// QwantSpec describes qwant.com. Ads are Microsoft's, loaded through an
// iframe; clicks beacon to /action/click_serp and route through
// api.qwant.com/v3/redirect.
func QwantSpec() Spec {
	return Spec{
		Name:       Qwant,
		Host:       "www.qwant.com",
		ExtraHosts: []string{"api.qwant.com"},
		SearchPath: "/",
		QueryParam: "q",
		AdsInFrame: true,
		BouncePath: "/v3/redirect",
		BounceHost: "api.qwant.com",
		WrapOwnAds: true,
		PrefCookies: map[string]string{
			"didomi_cookie": "consent-accept-all",
		},
	}
}

// beaconURL builds an engine beacon URL from ordered key/value pairs in
// one builder pass (beacons are constructed for every rendered ad, and
// the url.Values detour sorted a map it had just built). Pairs are
// written in sorted key order to keep the output identical to the old
// Values.Encode rendering.
func beaconURL(host, path string, pairs ...string) string {
	n := len("https://") + len(host) + len(path)
	for i := 0; i+1 < len(pairs); i += 2 {
		n += 1 + urlx.QueryEscapeLen(pairs[i]) + 1 + urlx.QueryEscapeLen(pairs[i+1])
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString("https://")
	b.WriteString(host)
	b.WriteString(path)
	sep := byte('?')
	for i := 0; i+1 < len(pairs); i += 2 {
		b.WriteByte(sep)
		sep = '&'
		urlx.AppendQuery(&b, pairs[i], pairs[i+1])
	}
	return b.String()
}

// BingBeacons reproduces §4.2.1: "clicking caused a request to be sent
// to https://bing.com/fd/ls/GLinkPingPost.aspx ... include[ing] several
// query parameters, including the clicked ads' destination websites."
// The MUID identifier travels as a cookie on this first-party request.
func BingBeacons(e *Engine, query string, ad *adtech.AdClick, pos int) []netsim.Beacon {
	return []netsim.Beacon{{
		Method: http.MethodPost,
		URL: beaconURL(e.Spec.Host, "/fd/ls/GLinkPingPost.aspx",
			"pos", strconv.Itoa(pos), "q", query, "url", ad.Landing),
		Type: netsim.TypePing,
	}}
}

// GoogleBeacons reproduces "the browser sends POST web requests to
// https://google.com/gen_204". NID/AEC ride along as cookies.
func GoogleBeacons(e *Engine, query string, ad *adtech.AdClick, pos int) []netsim.Beacon {
	return []netsim.Beacon{{
		Method: http.MethodPost,
		URL: beaconURL(e.Spec.Host, "/gen_204",
			"label", "ad_click", "pos", strconv.Itoa(pos)),
		Type: netsim.TypePing,
	}}
}

// DuckDuckGoBeacons reproduces the improving.duckduckgo.com request with
// "the search query, the ad provider (Bing in all cases), and the
// destination URL of the clicked ad". No user identifiers.
func DuckDuckGoBeacons(e *Engine, query string, ad *adtech.AdClick, pos int) []netsim.Beacon {
	return []netsim.Beacon{{
		Method: http.MethodGet,
		URL: beaconURL("improving.duckduckgo.com", "/t/ad_click",
			"ad_provider", "bing", "du", ad.Landing, "q", query),
		Type: netsim.TypePing,
	}}
}

// StartPageBeacons reproduces the /sp/cl request that "includes
// information about the position of the clicked ad on the results page,
// but does not include the ad's destination URL".
func StartPageBeacons(e *Engine, query string, ad *adtech.AdClick, pos int) []netsim.Beacon {
	return []netsim.Beacon{{
		Method: http.MethodGet,
		URL:    beaconURL(e.Spec.Host, "/sp/cl", "pos", strconv.Itoa(pos)),
		Type:   netsim.TypePing,
	}}
}

// QwantBeacons reproduces the click_serp request with "information about
// the user's browser, such as the type of the device and the browser
// language, along with the search query ... [and] information on the
// clicked ad (e.g., its position on the results page and the destination
// website)".
func QwantBeacons(e *Engine, query string, ad *adtech.AdClick, pos int) []netsim.Beacon {
	return []netsim.Beacon{{
		Method: http.MethodPost,
		URL: beaconURL(e.Spec.Host, "/action/click_serp",
			"device", "desktop", "locale", "en_US", "position", strconv.Itoa(pos),
			"q", query, "url", ad.Landing),
		Type: netsim.TypePing,
	}}
}

// BeaconsFor returns the beacon builder for an engine name.
func BeaconsFor(name string) func(*Engine, string, *adtech.AdClick, int) []netsim.Beacon {
	switch name {
	case Bing:
		return BingBeacons
	case Google:
		return GoogleBeacons
	case DuckDuckGo:
		return DuckDuckGoBeacons
	case StartPage:
		return StartPageBeacons
	case Qwant:
		return QwantBeacons
	}
	return nil
}

// SpecFor returns the Spec for an engine name.
func SpecFor(name string) Spec {
	switch name {
	case Bing:
		return BingSpec()
	case Google:
		return GoogleSpec()
	case DuckDuckGo:
		return DuckDuckGoSpec()
	case StartPage:
		return StartPageSpec()
	case Qwant:
		return QwantSpec()
	}
	return Spec{Name: name}
}

// FindAds scrapes the ads from a rendered SERP the way the paper's
// crawler does: engine-specific HTML techniques (§3.1) — hyperlink
// values for Google ("they all link to 'www.googleadservices.com/*'"),
// the "Sponsored Links" container for StartPage, and ad-marker
// attributes elsewhere.
func FindAds(engineName string, page *netsim.Page) []*netsim.Element {
	if page == nil || page.Root == nil {
		return nil
	}
	switch engineName {
	case Google:
		ads := page.Root.HrefsMatching("googleadservices.com")
		if len(ads) > 0 {
			return ads
		}
	case StartPage:
		container := page.Root.Find(func(el *netsim.Element) bool {
			return el.Attr("title") == "Sponsored Links"
		})
		if container != nil {
			return container.FindAll(func(el *netsim.Element) bool {
				return el.Tag == "a" && el.Attr("href") != ""
			})
		}
	}
	return page.Root.FindAll(func(el *netsim.Element) bool {
		return el.Tag == "a" && el.Attr("data-ad") == "1"
	})
}
