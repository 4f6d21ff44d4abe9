package browser

import (
	"net/http"
	"time"

	"searchads/internal/netsim"
	"searchads/internal/urlx"
)

// scriptEnv implements netsim.ScriptEnv for scripts executing in a page.
// It gives a script exactly the powers a third-party script has in a real
// browser: first-party storage of the *including* page, its own network
// requests, link decoration, and navigation.
type scriptEnv struct {
	b          *Browser
	page       *netsim.Page
	pageURL    urlx.URL
	firstParty string
	// srcHost is the host the running script was served from.
	srcHost string
}

var _ netsim.ScriptEnv = (*scriptEnv)(nil)

func (e *scriptEnv) PageURL() urlx.URL  { return e.pageURL }
func (e *scriptEnv) FirstParty() string { return e.firstParty }
func (e *scriptEnv) Referrer() string   { return e.b.docReferrer }
func (e *scriptEnv) Now() time.Time     { return e.b.clock.Now() }
func (e *scriptEnv) Client() string     { return e.b.opts.Client }

// SetDocumentCookie writes a cookie through document.cookie: the cookie
// belongs to the page's origin, regardless of where the script came from
// — how trackers plant first-party cookies ("first-party cookies set by
// third-party javascript", §6).
func (e *scriptEnv) SetDocumentCookie(c *netsim.Cookie) {
	if c == nil {
		return
	}
	c.HTTPOnly = false // document.cookie cannot set HttpOnly
	e.b.jar.SetCookies(e.Now(), e.pageURL, e.firstParty, []*netsim.Cookie{c})
}

// DocumentCookies lists the cookies visible to the page document. The
// list comes from the browser's cookie slab: it is read-only and valid
// until the browser is Reset.
func (e *scriptEnv) DocumentCookies() []*netsim.Cookie {
	return e.b.cookiesFor(e.Now(), e.pageURL, e.firstParty, false)
}

// LocalStorageSet writes to the page origin's storage area.
func (e *scriptEnv) LocalStorageSet(key, value string) {
	origin := e.pageURL.Scheme + "://" + e.pageURL.Host
	e.b.local.Set(e.firstParty, origin, key, value)
}

// LocalStorageGet reads from the page origin's storage area.
func (e *scriptEnv) LocalStorageGet(key string) (string, bool) {
	origin := e.pageURL.Scheme + "://" + e.pageURL.Host
	return e.b.local.Get(e.firstParty, origin, key)
}

// Fetch issues a network request on behalf of the script. Response
// cookies are processed under the current first party, i.e. as
// third-party cookies when the script's server is cross-site.
func (e *scriptEnv) Fetch(method string, u urlx.URL, typ netsim.ResourceType, body string) {
	if u.IsZero() {
		return
	}
	if method == "" {
		method = http.MethodGet
	}
	if typ == "" {
		typ = netsim.TypeXHR
	}
	req := e.b.newRequest()
	*req = netsim.Request{
		Method:     method,
		URL:        u,
		Type:       typ,
		FirstParty: e.firstParty,
		Initiator:  "script:" + e.srcHost,
		Body:       body,
	}
	e.b.send(req, false)
}

// DecorateLinks rewrites anchor hrefs through fn — the URL-decoration
// primitive of UID smuggling (§2.2.2). Each href is resolved against
// the page URL first.
func (e *scriptEnv) DecorateLinks(fn func(href urlx.URL) urlx.URL) {
	if e.page == nil || e.page.Root == nil || fn == nil {
		return
	}
	e.page.Root.Walk(func(el *netsim.Element) bool {
		if el.Tag != "a" {
			return true
		}
		raw := el.Attr("href")
		if raw == "" {
			return true
		}
		u, err := urlx.Resolve(e.pageURL, raw)
		if err != nil {
			return true
		}
		if replacement := fn(u); !replacement.IsZero() {
			el.SetAttr("href", replacement.String())
		}
		return true
	})
}

// Redirect schedules a top-level JS navigation, applied when the page
// finishes loading.
func (e *scriptEnv) Redirect(to string) {
	e.b.pendingRedirect = to
}
