// Package storage implements browser-side state: a cookie jar supporting
// both flat and partitioned storage (the two models the paper contrasts in
// §2.2.1 and Figure 1) and per-origin localStorage.
//
// In flat mode all cookies live in one namespace, so a tracker reads the
// same cookie regardless of which top-level site embedded it — classic
// cross-site tracking. In partitioned mode the jar key is extended with
// the top-level site ("a hierarchical namespace where a tracker accesses a
// different storage area on each website that loads it"), which defeats
// third-party-cookie tracking but, as the paper shows, not navigational
// tracking: a redirector is first-party during the bounce and reads its
// own partition.
package storage

import (
	"cmp"
	"slices"
	"strings"
	"time"

	"searchads/internal/netsim"
	"searchads/internal/urlx"
)

// Mode selects the jar's storage model.
type Mode int

// Storage models.
const (
	// Flat is a single shared cookie namespace (Chrome's default at the
	// time of the study).
	Flat Mode = iota
	// Partitioned keys third-party cookies by top-level site (Safari,
	// Firefox, Brave).
	Partitioned
)

func (m Mode) String() string {
	if m == Partitioned {
		return "partitioned"
	}
	return "flat"
}

// StoredCookie is a cookie at rest, annotated with the partition it lives
// in. PartitionKey is "" in the unpartitioned (first-party keyed by
// nothing) store.
type StoredCookie struct {
	PartitionKey string // top-level site, or "" for the flat store
	Domain       string // cookie's domain (host for host-only cookies)
	HostOnly     bool
	Path         string
	Name         string
	Value        string
	Expires      time.Time // zero = session cookie
	Secure       bool
	HTTPOnly     bool
	SameSite     netsim.SameSiteMode
	Created      time.Time
}

// key identifies a cookie for replacement purposes (RFC 6265 §5.3 step 11:
// same name, domain, path).
type cookieKey struct {
	partition string
	domain    string
	path      string
	name      string
}

// jarEntry is one stored cookie together with its request-side form:
// the name/value cookie Cookies and AppendCookies hand out, built once
// when the cookie is stored. An entry is never modified after it is
// stored; replacing or expiring the cookie drops the entry from the map,
// so a request-side cookie handed out earlier keeps its name and value.
type jarEntry struct {
	StoredCookie
	wire netsim.Cookie
}

// Jar is a cookie store. The zero value is not usable; construct with
// NewJar.
type Jar struct {
	mode    Mode
	cookies map[cookieKey]*jarEntry
}

// NewJar returns an empty jar in the given mode.
func NewJar(mode Mode) *Jar {
	return &Jar{mode: mode, cookies: make(map[cookieKey]*jarEntry)}
}

// Mode returns the jar's storage model.
func (j *Jar) Mode() Mode { return j.mode }

// partitionFor computes the storage partition for a cookie set in a
// context where the top-level site is firstParty.
func (j *Jar) partitionFor(firstParty string, chips bool) string {
	if j.mode == Partitioned || chips {
		// CHIPS cookies are partitioned even on flat browsers.
		return firstParty
	}
	return ""
}

// SetCookies stores the response cookies under the rules of RFC 6265 plus
// the jar's partitioning model. u is the URL the Set-Cookie came from, in
// the request path's one URL form (its Host is read as split, no parse);
// firstParty is the top-level site of the tab at that moment; now is the
// virtual time. A zero u stores nothing.
//
// Invalid cookies (domain attribute not covering the request host, or a
// bare public suffix) are dropped, as real browsers drop them.
func (j *Jar) SetCookies(now time.Time, u urlx.URL, firstParty string, cookies []*netsim.Cookie) {
	if u.IsZero() {
		return
	}
	host := strings.ToLower(urlx.Hostname(u.Host))
	for _, c := range cookies {
		if c == nil || c.Name == "" {
			continue
		}
		domain := host
		hostOnly := true
		if c.Domain != "" {
			d := strings.TrimPrefix(strings.ToLower(c.Domain), ".")
			if urlx.IsPublicSuffix(d) || !domainMatch(host, d) {
				continue // rejected, as real browsers reject it
			}
			domain = d
			hostOnly = false
		}
		path := c.Path
		if path == "" {
			path = "/"
		}
		e := &jarEntry{StoredCookie: StoredCookie{
			PartitionKey: j.partitionFor(firstParty, c.Partitioned),
			Domain:       domain,
			HostOnly:     hostOnly,
			Path:         path,
			Name:         c.Name,
			Value:        c.Value,
			Expires:      c.Expires,
			Secure:       c.Secure,
			HTTPOnly:     c.HTTPOnly,
			SameSite:     c.SameSite,
			Created:      now,
		}}
		e.wire = netsim.Cookie{Name: e.Name, Value: e.Value}
		k := cookieKey{e.PartitionKey, e.Domain, e.Path, e.Name}
		if !e.Expires.IsZero() && !e.Expires.After(now) {
			delete(j.cookies, k) // expired set = deletion
			continue
		}
		j.cookies[k] = e
	}
}

// domainMatch implements RFC 6265 §5.1.3.
func domainMatch(host, domain string) bool {
	if host == domain {
		return true
	}
	return strings.HasSuffix(host, "."+domain)
}

// pathMatch implements RFC 6265 §5.1.4 (simplified to prefix semantics).
func pathMatch(requestPath, cookiePath string) bool {
	if requestPath == "" {
		requestPath = "/"
	}
	if requestPath == cookiePath {
		return true
	}
	if strings.HasPrefix(requestPath, cookiePath) {
		return strings.HasSuffix(cookiePath, "/") || requestPath[len(cookiePath)] == '/'
	}
	return false
}

// Cookies returns the cookies the browser would attach to a request for
// u made in a tab whose top-level site is firstParty: AppendCookies into
// a new slice. The returned cookies are shared with the jar and must
// not be modified.
func (j *Jar) Cookies(now time.Time, u urlx.URL, firstParty string, topLevelNav bool) []*netsim.Cookie {
	return j.AppendCookies(nil, now, u, firstParty, topLevelNav)
}

// AppendCookies appends to dst the cookies the browser would attach to
// a request for u made in a tab whose top-level site is firstParty, in
// send order, and returns the extended slice. u is the request URL in
// its one URL form: host, path and scheme are read as split, with no
// parse. A zero u matches nothing. topLevelNav marks top-level
// navigations, which (like real browsers) still send SameSite=Lax
// cookies cross-site.
//
// The appended cookies carry only Name and Value. They are read-only
// and shared with the jar: each points at the request-side cookie built
// when the cookie was stored, so appending allocates nothing beyond
// dst's growth. Replacing or expiring a stored cookie leaves cookies
// handed out earlier unchanged.
func (j *Jar) AppendCookies(dst []*netsim.Cookie, now time.Time, u urlx.URL, firstParty string, topLevelNav bool) []*netsim.Cookie {
	if u.IsZero() || len(j.cookies) == 0 {
		return dst
	}
	host := strings.ToLower(urlx.Hostname(u.Host))
	requestSite := urlx.RegistrableDomain(host)
	crossSite := firstParty != "" && requestSite != firstParty

	// Most requests match a handful of cookies: collect them in a stack
	// buffer for sorting.
	var buf [16]*jarEntry
	matched := buf[:0]
	for k, e := range j.cookies {
		if !e.Expires.IsZero() && !e.Expires.After(now) {
			delete(j.cookies, k)
			continue
		}
		if e.PartitionKey != "" && e.PartitionKey != firstParty {
			continue
		}
		if e.HostOnly {
			if e.Domain != host {
				continue
			}
		} else if !domainMatch(host, e.Domain) {
			continue
		}
		if !pathMatch(u.Path, e.Path) {
			continue
		}
		if e.Secure && u.Scheme != "https" {
			continue
		}
		if crossSite && !topLevelNav {
			// Subresource cross-site: only SameSite=None travels.
			if e.SameSite != netsim.SameSiteNone {
				continue
			}
		}
		if crossSite && topLevelNav && e.SameSite == netsim.SameSiteStrict {
			continue
		}
		matched = append(matched, e)
	}
	slices.SortFunc(matched, sendOrder)
	for _, e := range matched {
		dst = append(dst, &e.wire)
	}
	return dst
}

// sendOrder is the order cookies are attached to a request: longer
// paths first, then by creation, then name — the RFC 6265 serialisation
// order — then Domain and PartitionKey, so the order is total and no
// tie is left to map iteration. (Two matched cookies with paths of one
// length have the same path: both are prefixes of the request path.)
func sendOrder(a, b *jarEntry) int {
	if c := cmp.Compare(len(b.Path), len(a.Path)); c != 0 {
		return c
	}
	if c := a.Created.Compare(b.Created); c != 0 {
		return c
	}
	return cmp.Or(
		strings.Compare(a.Name, b.Name),
		strings.Compare(a.Domain, b.Domain),
		strings.Compare(a.PartitionKey, b.PartitionKey),
	)
}

// All returns every stored, unexpired cookie, sorted deterministically
// by partition, domain, name and path — the jar's key, so the order is
// total. The analysis pipeline consumes this dump ("The system records
// all first-party and third-party cookies ... at each step", §3.1).
func (j *Jar) All(now time.Time) []StoredCookie {
	return j.AppendAll(make([]StoredCookie, 0, len(j.cookies)), now)
}

// AppendAll appends every stored, unexpired cookie to dst in All's
// order and returns the extended slice: All into a caller's buffer, so
// a dump taken at every crawl stage reuses one slice.
func (j *Jar) AppendAll(dst []StoredCookie, now time.Time) []StoredCookie {
	dst = slices.Grow(dst, len(j.cookies))
	live := dst[len(dst):] // fills dst's spare capacity, never reallocates
	for _, e := range j.cookies {
		if !e.Expires.IsZero() && !e.Expires.After(now) {
			continue
		}
		live = append(live, e.StoredCookie)
	}
	slices.SortFunc(live, func(a, b StoredCookie) int {
		return cmp.Or(
			strings.Compare(a.PartitionKey, b.PartitionKey),
			strings.Compare(a.Domain, b.Domain),
			strings.Compare(a.Name, b.Name),
			strings.Compare(a.Path, b.Path),
		)
	})
	return dst[:len(dst)+len(live)]
}

// Get returns the value of the first cookie with the given domain and
// name in any partition, for tests and server-side assertions. "First"
// is the jar's total order, the one All sorts by: partition, then path
// (domain and name are fixed by the arguments).
func (j *Jar) Get(domain, name string) (string, bool) {
	var best *jarEntry
	for k, e := range j.cookies {
		if k.domain != domain || k.name != name {
			continue
		}
		if best == nil || cmp.Or(
			strings.Compare(e.PartitionKey, best.PartitionKey),
			strings.Compare(e.Path, best.Path),
		) < 0 {
			best = e
		}
	}
	if best == nil {
		return "", false
	}
	return best.Value, true
}

// Len reports the number of stored cookies (including expired ones not
// yet purged).
func (j *Jar) Len() int { return len(j.cookies) }

// Clear empties the jar in place, keeping the map's storage: a browser
// Reset between crawl iterations starts each one from an empty jar, as
// a fresh browser instance would (§3.1: "We run each iteration in a new
// browser instance"). Cookies handed out before Clear keep their name
// and value.
func (j *Jar) Clear() { clear(j.cookies) }
