// Package analysis implements §4 of the paper over a crawl dataset: the
// before/during/after-click privacy measurements and the renderers that
// regenerate every table and figure of the evaluation.
//
// The engine is the Accumulator, an incremental fold over the crawl's
// iteration stream built on a parse-once / intern-once discipline:
// every URL is split into host, path, and query a single time per
// sighting (urlx.SplitURL + urlx.QueryPairs, with url.Parse only as the
// fallback for unusual shapes), every distinct string is assigned a
// dense uint32 id in an interning table shared with the §3.2 token
// classifier, and all retained aggregate state — distinct sets,
// counters, grouped candidate multisets — is keyed by those ids. The
// per-value classifier heuristics are memoised by id, so each distinct
// token is classified once across the whole fold.
//
// Accumulators compose: Merge combines shard accumulators into the
// exact state of a sequential fold (AddAt tags iterations with their
// stream position so first-seen engine order survives any partition),
// which is what AnalyzeSharded and Parallel studies use to scale the
// analysis across cores with byte-identical reports.
package analysis

import (
	"strings"

	"searchads/internal/crawler"
	"searchads/internal/urlx"
)

// Path is one click's navigation path at site granularity, as the paper
// constructs it ("we trace the series of URLs the browser navigates
// through after clicking an ad and prior to reaching the advertisement's
// intended landing page", §3.2).
type Path struct {
	// OriginSite is the search engine's eTLD+1.
	OriginSite string
	// Sites is the collapsed site sequence: origin first, destination
	// last, consecutive same-site hops merged.
	Sites []string
	// Hosts carries a display host for each entry of Sites (first host
	// seen for the site, with any "www." prefix stripped).
	Hosts []string
}

// displayHost strips the www. prefix real tables omit.
func displayHost(host string) string {
	return strings.TrimPrefix(strings.ToLower(urlx.Hostname(host)), "www.")
}

// hopBase anchors relative hop URLs, hoisted out of the per-hop loop.
var hopBase = urlx.MustParse("https://x.example/")

// resolveHopHost extracts a navigation hop's host: the allocation-free
// split for the common absolute shape, link resolution against hopBase
// otherwise.
func resolveHopHost(raw string) (string, bool) {
	if host, _, _, ok := urlx.SplitURL(raw); ok {
		return host, true
	}
	u, err := urlx.Resolve(hopBase, raw)
	if err != nil {
		return "", false
	}
	return u.Host, true
}

// add appends one hop host to the path, collapsing same-site runs.
func (p *Path) add(host string) {
	site := urlx.RegistrableDomain(host)
	if site == "" {
		return
	}
	if len(p.Sites) > 0 && p.Sites[len(p.Sites)-1] == site {
		return // collapse same-site runs
	}
	p.Sites = append(p.Sites, site)
	p.Hosts = append(p.Hosts, displayHost(host))
}

// PathOf reconstructs the navigation path of one iteration. The engine's
// SERP is the origin; every 30x hop (validated via its Location header,
// as §3.2 prescribes) contributes a site; the final hop is the
// destination.
func PathOf(it *crawler.Iteration) Path {
	p := Path{}
	origin := engineSite(it.Engine)
	if it.EngineHost != "" {
		origin = urlx.RegistrableDomain(it.EngineHost)
	}
	p.OriginSite = origin
	p.add(origin)
	for _, h := range it.Hops {
		host, ok := resolveHopHost(h.URL)
		if !ok {
			continue
		}
		p.add(host)
	}
	return p
}

// engineSite maps an engine name to its eTLD+1.
func engineSite(name string) string {
	switch name {
	case "bing":
		return "bing.com"
	case "google":
		return "google.com"
	case "duckduckgo":
		return "duckduckgo.com"
	case "startpage":
		return "startpage.com"
	case "qwant":
		return "qwant.com"
	}
	return name
}

// DestinationSite returns the path's final site ("" for empty paths).
func (p Path) DestinationSite() string {
	if len(p.Sites) == 0 {
		return ""
	}
	return p.Sites[len(p.Sites)-1]
}

// Redirectors returns the display hosts strictly between the origin and
// the destination — the sites the user is "bounced" through (§4.2.2).
func (p Path) Redirectors() []string {
	if len(p.Sites) <= 2 {
		return nil
	}
	dest := p.DestinationSite()
	var out []string
	for i := 1; i < len(p.Sites)-1; i++ {
		if p.Sites[i] == p.OriginSite || p.Sites[i] == dest {
			continue
		}
		out = append(out, p.Hosts[i])
	}
	return out
}

// RedirectorSites returns the redirectors' eTLD+1s.
func (p Path) RedirectorSites() []string {
	if len(p.Sites) <= 2 {
		return nil
	}
	dest := p.DestinationSite()
	var out []string
	for i := 1; i < len(p.Sites)-1; i++ {
		if p.Sites[i] == p.OriginSite || p.Sites[i] == dest {
			continue
		}
		out = append(out, p.Sites[i])
	}
	return out
}

// Key renders the path the way Table 2 prints it: origin and redirector
// hosts joined by " - " with the literal "destination" at the end.
func (p Path) Key() string {
	if len(p.Sites) == 0 {
		return ""
	}
	parts := []string{p.Hosts[0]}
	parts = append(parts, p.Redirectors()...)
	parts = append(parts, "destination")
	return strings.Join(parts, " - ")
}

// FullKey renders the path including the concrete destination site,
// Table 1's notion of "different redirection paths".
func (p Path) FullKey() string {
	return strings.Join(p.Hosts, " - ")
}

// PathSitesWithoutDestination lists origin + redirector sites, the path
// population Table 3 groups by organisation.
func (p Path) PathSitesWithoutDestination() []string {
	if len(p.Sites) == 0 {
		return nil
	}
	out := []string{p.OriginSite}
	out = append(out, p.RedirectorSites()...)
	return out
}
