package adtech

import (
	"slices"
	"sort"
	"strings"

	"searchads/internal/detrand"
	"searchads/internal/urlx"
)

// Campaign is one advertiser's campaign on an ad platform. Its fields
// encode the advertiser-side choices that shape the paper's observations:
// which ad-tech services sit between the click server and the landing
// page (Tables 2/7), whether the platform auto-tags clicks with its click
// ID (Table 6), and extra tracking parameters.
type Campaign struct {
	// ID identifies the campaign.
	ID string
	// Landing is the destination URL (without tracking parameters),
	// canonicalised once when the campaign is built.
	Landing urlx.URL
	// Keywords trigger the ad for matching queries.
	Keywords []string
	// Stack is the ordered list of redirector hosts the click bounces
	// through after the platform's click server (may be empty).
	Stack []string
	// AutoTag makes the platform append its click identifier (GCLID for
	// Google Ads, MSCLKID for Microsoft Advertising) to the landing URL.
	AutoTag bool
	// CrossTagGCLID adds a GCLID via the advertiser's tracking template
	// even on Microsoft's platform (the paper finds GCLIDs in
	// Bing/DuckDuckGo clicks, Table 6).
	CrossTagGCLID bool
	// OtherUIDParam, when non-empty, is an additional user-identifying
	// query parameter the chain appends (affiliate/attribution IDs).
	OtherUIDParam string
	// DirectFromEngine routes the click straight from the engine's own
	// bounce endpoint to the stack/landing, skipping the platform click
	// server — the "qwant.com - destination" (14%) and "startpage.com -
	// google.com - destination" (6%) paths of Table 2.
	DirectFromEngine bool
	// PersistsClickIDs lists the click-ID parameter names the
	// advertiser's landing page persists to first-party storage
	// (§4.3.2).
	PersistsClickIDs []string
}

// LandingDomain returns the campaign's destination site (eTLD+1).
func (c *Campaign) LandingDomain() string {
	return urlx.RegistrableDomain(c.Landing.Host)
}

// Platform models one advertising system.
type Platform struct {
	// Name is "googleads" or "microsoft".
	Name string
	// ClickHost is the click server's hostname (www.googleadservices.com
	// for Google, bing.com for Microsoft — Microsoft serves ad clicks
	// from the engine's own domain).
	ClickHost string
	// ClickPath is the click endpoint path.
	ClickPath string
	// ClickIDParam is the platform's click identifier parameter name.
	ClickIDParam string
	// ClickIDPrefix gives minted IDs their recognisable shape.
	ClickIDPrefix string

	seed detrand.Source
	// seq scopes click-ID minting per requesting client: Google's
	// platform is shared by the google and startpage engines (Microsoft's
	// by bing, duckduckgo, and qwant), so a global counter would make
	// minted IDs depend on how concurrently-crawled engines interleave.
	seq detrand.Seq
}

// GoogleAds returns Google's advertising system ("StartPage relies on
// Google AdSense to show ads").
func GoogleAds(seed detrand.Source) *Platform {
	return &Platform{
		Name:          "googleads",
		ClickHost:     "www.googleadservices.com",
		ClickPath:     "/pagead/aclk",
		ClickIDParam:  "gclid",
		ClickIDPrefix: "Cj0KCQjw",
		seed:          seed.Derive("platform", "googleads"),
	}
}

// MicrosoftAds returns Microsoft's advertising system ("DuckDuckGo and
// Qwant use Microsoft's advertising system").
func MicrosoftAds(seed detrand.Source) *Platform {
	return &Platform{
		Name:          "microsoft",
		ClickHost:     "www.bing.com",
		ClickPath:     "/aclk",
		ClickIDParam:  "msclkid",
		ClickIDPrefix: "",
		seed:          seed.Derive("platform", "microsoft"),
	}
}

// MintClickID returns a fresh click identifier for an impression served
// to client. Click IDs are unique per ad impression — which is exactly
// why the paper's filter (ii) discards per-ad-varying tokens while
// Table 6 still reports GCLID/MSCLKID by name. The stream is keyed by
// (platform seed, client, per-client serial), so values are independent
// of cross-engine request interleaving.
func (p *Platform) MintClickID(client string) string {
	n := p.seq.Next(client)
	if p.ClickIDPrefix != "" {
		return p.ClickIDPrefix + p.seed.Derive("clickid", client).DeriveN("n", n).Token(48, detrand.Base64URLLike)
	}
	return p.seed.Derive("clickid", client).DeriveN("n", n).Token(32, detrand.HexLower)
}

// MintOtherUID mints a value for a campaign's extra UID parameter.
func (p *Platform) MintOtherUID(client string) string {
	n := p.seq.Next(client)
	return p.seed.Derive("otheruid", client).DeriveN("n", n).Token(24, detrand.AlphaNum)
}

// AdClick is one rendered ad impression: the decorated landing URL and
// the metadata the engine needs to render the ad element. The click href
// itself is composed by the engine (its own bounce endpoint and upstream
// hops wrap the chain), from Landing and the campaign's stack.
type AdClick struct {
	// Landing is the landing URL with the impression's tracking
	// parameters appended (click IDs, extra UID parameters), in its
	// final string form: chain construction and the engines' click
	// beacons embed it as is.
	Landing string
	// ClickID is the minted platform click ID ("" if the campaign does
	// not auto-tag).
	ClickID string
	// Campaign is the underlying campaign.
	Campaign *Campaign
}

// BuildClick mints the identifiers for one rendered ad impression and
// decorates the campaign's landing URL with them (click IDs, extra UID
// params). The parameters are set in sorted key order, and a later one
// with the same name replaces an earlier one.
func (p *Platform) BuildClick(c *Campaign, client string) *AdClick {
	click := &AdClick{Campaign: c}
	var buf [6]string
	kv := buf[:0]
	set := func(k, v string) {
		for i := 0; i < len(kv); i += 2 {
			if kv[i] == k {
				kv[i+1] = v
				return
			}
		}
		kv = append(kv, k, v)
	}
	if c.AutoTag {
		click.ClickID = p.MintClickID(client)
		set(p.ClickIDParam, click.ClickID)
	}
	if c.CrossTagGCLID && p.ClickIDParam != "gclid" {
		n := p.seq.Next(client)
		set("gclid", "Cj0KCQjw"+p.seed.Derive("crossgclid", client).DeriveN("n", n).Token(48, detrand.Base64URLLike))
	}
	if c.OtherUIDParam != "" {
		set(c.OtherUIDParam, p.MintOtherUID(client))
	}
	// Insertion sort of the (at most three) pairs by key.
	for i := 2; i < len(kv); i += 2 {
		for j := i; j > 0 && kv[j] < kv[j-2]; j -= 2 {
			kv[j], kv[j+1], kv[j-2], kv[j-1] = kv[j-2], kv[j-1], kv[j], kv[j+1]
		}
	}
	click.Landing = urlx.Decorate(c.Landing, kv...).String()
	return click
}

// Pool is the set of campaigns an engine's ad system draws from.
type Pool struct {
	Campaigns []*Campaign
}

// Select appends up to n campaigns for a query to dst and returns the
// extended slice: keyword matches first (most specific advertisers),
// then deterministic filler so a SERP always carries ads, mirroring how
// broad-match auctions always fill slots. The matches and the filler
// are laid out in dst's spare capacity, the whole pool's worth, before
// the result is cut to n, so a caller that passes a buffer as large as
// the pool selects without allocating.
func (pool *Pool) Select(dst []*Campaign, query string, n int, seed detrand.Source) []*Campaign {
	if n <= 0 || len(pool.Campaigns) == 0 {
		return dst
	}
	var termBuf [8]string
	terms := termBuf[:0]
	for t := range strings.FieldsSeq(strings.ToLower(query)) {
		terms = append(terms, t)
	}
	// One pass: matches fill the window from the front in pool order,
	// the filler from the back in reverse; reversing the filler restores
	// its pool order, which the shuffle below permutes.
	base := len(dst)
	dst = slices.Grow(dst, len(pool.Campaigns))[:base+len(pool.Campaigns)]
	front, back := base, len(dst)
	for _, c := range pool.Campaigns {
		if campaignMatches(c, terms) {
			dst[front] = c
			front++
		} else {
			back--
			dst[back] = c
		}
	}
	rest := dst[front:]
	slices.Reverse(rest)
	// Deterministic shuffle of the filler, keyed by the query.
	g := seed.Derive("select", query).Rand()
	g.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	return dst[:base+min(n, len(pool.Campaigns))]
}

func campaignMatches(c *Campaign, terms []string) bool {
	for _, k := range c.Keywords {
		for _, t := range terms {
			if k == t {
				return true
			}
		}
	}
	return false
}

// Domains returns the sorted distinct landing domains in the pool.
func (pool *Pool) Domains() []string {
	set := map[string]bool{}
	for _, c := range pool.Campaigns {
		set[c.LandingDomain()] = true
	}
	out := make([]string, 0, len(set))
	for d := range set {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}
