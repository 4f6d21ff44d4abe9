package serp_test

import (
	"net/url"
	"testing"

	"searchads/internal/adtech"
	"searchads/internal/detrand"
	"searchads/internal/serp"
	"searchads/internal/urlx"
	"searchads/internal/websim"
)

// refBuildChain is the url.URL-based chain builder that adtech.BuildChain
// replaced, kept as the byte-for-byte reference.
func refBuildChain(hops []string, landing *url.URL) *url.URL {
	next := landing
	for i := len(hops) - 1; i >= 0; i-- {
		host := hops[i]
		u := &url.URL{Scheme: "https", Host: host, Path: adtech.HopPath(host)}
		u.RawQuery = url.Values{adtech.NextParam: {next.String()}}.Encode()
		next = u
	}
	return next
}

// chainHops is the hop list an engine's ad href chains through before the
// engine's own bounce wrap.
func chainHops(e *serp.Engine, c *adtech.Campaign) []string {
	var hops []string
	hops = append(hops, e.Spec.UpstreamHops...)
	if !c.DirectFromEngine {
		hops = append(hops, e.Platform.ClickHost)
	}
	return append(hops, c.Stack...)
}

// refBuildHref is the url.URL-based href composition that buildHref
// replaced.
func refBuildHref(e *serp.Engine, click *adtech.AdClick, landing *url.URL) *url.URL {
	target := refBuildChain(chainHops(e, click.Campaign), landing)
	if !e.Spec.WrapOwnAds || e.Spec.BouncePath == "" {
		return target
	}
	host := e.Spec.BounceHost
	if host == "" {
		host = e.Spec.Host
	}
	u := &url.URL{Scheme: "https", Host: host, Path: e.Spec.BouncePath}
	u.RawQuery = url.Values{adtech.NextParam: {target.String()}}.Encode()
	return u
}

// customEngines are the template shapes no calibrated engine has: a
// bounce path with no hopPaths entry, unwrapped and wrapped, with
// direct-from-engine campaigns whose stack is empty — hrefs of depth 0
// (the bare landing) and depth 1 (the landing under the engine's bounce
// alone).
func customEngines() []*serp.Engine {
	seed := detrand.New(11)
	pool := &adtech.Pool{Campaigns: []*adtech.Campaign{
		{ID: "direct", Landing: urlx.MustParse("https://shop.example/land?x=1"), DirectFromEngine: true, AutoTag: true},
		{ID: "plain", Landing: urlx.MustParse("https://plain.example/")},
		{ID: "stacked", Landing: urlx.MustParse("https://deals.example/a/b"), Stack: []string{"clickserve.dartsearch.net", "6102.xg4ken.com"},
			AutoTag: true, CrossTagGCLID: true, OtherUIDParam: "irclickid"},
	}}
	var engines []*serp.Engine
	for _, wrap := range []bool{false, true} {
		spec := serp.Spec{Name: "custom", Host: "search.custom.example", SearchPath: "/s", QueryParam: "q",
			BouncePath: "/go/click", WrapOwnAds: wrap}
		engines = append(engines, serp.NewEngine(spec, adtech.MicrosoftAds(seed), pool, adtech.NewRegistry(seed), seed))
	}
	return engines
}

// TestHrefsMatchURLReference pins the string chain builder and the
// engines' per-campaign href templates to the url.URL reference for
// every engine and campaign of a derived world — wrapped and unwrapped
// engines, direct-from-engine campaigns, and every ad-tech stack the
// calibration draws — and of the custom engines.
func TestHrefsMatchURLReference(t *testing.T) {
	w := websim.NewWorld(websim.Config{Seed: 7, QueriesPerEngine: 5})
	var engines []*serp.Engine
	for _, name := range serp.AllEngineNames() {
		engines = append(engines, w.Engine(name))
	}
	if adtech.HopPath("search.custom.example") == "/go/click" {
		t.Fatal("the custom engines' bounce path has a hopPaths entry")
	}
	engines = append(engines, customEngines()...)
	var wrapped, direct, stacked, depth0, depth1 int
	for _, e := range engines {
		name := e.Spec.Name
		for _, c := range e.Pool.Campaigns {
			click := e.Platform.BuildClick(c, name+"-0001")
			landing, err := url.Parse(click.Landing)
			if err != nil || landing.String() != click.Landing {
				t.Fatalf("%s/%s: landing %q does not round-trip (%v)", name, c.ID, click.Landing, err)
			}
			hops := chainHops(e, c)
			if got, want := adtech.BuildChain(hops, click.Landing), refBuildChain(hops, landing).String(); got != want {
				t.Fatalf("%s/%s: BuildChain\n got %q\nwant %q", name, c.ID, got, want)
			}
			href := e.BuildHref(click)
			if want := refBuildHref(e, click, landing).String(); href != want {
				t.Fatalf("%s/%s: href\n got %q\nwant %q", name, c.ID, href, want)
			}
			switch href {
			case click.Landing:
				depth0++
			case "https://search.custom.example/go/click?next=" + url.QueryEscape(click.Landing):
				depth1++
			}
			if e.Spec.WrapOwnAds {
				wrapped++
			}
			if c.DirectFromEngine {
				direct++
			}
			if len(c.Stack) > 0 {
				stacked++
			}
		}
	}
	if wrapped == 0 || direct == 0 || stacked == 0 || depth0 == 0 || depth1 == 0 {
		t.Fatalf("engines cover wrapped=%d direct=%d stacked=%d depth-0=%d depth-1=%d hrefs; want every shape",
			wrapped, direct, stacked, depth0, depth1)
	}
}

// TestMintedURLsCanonical: every URL a derived world mints is in
// canonical form — url.Parse and String give it back unchanged — and
// takes urlx's no-parse fast path, which is the only way resolving it
// allocates nothing. It covers every engine × campaign: search URLs,
// decorated landings, ad hrefs and each chain hop inside them, click
// beacons, and the script, pixel and decorated pixel URLs of the
// landing site's trackers. A minting change that silently drops the
// crawl onto the net/url fallback fails here.
func TestMintedURLsCanonical(t *testing.T) {
	w := websim.NewWorld(websim.Config{Seed: 7, QueriesPerEngine: 5})
	var minted []string
	mint := func(raw string) { minted = append(minted, raw) }
	for _, name := range serp.AllEngineNames() {
		e := w.Engine(name)
		for _, q := range w.Queries[name] {
			mint(e.SearchURL(q))
		}
		for _, c := range e.Pool.Campaigns {
			client := name + "-0001"
			click := e.Platform.BuildClick(c, client)
			mint(click.Landing)
			href := e.BuildHref(click)
			for hop := href; ; {
				mint(hop)
				next, ok := urlx.Param(urlx.MustParse(hop), adtech.NextParam)
				if !ok {
					break
				}
				hop = next
			}
			for _, b := range e.Beacons(e, "buy shoes", click, 1) {
				mint(b.URL)
			}
			site, ok := w.Sites.Lookup(c.LandingDomain())
			if !ok {
				t.Fatalf("%s/%s: no site for %s", name, c.ID, c.LandingDomain())
			}
			landing := urlx.MustParse(click.Landing)
			for _, tr := range site.Trackers {
				mint(tr.ScriptURL())
				mint(tr.PixelURL().String())
				kv := []string{"dl", landing.Host}
				for _, param := range []string{"gclid", "msclkid"} {
					if v, ok := urlx.Param(landing, param); ok {
						kv = append(kv, param, v)
					}
				}
				mint(urlx.Decorate(tr.PixelURL(), kv...).String())
			}
		}
	}
	for _, raw := range minted {
		if u, err := url.Parse(raw); err != nil || u.String() != raw {
			t.Fatalf("minted URL %q does not round-trip through url.Parse and String (%v)", raw, err)
		}
	}
	base := urlx.MustParse("https://base.example/")
	var got urlx.URL
	var err error
	if n := testing.AllocsPerRun(1, func() {
		for _, raw := range minted {
			got, err = urlx.Resolve(base, raw)
		}
	}); n == 0 {
		return
	}
	for _, raw := range minted {
		n := testing.AllocsPerRun(1, func() { got, err = urlx.Resolve(base, raw) })
		if n != 0 || err != nil || got.String() != raw {
			t.Errorf("minted URL %q left the no-parse fast path (%v allocs, %v)", raw, n, err)
		}
	}
	t.Fatalf("%d minted URLs checked; some left the fast path", len(minted))
}
