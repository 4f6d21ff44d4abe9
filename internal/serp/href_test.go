package serp_test

import (
	"net/url"
	"testing"

	"searchads/internal/adtech"
	"searchads/internal/serp"
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

// TestHrefsMatchURLReference pins the string chain and href builders to
// the url.URL reference for every engine and campaign of a derived world:
// wrapped and unwrapped engines, direct-from-engine campaigns, and every
// ad-tech stack the calibration draws.
func TestHrefsMatchURLReference(t *testing.T) {
	w := websim.NewWorld(websim.Config{Seed: 7, QueriesPerEngine: 5})
	var wrapped, direct, stacked int
	for _, name := range serp.AllEngineNames() {
		e := w.Engine(name)
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
			if got, want := e.BuildHref(click), refBuildHref(e, click, landing).String(); got != want {
				t.Fatalf("%s/%s: buildHref\n got %q\nwant %q", name, c.ID, got, want)
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
	if wrapped == 0 || direct == 0 || stacked == 0 {
		t.Fatalf("world covers wrapped=%d direct=%d stacked=%d campaigns; want every shape", wrapped, direct, stacked)
	}
}
