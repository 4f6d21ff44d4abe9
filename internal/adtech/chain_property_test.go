package adtech

import (
	"net/url"
	"testing"
	"testing/quick"

	"searchads/internal/detrand"
	"searchads/internal/urlx"
)

// TestBuildChainUnwindInverse: walking a built chain through its
// NextParam links always recovers the hop order and the landing URL —
// the property the browser's redirect chase and the paper's path
// reconstruction both depend on.
func TestBuildChainUnwindInverse(t *testing.T) {
	hostPool := []string{
		"clickserve.dartsearch.net", "ad.doubleclick.net",
		"pixel.everesttech.net", "6102.xg4ken.com",
		"monitor.clickcease.com", "tpt.mediaplex.com",
	}
	f := func(sel []uint8, pathSeed uint8) bool {
		if len(sel) > 6 {
			sel = sel[:6]
		}
		hops := make([]string, len(sel))
		for i, s := range sel {
			hops[i] = hostPool[int(s)%len(hostPool)]
		}
		landing := urlx.MustParse("https://shop.example/landing?x=" + string(rune('a'+pathSeed%26)))
		u := urlx.MustParse(BuildChain(hops, landing.String()))
		for i := 0; ; i++ {
			next, ok := urlx.Param(u, NextParam)
			if !ok {
				// Innermost: must be the landing URL, after exactly
				// len(hops) unwinds.
				return i == len(hops) && u.String() == landing.String()
			}
			if i >= len(hops) || u.Host != hops[i] {
				return false
			}
			parsed, err := urlx.Resolve(landing, next)
			if err != nil {
				return false
			}
			u = parsed
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

// TestChainHopPathsApplied: every known hop gets its documented endpoint
// path.
func TestChainHopPathsApplied(t *testing.T) {
	landing := "https://d.example/"
	for host, wantPath := range map[string]string{
		"clickserve.dartsearch.net": "/link/click",
		"6008.xg4ken.com":           "/media/redir.php", // via registrable-domain fallback
		"ad.atdmt.com":              "/c/go",
	} {
		u := urlx.MustParse(BuildChain([]string{host}, landing))
		if u.Path != wantPath {
			t.Errorf("%s path = %s, want %s", host, u.Path, wantPath)
		}
	}
}

// TestMintedClickIDShapes: GCLIDs and MSCLKIDs keep their recognisable
// real-world shapes, which Table 6's by-name detection relies on.
func TestMintedClickIDShapes(t *testing.T) {
	g := GoogleAds(detrand.New(99))
	m := MicrosoftAds(detrand.New(98))
	for i := 0; i < 50; i++ {
		gclid := g.MintClickID("google-0001")
		if len(gclid) != len("Cj0KCQjw")+48 {
			t.Fatalf("gclid length = %d", len(gclid))
		}
		msclkid := m.MintClickID("bing-0001")
		if len(msclkid) != 32 {
			t.Fatalf("msclkid length = %d", len(msclkid))
		}
		for _, c := range msclkid {
			if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
				t.Fatalf("msclkid %q not lowercase hex", msclkid)
			}
		}
	}
}

// refBuildChain is the url.URL-based chain builder that BuildChain
// replaced, kept as the byte-for-byte reference: every level is a
// url.URL whose query is url.Values-encoded and whose String is the next
// level's payload.
func refBuildChain(hops []string, landing *url.URL) *url.URL {
	next := landing
	for i := len(hops) - 1; i >= 0; i-- {
		host := hops[i]
		u := &url.URL{Scheme: "https", Host: host, Path: HopPath(host)}
		u.RawQuery = url.Values{NextParam: {next.String()}}.Encode()
		next = u
	}
	return next
}

// chainHopPool mixes exact, wildcard-domain, engine and unknown hosts.
var chainHopPool = []string{
	"clickserve.dartsearch.net", "ad.doubleclick.net", "6102.xg4ken.com",
	"www.googleadservices.com", "www.bing.com", "api.qwant.com",
	"monitor.clickcease.com", "unknown-hop.example",
}

// FuzzBuildChain pins the string chain builder to the url.URL reference
// for arbitrary hop sequences and landing strings, including landings
// whose bytes need escaping (%, space, &, +, non-ASCII) at every level.
// Its template arm wraps the hops' template in an engine-style bounce
// (a host and path with no hopPaths entry), as the engines' per-campaign
// templates do, and holds that render to the reference too.
func FuzzBuildChain(f *testing.F) {
	f.Add([]byte{0, 1}, "https://shop.example/land?gclid=Cj0K+QjW/x&a=b")
	f.Add([]byte{3, 2, 6, 7}, "https://shop.example/a b?q=100%&x=ü#frag")
	f.Add([]byte{}, "https://x.example/")
	f.Add([]byte{4}, "")
	f.Add([]byte{1, 7, 0}, "https://x.example/ p+q%2B?r=%zz&s=\xff\x00 ü")
	f.Fuzz(func(t *testing.T, sel []byte, landing string) {
		if len(sel) > 8 {
			sel = sel[:8]
		}
		hops := make([]string, len(sel))
		for i, s := range sel {
			hops[i] = chainHopPool[int(s)%len(chainHopPool)]
		}
		// A URL with only Opaque set renders it verbatim, so the
		// reference sees exactly the landing bytes BuildChain gets.
		want := refBuildChain(hops, &url.URL{Opaque: landing}).String()
		if got := BuildChain(hops, landing); got != want {
			t.Fatalf("BuildChain(%q, %q)\n got %q\nwant %q", hops, landing, got, want)
		}
		wrapped := &url.URL{Scheme: "https", Host: "search.custom.example", Path: "/go/click"}
		wrapped.RawQuery = url.Values{NextParam: {want}}.Encode()
		tmpl := NewChainTemplate(hops).Wrap(wrapped.Host, wrapped.Path)
		if got := tmpl.Render(landing); got != wrapped.String() {
			t.Fatalf("wrapped template of %q, landing %q\n got %q\nwant %q", hops, landing, got, wrapped.String())
		}
	})
}
