package adtech

import (
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"testing"

	"searchads/internal/detrand"
	"searchads/internal/netsim"
	"searchads/internal/tokens"
	"searchads/internal/urlx"
)

func TestBuildChainNesting(t *testing.T) {
	landing := "https://shop.example/land?gclid=X"
	u := urlx.MustParse(BuildChain([]string{"clickserve.dartsearch.net", "ad.doubleclick.net"}, landing))
	if u.Host != "clickserve.dartsearch.net" || u.Path != "/link/click" {
		t.Fatalf("outer hop = %s%s", u.Host, u.Path)
	}
	next1, _ := urlx.Param(u, NextParam)
	u2 := urlx.MustParse(next1)
	if u2.Host != "ad.doubleclick.net" || u2.Path != "/ddm/clk" {
		t.Fatalf("inner hop = %s%s", u2.Host, u2.Path)
	}
	next2, _ := urlx.Param(u2, NextParam)
	if next2 != landing {
		t.Fatalf("innermost = %q", next2)
	}
	// Empty chain returns the landing URL itself.
	if got := BuildChain(nil, landing); got != landing {
		t.Fatalf("empty chain = %s", got)
	}
}

func TestHopPaths(t *testing.T) {
	if HopPath("6102.xg4ken.com") != "/media/redir.php" {
		t.Error("wildcard hop path via registrable domain failed")
	}
	if HopPath("unknown.example") != "/redirect" {
		t.Error("default hop path wrong")
	}
}

func TestBounceSetsUIDCookieOnce(t *testing.T) {
	reg := NewRegistry(detrand.New(5))
	p := &Policy{Host: "r.example", UIDCookieProb: 1.0, CookieName: "r_uid"}
	reg.Add(p)
	req := &netsim.Request{URL: urlx.MustParse("https://r.example/redirect?next=https%3A%2F%2Fd.example%2F")}
	resp := reg.Bounce(p, req)
	if !resp.IsRedirect() {
		t.Fatalf("status = %d", resp.Status)
	}
	if len(resp.SetCookies) != 1 || resp.SetCookies[0].Name != "r_uid" {
		t.Fatalf("cookies = %v", resp.SetCookies)
	}
	uid := resp.SetCookies[0].Value
	if !tokens.PassesValueHeuristics(uid) {
		t.Fatalf("minted UID %q would not classify as a user identifier", uid)
	}
	// A returning browser (cookie present) gets no new cookie.
	req2 := &netsim.Request{
		URL:     urlx.MustParse("https://r.example/redirect?next=https%3A%2F%2Fd.example%2F"),
		Cookies: []*netsim.Cookie{netsim.NewCookie("r_uid", uid)},
	}
	if resp2 := reg.Bounce(p, req2); len(resp2.SetCookies) != 0 {
		t.Fatal("returning visitor must keep the same UID")
	}
}

func TestBounceNonUIDCookie(t *testing.T) {
	reg := NewRegistry(detrand.New(5))
	p := &Policy{Host: "clean.example", UIDCookieProb: 0, NonUIDCookie: true}
	reg.Add(p)
	req := &netsim.Request{
		URL:  urlx.MustParse("https://clean.example/redirect?next=https%3A%2F%2Fd.example%2F"),
		Time: netsim.StudyEpoch,
	}
	resp := reg.Bounce(p, req)
	if len(resp.SetCookies) != 1 {
		t.Fatalf("cookies = %v", resp.SetCookies)
	}
	v := resp.SetCookies[0].Value
	if tokens.PassesValueHeuristics(v) {
		t.Fatalf("accounting cookie %q must be rejected by heuristics", v)
	}
	if !tokens.LooksLikeTimestamp(v) {
		t.Fatalf("accounting cookie should be a timestamp, got %q", v)
	}
}

func TestBounceMissingNext(t *testing.T) {
	reg := NewRegistry(detrand.New(5))
	p := &Policy{Host: "r.example"}
	reg.Add(p)
	req := &netsim.Request{URL: urlx.MustParse("https://r.example/redirect")}
	if resp := reg.Bounce(p, req); resp.Status != http.StatusNotFound {
		t.Fatalf("status = %d", resp.Status)
	}
}

func TestBounceProbabilityCalibration(t *testing.T) {
	reg := NewRegistry(detrand.New(9))
	p := &Policy{Host: "half.example", UIDCookieProb: 0.5, CookieName: "u"}
	reg.Add(p)
	set := 0
	const n = 2000
	for i := 0; i < n; i++ {
		req := &netsim.Request{URL: urlx.MustParse("https://half.example/redirect?next=https%3A%2F%2Fd.example%2F")}
		if resp := reg.Bounce(p, req); len(resp.SetCookies) > 0 {
			set++
		}
	}
	rate := float64(set) / n
	if rate < 0.45 || rate > 0.55 {
		t.Fatalf("UID cookie rate = %.3f, want ~0.5", rate)
	}
}

func TestRegistryRegisterAndServe(t *testing.T) {
	net := netsim.NewNetwork()
	reg := NewRegistry(detrand.New(1))
	reg.Add(&Policy{Host: "xg4ken.com", Wildcard: true, Path: "/media/redir.php", UIDCookieProb: 1, CookieName: "ken"})
	reg.Add(&Policy{Host: "ad.doubleclick.net", Path: "/ddm/clk", UIDCookieProb: 1, CookieName: "IDE"})
	reg.Register(net)

	resp, err := net.RoundTrip(&netsim.Request{
		URL: urlx.MustParse("https://6102.xg4ken.com/media/redir.php?next=https%3A%2F%2Fd.example%2F"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.IsRedirect() || len(resp.SetCookies) != 1 {
		t.Fatalf("wildcard bounce failed: %+v", resp)
	}
	if _, err := net.RoundTrip(&netsim.Request{
		URL: urlx.MustParse("https://ad.doubleclick.net/ddm/clk?next=https%3A%2F%2Fd.example%2F"),
	}); err != nil {
		t.Fatal(err)
	}
}

func TestMintedUIDsUnique(t *testing.T) {
	reg := NewRegistry(detrand.New(2))
	seen := map[string]bool{}
	for i := 0; i < 500; i++ {
		v := reg.mintUID("host.example", "client-1")
		if seen[v] {
			t.Fatalf("duplicate UID at %d", i)
		}
		seen[v] = true
	}
}

func TestPlatformBuildClick(t *testing.T) {
	g := GoogleAds(detrand.New(3))
	c := &Campaign{
		ID:      "c1",
		Landing: urlx.MustParse("https://shoes.example/spring-sale"),
		Stack:   []string{"clickserve.dartsearch.net", "ad.doubleclick.net"},
		AutoTag: true,
	}
	click := g.BuildClick(c, "google-0001")
	if click.ClickID == "" || !strings.HasPrefix(click.ClickID, "Cj0KCQjw") {
		t.Fatalf("gclid = %q", click.ClickID)
	}
	if want := "https://shoes.example/spring-sale?gclid=" + click.ClickID; click.Landing != want {
		t.Fatalf("landing = %q, want %q", click.Landing, want)
	}
	// The chain an engine links its ad to enters the platform's click
	// server at its click path, then bounces click server -> dartsearch
	// -> doubleclick -> landing.
	href := urlx.MustParse(BuildChain(append([]string{g.ClickHost}, c.Stack...), click.Landing))
	if href.Host != "www.googleadservices.com" || href.Path != g.ClickPath {
		t.Fatalf("click server = %s%s", href.Host, href.Path)
	}
	hops, innermost := unwind(t, href)
	want := []string{"www.googleadservices.com", "clickserve.dartsearch.net", "ad.doubleclick.net", "shoes.example"}
	if len(hops) != len(want) {
		t.Fatalf("hops = %v", hops)
	}
	for i := range want {
		if hops[i] != want[i] {
			t.Fatalf("hops = %v, want %v", hops, want)
		}
	}
	if innermost != click.Landing {
		t.Fatalf("innermost = %q, want %q", innermost, click.Landing)
	}
}

// unwind follows a chain's NextParam links and returns every hop's host
// and the innermost URL.
func unwind(t *testing.T, u urlx.URL) ([]string, string) {
	t.Helper()
	var hosts []string
	for {
		hosts = append(hosts, u.Host)
		next, ok := urlx.Param(u, NextParam)
		if !ok {
			return hosts, u.String()
		}
		u = urlx.MustParse(next)
	}
}

func TestMicrosoftClickWithCrossTag(t *testing.T) {
	m := MicrosoftAds(detrand.New(4))
	c := &Campaign{
		ID:            "c2",
		Landing:       urlx.MustParse("https://hotel.example/book"),
		AutoTag:       true,
		CrossTagGCLID: true,
		OtherUIDParam: "irclickid",
	}
	click := m.BuildClick(c, "bing-0001")
	if href := urlx.MustParse(BuildChain([]string{m.ClickHost}, click.Landing)); href.Host != "www.bing.com" || href.Path != m.ClickPath {
		t.Fatalf("click server = %s%s", href.Host, href.Path)
	}
	landing := urlx.MustParse(click.Landing)
	q, _ := url.ParseQuery(landing.RawQuery)
	if q.Get("msclkid") == "" || q.Get("gclid") == "" || q.Get("irclickid") == "" {
		t.Fatalf("landing params = %v", q)
	}
	if len(q.Get("msclkid")) != 32 {
		t.Fatalf("msclkid shape = %q", q.Get("msclkid"))
	}
	// Parameters are appended in sorted key order.
	var keys []string
	urlx.QueryPairs(landing.RawQuery, func(k, _ string) bool {
		keys = append(keys, k)
		return true
	})
	if strings.Join(keys, ",") != "gclid,irclickid,msclkid" {
		t.Fatalf("landing query keys = %v", keys)
	}
	// Without auto-tag, no click ID.
	plain := m.BuildClick(&Campaign{ID: "c3", Landing: urlx.MustParse("https://x.example/")}, "bing-0001")
	if plain.ClickID != "" || plain.Landing != "https://x.example/" {
		t.Fatalf("un-tagged campaign got params: %s", plain.Landing)
	}
}

func TestClickIDsDifferPerImpression(t *testing.T) {
	g := GoogleAds(detrand.New(6))
	c := &Campaign{ID: "c", Landing: urlx.MustParse("https://a.example/"), AutoTag: true}
	a, b := g.BuildClick(c, "google-0001"), g.BuildClick(c, "google-0001")
	if a.ClickID == b.ClickID {
		t.Fatal("click IDs must be unique per impression")
	}
}

func TestPoolSelect(t *testing.T) {
	pool := &Pool{Campaigns: []*Campaign{
		{ID: "shoes", Landing: urlx.MustParse("https://shoes.example/"), Keywords: []string{"shoes"}},
		{ID: "hotel", Landing: urlx.MustParse("https://hotel.example/"), Keywords: []string{"hotel"}},
		{ID: "generic1", Landing: urlx.MustParse("https://g1.example/")},
		{ID: "generic2", Landing: urlx.MustParse("https://g2.example/")},
	}}
	seed := detrand.New(8)
	got := pool.Select(nil, "buy shoes online", 3, seed)
	if len(got) != 3 || got[0].ID != "shoes" {
		t.Fatalf("select = %v", ids(got))
	}
	// Deterministic for the same query.
	again := pool.Select(nil, "buy shoes online", 3, seed)
	for i := range got {
		if got[i].ID != again[i].ID {
			t.Fatal("selection not deterministic")
		}
	}
	if n := len(pool.Select(nil, "anything", 10, seed)); n != 4 {
		t.Fatalf("overshoot select = %d", n)
	}
	if pool.Select(nil, "x", 0, seed) != nil {
		t.Fatal("n=0 must append nothing")
	}
	doms := pool.Domains()
	if len(doms) != 4 || doms[0] != "g1.example" {
		t.Fatalf("domains = %v", doms)
	}

	// Select appends to dst exactly what the two-slice selection
	// returned — for uppercase and repeated query terms, more terms than
	// its stack array holds, more than eight matches, and a pool larger
	// than any caller's buffer — and leaves dst's prefix as it was.
	keywords := []string{"shoes", "hotel", "bike", "tv"}
	pool = &Pool{}
	for i := range 300 {
		c := &Campaign{ID: "c" + strconv.Itoa(i), Landing: urlx.MustParse("https://c" + strconv.Itoa(i) + ".example/")}
		if i%3 != 2 {
			c.Keywords = []string{keywords[i%len(keywords)]}
		}
		pool.Campaigns = append(pool.Campaigns, c)
	}
	sentinel := &Campaign{ID: "sentinel"}
	for _, query := range []string{
		"buy SHOES online",
		"Shoes shoes SHOES",
		"cheap hotel bike tv shoes near me now today please",
		"nothing matches here",
		"  tv\tbike  ",
		"",
	} {
		for _, n := range []int{1, 4, 12, 299, 300, 301} {
			want := refSelect(pool, query, n, seed)
			dst := make([]*Campaign, 1, 4)
			dst[0] = sentinel
			got := pool.Select(dst, query, n, seed)
			if got[0] != sentinel {
				t.Fatalf("Select(%q, %d) overwrote dst's prefix with %s", query, n, got[0].ID)
			}
			if !slices.Equal(got[1:], want) {
				t.Fatalf("Select(%q, %d)\n got %v\nwant %v", query, n, ids(got[1:]), ids(want))
			}
		}
	}
}

// refSelect is the selection Select replaced, kept as the reference:
// matches and filler in two fresh slices, the filler shuffled, the
// matches first.
func refSelect(pool *Pool, query string, n int, seed detrand.Source) []*Campaign {
	if n <= 0 || len(pool.Campaigns) == 0 {
		return nil
	}
	terms := strings.Fields(strings.ToLower(query))
	var matched, rest []*Campaign
	for _, c := range pool.Campaigns {
		if campaignMatches(c, terms) {
			matched = append(matched, c)
		} else {
			rest = append(rest, c)
		}
	}
	g := seed.Derive("select", query).Rand()
	g.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	out := append(matched, rest...)
	if len(out) > n {
		out = out[:n]
	}
	return out
}

func ids(cs []*Campaign) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = c.ID
	}
	return out
}

func TestCampaignLandingDomain(t *testing.T) {
	c := &Campaign{Landing: urlx.MustParse("https://www.shop.example.co.uk/x")}
	if c.LandingDomain() != "example.co.uk" {
		t.Fatalf("landing domain = %q", c.LandingDomain())
	}
}
