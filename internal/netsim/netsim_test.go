package netsim

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"searchads/internal/urlx"
)

func echoHandler(body string) HandlerFunc {
	return func(req *Request) *Response {
		resp := NewResponse(http.StatusOK)
		resp.Body = body
		return resp
	}
}

func TestRoundTripRouting(t *testing.T) {
	n := NewNetwork()
	n.Handle("bing.com", echoHandler("bing"))
	n.HandleSite("xg4ken.com", echoHandler("ken"))

	resp, err := n.RoundTrip(&Request{URL: urlx.MustParse("https://bing.com/search?q=x")})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Body != "bing" {
		t.Fatalf("body = %q", resp.Body)
	}

	// Site-wide registration serves arbitrary subdomains.
	for _, h := range []string{"6102.xg4ken.com", "3825.xg4ken.com", "xg4ken.com"} {
		resp, err := n.RoundTrip(&Request{URL: urlx.MustParse("https://" + h + "/redirect")})
		if err != nil {
			t.Fatalf("%s: %v", h, err)
		}
		if resp.Body != "ken" {
			t.Fatalf("%s: body = %q", h, resp.Body)
		}
	}
}

func TestRoundTripUnknownHost(t *testing.T) {
	n := NewNetwork()
	_, err := n.RoundTrip(&Request{URL: urlx.MustParse("https://nowhere.example/")})
	if !errors.Is(err, ErrNoSuchHost) {
		t.Fatalf("err = %v, want ErrNoSuchHost", err)
	}
}

func TestRoundTripBadScheme(t *testing.T) {
	n := NewNetwork()
	if _, err := n.RoundTrip(&Request{URL: urlx.MustParse("ftp://bing.com/")}); err == nil {
		t.Fatal("expected scheme error")
	}
	if _, err := n.RoundTrip(&Request{}); err == nil {
		t.Fatal("expected missing-URL error")
	}
}

func TestRoundTripStampsTimeAndAdvancesClock(t *testing.T) {
	n := NewNetwork()
	n.Handle("a.com", echoHandler(""))
	start := n.Clock().Now()
	req1 := &Request{URL: urlx.MustParse("https://a.com/1")}
	req2 := &Request{URL: urlx.MustParse("https://a.com/2")}
	if _, err := n.RoundTrip(req1); err != nil {
		t.Fatal(err)
	}
	if _, err := n.RoundTrip(req2); err != nil {
		t.Fatal(err)
	}
	if !req1.Time.Equal(start) {
		t.Fatalf("req1 time = %v, want %v", req1.Time, start)
	}
	if !req2.Time.After(req1.Time) {
		t.Fatal("timestamps must be strictly increasing")
	}
}

func TestWireLog(t *testing.T) {
	n := NewNetwork()
	n.Handle("a.com", echoHandler("x"))
	n.RecordWire(true)
	sent := &Request{URL: urlx.MustParse("https://a.com/"), Cookies: []*Cookie{NewCookie("c", "1")}}
	n.RoundTrip(sent)
	if got := len(n.Wire()); got != 1 {
		t.Fatalf("wire events = %d, want 1", got)
	}
	// The log keeps its own copy: a sender reusing the request's storage
	// afterwards, as a Reset browser does, leaves the log intact.
	cookie := sent.Cookies[0]
	sent.Cookies[0] = nil
	*sent = Request{}
	logged := n.Wire()[0].Request
	if logged.URL.String() != "https://a.com/" || len(logged.Cookies) != 1 || logged.Cookies[0] != cookie {
		t.Fatalf("logged request changed with the sender's storage: %+v", logged)
	}
	n.RecordWire(false)
	if got := len(n.Wire()); got != 0 {
		t.Fatalf("wire should clear on disable, got %d", got)
	}
}

func TestRedirectResponse(t *testing.T) {
	r := Redirect(302, "https://dest.example/")
	if !r.IsRedirect() {
		t.Fatal("302 must be a redirect")
	}
	loc, ok := r.Location()
	if !ok || loc != "https://dest.example/" {
		t.Fatalf("location = %q, %v", loc, ok)
	}
	for _, s := range []int{301, 302, 303, 307, 308} {
		if !NewResponseWithLocation(s).IsRedirect() {
			t.Errorf("status %d should be redirect", s)
		}
	}
	if NewResponse(200).IsRedirect() {
		t.Fatal("200 is not a redirect")
	}
	if _, ok := NewResponse(200).Location(); ok {
		t.Fatal("no location expected")
	}
}

func NewResponseWithLocation(status int) *Response {
	return Redirect(status, "https://x.example/")
}

func TestRequestHelpers(t *testing.T) {
	req := &Request{
		URL:        urlx.MustParse("https://ad.doubleclick.net/clk?gclid=abc"),
		FirstParty: "google.com",
		Cookies:    []*Cookie{NewCookie("IDE", "xyz")},
	}
	if !req.IsThirdParty() {
		t.Fatal("doubleclick under google.com first party is third-party")
	}
	req2 := &Request{URL: urlx.MustParse("https://www.google.com/gen_204"), FirstParty: "google.com"}
	if req2.IsThirdParty() {
		t.Fatal("www.google.com under google.com is first-party")
	}
	if c, ok := req.Cookie("IDE"); !ok || c.Value != "xyz" {
		t.Fatal("cookie lookup failed")
	}
	if _, ok := req.Cookie("missing"); ok {
		t.Fatal("missing cookie found")
	}
	if req.Query("gclid") != "abc" {
		t.Fatal("query lookup failed")
	}
	noFP := &Request{URL: urlx.MustParse("https://a.com/")}
	if noFP.IsThirdParty() {
		t.Fatal("no first party means not third-party")
	}
}

func TestCookieString(t *testing.T) {
	now := time.Date(2022, 9, 1, 0, 0, 0, 0, time.UTC)
	c := NewCookie("MUID", "123").WithDomain(".bing.com").WithTTL(now, time.Hour)
	c.Secure = true
	c.HTTPOnly = true
	c.SameSite = SameSiteNone
	s := c.String()
	for _, want := range []string{"MUID=123", "Domain=bing.com", "Expires=", "Secure", "HttpOnly", "SameSite=None"} {
		if !strings.Contains(s, want) {
			t.Errorf("cookie string %q missing %q", s, want)
		}
	}
	p := NewCookie("a", "b")
	p.Partitioned = true
	p.Path = "/x"
	if s := p.String(); !strings.Contains(s, "Partitioned") || !strings.Contains(s, "Path=/x") {
		t.Errorf("cookie string %q", s)
	}
}

func TestSameSiteModeString(t *testing.T) {
	if SameSiteLax.String() != "Lax" || SameSiteStrict.String() != "Strict" ||
		SameSiteNone.String() != "None" || SameSiteDefault.String() != "" {
		t.Fatal("SameSiteMode strings wrong")
	}
}

func TestClock(t *testing.T) {
	c := NewClock(StudyEpoch)
	c.Advance(24 * time.Hour)
	if got := c.Now().Sub(StudyEpoch); got != 24*time.Hour {
		t.Fatalf("advance = %v", got)
	}
	c.Advance(-time.Hour)
	if got := c.Now().Sub(StudyEpoch); got != 24*time.Hour {
		t.Fatal("negative advance must be ignored")
	}
}

func TestElementTreeQueries(t *testing.T) {
	root := NewElement("div", "id", "root").Append(
		NewElement("div", "title", "Sponsored Links").Append(
			NewElement("a", "href", "https://www.googleadservices.com/pagead/aclk?x=1", "data-landing", "shoes.example"),
			NewElement("a", "href", "https://organic.example/"),
		),
		NewElement("a", "href", "https://www.googleadservices.com/pagead/aclk?x=2"),
	)
	ads := root.HrefsMatching("googleadservices.com")
	if len(ads) != 2 {
		t.Fatalf("found %d ad links, want 2", len(ads))
	}
	if ads[0].Attr("data-landing") != "shoes.example" {
		t.Fatalf("attr lookup failed: %q", ads[0].Attr("data-landing"))
	}
	sponsored := root.Find(func(e *Element) bool { return e.Attr("title") == "Sponsored Links" })
	if sponsored == nil {
		t.Fatal("sponsored container not found")
	}
	if got := len(root.ByTag("a")); got != 3 {
		t.Fatalf("ByTag(a) = %d, want 3", got)
	}
	var nilEl *Element
	if nilEl.Attr("x") != "" {
		t.Fatal("nil element Attr should be empty")
	}
}

func TestNewElementPanicsOnOddPairs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewElement("a", "href")
}

// TestSetAttrKeepsKeysUnique: SetAttr replaces an existing key in place
// and appends a new one, so an element never carries a key twice; a
// repeated key in NewElement is a programming error.
func TestSetAttrKeepsKeysUnique(t *testing.T) {
	a := NewElement("a", "href", "https://old.example/", "data-ad", "1")
	a.SetAttr("href", "https://new.example/?uid=1")
	a.SetAttr("ping", "https://p.example/")
	if got := a.Attr("href"); got != "https://new.example/?uid=1" {
		t.Fatalf("href = %q", got)
	}
	if got := a.Attr("ping"); got != "https://p.example/" {
		t.Fatalf("ping = %q", got)
	}
	html := RenderHTML(&Page{Root: a})
	if n := strings.Count(html, "href="); n != 1 {
		t.Fatalf("href rendered %d times: %s", n, html)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewElement with a repeated key did not panic")
		}
	}()
	NewElement("a", "href", "x", "id", "y", "href", "z")
}

// TestRenderHTMLSortsAttributes: attributes render in sorted key order
// whatever order the element was built and decorated in.
func TestRenderHTMLSortsAttributes(t *testing.T) {
	el := NewElement("a", "href", "h", "data-pos", "2", "ad", "1")
	el.SetAttr("class", "c")
	el.SetAttr("data-pos", "3")
	got := RenderHTML(&Page{Root: el})
	want := `<a ad="1" class="c" data-pos="3" href="h"></a>`
	if !strings.Contains(got, want) {
		t.Fatalf("rendered %s, want element %s", got, want)
	}
}

func TestWalkEarlyStop(t *testing.T) {
	root := NewElement("div").Append(NewElement("a"), NewElement("b"), NewElement("c"))
	var visited int
	root.Walk(func(e *Element) bool {
		visited++
		return e.Tag != "a"
	})
	if visited != 2 { // div, a — then stop
		t.Fatalf("visited = %d, want 2", visited)
	}
}

func TestHTTPBridge(t *testing.T) {
	n := NewNetwork()
	n.Handle("serp.test", HandlerFunc(func(req *Request) *Response {
		resp := NewResponse(http.StatusOK)
		resp.Page = &Page{
			Title: "results",
			Root: NewElement("div").Append(
				NewElement("a", "href", "https://ads.test/clk"),
			),
			Resources: []ResourceRef{{URL: "https://cdn.test/app.js", Type: TypeScript}},
		}
		resp.AddCookie(NewCookie("sid", "1"))
		return resp
	}))
	srv := httptest.NewServer(&HTTPBridge{Net: n})
	defer srv.Close()

	req, _ := http.NewRequest("GET", srv.URL+"/search?q=shoes", nil)
	req.Host = "serp.test"
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Set-Cookie"); !strings.Contains(got, "sid=1") {
		t.Fatalf("Set-Cookie = %q", got)
	}
	buf := make([]byte, 4096)
	m, _ := resp.Body.Read(buf)
	body := string(buf[:m])
	if !strings.Contains(body, "ads.test/clk") || !strings.Contains(body, "<title>results</title>") {
		t.Fatalf("rendered body = %q", body)
	}
}

func TestHTTPBridgeUnknownHost(t *testing.T) {
	n := NewNetwork()
	srv := httptest.NewServer(&HTTPBridge{Net: n})
	defer srv.Close()
	req, _ := http.NewRequest("GET", srv.URL+"/", nil)
	req.Host = "missing.test"
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status = %d, want 502", resp.StatusCode)
	}
}

func TestRenderHTMLEscapes(t *testing.T) {
	p := &Page{
		Title: `<b>&"x"`,
		Root:  NewElement("div", "data-q", `a"b`),
		Resources: []ResourceRef{
			{URL: "https://t.example/p.gif", Type: TypeImage},
			{URL: "https://t.example/s.css", Type: TypeStylesheet},
		},
		Frames: []string{"https://f.example/frame"},
	}
	out := RenderHTML(p)
	if strings.Contains(out, `<b>&"x"`) {
		t.Fatal("title not escaped")
	}
	for _, want := range []string{"img src=", "stylesheet", "iframe src="} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered HTML missing %q", want)
		}
	}
}
