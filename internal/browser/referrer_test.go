package browser

import (
	"net/http"
	"strings"
	"testing"

	"searchads/internal/detrand"
	"searchads/internal/netsim"
)

// referrerWorld: origin page links to a 302 chain and to a JS-redirect
// hop, landing on dest.com which echoes what it saw.
func referrerWorld(t *testing.T) (*netsim.Network, *[]string) {
	t.Helper()
	n := netsim.NewNetwork()
	var destReferrers []string

	n.Handle("origin.com", netsim.HandlerFunc(func(req *netsim.Request) *netsim.Response {
		resp := netsim.NewResponse(http.StatusOK)
		resp.Page = &netsim.Page{
			Root: netsim.NewElement("div").Append(
				netsim.NewElement("a", "href", "https://hop302.com/r?next=https%3A%2F%2Fdest.com%2Fland", "id", "via302"),
				netsim.NewElement("a", "href", "https://hopjs.com/r?next=https%3A%2F%2Fdest.com%2Fland", "id", "viajs"),
			),
		}
		return resp
	}))
	n.Handle("hop302.com", netsim.HandlerFunc(func(req *netsim.Request) *netsim.Response {
		return netsim.Redirect(http.StatusFound, req.Query("next"))
	}))
	n.Handle("hopjs.com", netsim.HandlerFunc(func(req *netsim.Request) *netsim.Response {
		resp := netsim.NewResponse(http.StatusOK)
		resp.Page = &netsim.Page{Root: netsim.NewElement("div"), JSRedirect: req.Query("next")}
		return resp
	}))
	n.Handle("dest.com", netsim.HandlerFunc(func(req *netsim.Request) *netsim.Response {
		destReferrers = append(destReferrers, req.Referrer)
		resp := netsim.NewResponse(http.StatusOK)
		resp.Page = &netsim.Page{Root: netsim.NewElement("div"), Title: "dest"}
		return resp
	}))
	return n, &destReferrers
}

func TestReferrerPreservedAcross302(t *testing.T) {
	n, refs := referrerWorld(t)
	b := New(n, Options{Seed: detrand.New(1)})
	b.Navigate("https://origin.com/")
	link := b.Page().Root.Find(func(e *netsim.Element) bool { return e.Attr("id") == "via302" })
	if _, err := b.Click(link); err != nil {
		t.Fatal(err)
	}
	// 30x redirects keep the original referrer: the origin page, not
	// the hop.
	if got := (*refs)[0]; got != "https://origin.com/" {
		t.Fatalf("dest referrer = %q, want origin page", got)
	}
	if b.DocumentReferrer() != "https://origin.com/" {
		t.Fatalf("document.referrer = %q", b.DocumentReferrer())
	}
}

func TestReferrerRewrittenByJSRedirect(t *testing.T) {
	n, refs := referrerWorld(t)
	b := New(n, Options{Seed: detrand.New(1)})
	b.Navigate("https://origin.com/")
	link := b.Page().Root.Find(func(e *netsim.Element) bool { return e.Attr("id") == "viajs" })
	if _, err := b.Click(link); err != nil {
		t.Fatal(err)
	}
	// A JS navigation makes the redirecting page the referrer — the
	// property referrer-smuggling exploits.
	got := (*refs)[0]
	if !strings.HasPrefix(got, "https://hopjs.com/r?") {
		t.Fatalf("dest referrer = %q, want the JS hop URL", got)
	}
}

func TestAddressBarNavigationHasNoReferrer(t *testing.T) {
	n, refs := referrerWorld(t)
	b := New(n, Options{Seed: detrand.New(1)})
	b.Navigate("https://dest.com/direct")
	if got := (*refs)[0]; got != "" {
		t.Fatalf("direct navigation referrer = %q, want empty", got)
	}
}

func TestSubresourceReferrerIsPageURL(t *testing.T) {
	n := netsim.NewNetwork()
	var pixelReferrer string
	n.Handle("page.com", netsim.HandlerFunc(func(req *netsim.Request) *netsim.Response {
		resp := netsim.NewResponse(http.StatusOK)
		resp.Page = &netsim.Page{
			Root:      netsim.NewElement("div"),
			Resources: []netsim.ResourceRef{{URL: "https://cdn.com/px", Type: netsim.TypeImage}},
		}
		return resp
	}))
	n.Handle("cdn.com", netsim.HandlerFunc(func(req *netsim.Request) *netsim.Response {
		pixelReferrer = req.Referrer
		return netsim.NewResponse(http.StatusOK)
	}))
	b := New(n, Options{Seed: detrand.New(1)})
	b.Navigate("https://page.com/article?id=7")
	if pixelReferrer != "https://page.com/article?id=7" {
		t.Fatalf("subresource referrer = %q", pixelReferrer)
	}
}

func TestScriptEnvReferrer(t *testing.T) {
	n := netsim.NewNetwork()
	var seen string
	n.Handle("a.com", netsim.HandlerFunc(func(req *netsim.Request) *netsim.Response {
		resp := netsim.NewResponse(http.StatusOK)
		if strings.HasSuffix(req.URL.Path, ".js") {
			resp.Script = netsim.ScriptFunc(func(env netsim.ScriptEnv) {
				seen = env.Referrer()
			})
			return resp
		}
		resp.Page = &netsim.Page{
			Root:      netsim.NewElement("div"),
			Resources: []netsim.ResourceRef{{URL: "https://a.com/t.js", Type: netsim.TypeScript}},
		}
		if req.URL.Path == "/start" {
			resp.Page.JSRedirect = "https://a.com/landing"
			resp.Page.Resources = nil
		}
		return resp
	}))
	b := New(n, Options{Seed: detrand.New(1)})
	if _, err := b.Navigate("https://a.com/start"); err != nil {
		t.Fatal(err)
	}
	if seen != "https://a.com/start" {
		t.Fatalf("script saw referrer %q, want the redirecting page", seen)
	}
}
