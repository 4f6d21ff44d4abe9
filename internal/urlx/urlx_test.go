package urlx

import (
	"net/url"
	"strings"
	"testing"
	"testing/quick"
)

func TestRegistrableDomain(t *testing.T) {
	cases := []struct {
		host, want string
	}{
		{"www.google.com", "google.com"},
		{"google.com", "google.com"},
		{"ad.doubleclick.net", "doubleclick.net"},
		{"clickserve.dartsearch.net", "dartsearch.net"},
		{"t23.intelliad.de", "intelliad.de"},
		{"6102.xg4ken.com", "xg4ken.com"},
		{"improving.duckduckgo.com", "duckduckgo.com"},
		{"api.qwant.com", "qwant.com"},
		{"a.b.c.example.co.uk", "example.co.uk"},
		{"example.co.uk", "example.co.uk"},
		{"com", "com"},
		{"co.uk", "co.uk"},
		{"", ""},
		{"127.0.0.1", "127.0.0.1"},
		{"bing.com:8080", "bing.com"},
		{"weird.unknowntld", "weird.unknowntld"},
		{"x.y.unknowntld", "y.unknowntld"},
		{"UPPER.Case.COM", "case.com"},
	}
	for _, c := range cases {
		if got := RegistrableDomain(c.host); got != c.want {
			t.Errorf("RegistrableDomain(%q) = %q, want %q", c.host, got, c.want)
		}
	}
}

func TestSameSite(t *testing.T) {
	if !SameSite("www.bing.com", "bing.com") {
		t.Error("www.bing.com and bing.com should be same-site")
	}
	if SameSite("bing.com", "google.com") {
		t.Error("bing.com and google.com must not be same-site")
	}
	if SameSite("", "") {
		t.Error("empty hosts are not a site")
	}
}

func TestHostname(t *testing.T) {
	cases := []struct{ in, want string }{
		{"bing.com:443", "bing.com"},
		{"bing.com", "bing.com"},
		{"bing.com:", "bing.com:"},
		{"bing.com:abc", "bing.com:abc"},
	}
	for _, c := range cases {
		if got := Hostname(c.in); got != c.want {
			t.Errorf("Hostname(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestOrigin(t *testing.T) {
	u := MustParse("https://Ad.DoubleClick.net/ddm/clk?x=1")
	o := OriginOf(u)
	if o.String() != "https://ad.doubleclick.net" {
		t.Errorf("origin = %q", o.String())
	}
	if o.Site() != "doubleclick.net" {
		t.Errorf("site = %q", o.Site())
	}
}

func TestWithParamDoesNotMutate(t *testing.T) {
	u := MustParse("https://x.com/path?a=1")
	v := WithParam(u, "gclid", "abc")
	if u.RawQuery != "a=1" {
		t.Fatalf("original mutated: %q", u.RawQuery)
	}
	if got, _ := Param(v, "gclid"); got != "abc" {
		t.Fatalf("param not set: %q", v.RawQuery)
	}
	if got, _ := Param(v, "a"); got != "1" {
		t.Fatalf("existing param lost: %q", v.RawQuery)
	}
}

func TestWithParams(t *testing.T) {
	u := MustParse("https://x.com/")
	v := WithParams(u, map[string]string{"b": "2", "a": "1"})
	if v.RawQuery != "a=1&b=2" {
		t.Fatalf("RawQuery = %q", v.RawQuery)
	}
}

func TestParamAbsent(t *testing.T) {
	u := MustParse("https://x.com/?a=1")
	if _, ok := Param(u, "missing"); ok {
		t.Fatal("missing param reported present")
	}
}

func TestResolve(t *testing.T) {
	base := MustParse("https://startpage.com/do/search")
	got, err := Resolve(base, "/sp/cl?pos=2")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != "https://startpage.com/sp/cl?pos=2" {
		t.Fatalf("resolved = %q", got)
	}
	if _, err := Resolve(base, "http://%zz"); err == nil {
		t.Fatal("expected error for malformed ref")
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse did not panic on bad URL")
		}
	}()
	MustParse("http://%zz")
}

func TestIsHTTP(t *testing.T) {
	if !IsHTTP(MustParse("http://a.com")) || !IsHTTP(MustParse("https://a.com")) {
		t.Fatal("http(s) not recognised")
	}
	if IsHTTP(MustParse("ftp://a.com")) {
		t.Fatal("ftp recognised as http")
	}
}

// Property: RegistrableDomain is idempotent and always a suffix of the input.
func TestRegistrableDomainProperties(t *testing.T) {
	hosts := []string{
		"a.b.c.com", "x.co.uk", "deep.sub.domain.xg4ken.com", "netrk.net",
		"one.two.three.four.five.org", "hello.fr", "t.de",
	}
	for _, h := range hosts {
		d := RegistrableDomain(h)
		if RegistrableDomain(d) != d {
			t.Errorf("not idempotent for %q: %q -> %q", h, d, RegistrableDomain(d))
		}
		if d != h && len(d) >= len(h) {
			t.Errorf("domain %q not shorter than host %q", d, h)
		}
	}
}

func TestWithParamQuickProperty(t *testing.T) {
	f := func(key, value string) bool {
		if key == "" {
			return true
		}
		u := MustParse("https://site.example/landing")
		v := WithParam(u, key, value)
		got, ok := Param(v, key)
		return ok && got == value
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestParamMatchesNetURL pins the RawQuery-scanning Param against the
// url.Values semantics it replaced, across escaping, multi-value,
// flag-style, and malformed shapes.
func TestParamMatchesNetURL(t *testing.T) {
	queries := []string{
		"",
		"q=shoes",
		"q=best+shoes&pos=2",
		"next=https%3A%2F%2Fa.example%2Fb%3Fc%3Dd",
		"a=1&a=2&b=3",
		"flag&x=1",
		"x=1&flag",
		"weird%20key=v",
		"v=%zz",       // invalid escape: net/url drops the pair
		"a=1;b=2&c=3", // ';' pair is rejected by modern net/url
		"empty=&after=1",
		"q=%E2%9C%93",
	}
	keys := []string{"q", "pos", "next", "a", "b", "c", "flag", "x", "weird key", "v", "empty", "after", "missing"}
	for _, raw := range queries {
		u := &url.URL{Scheme: "https", Host: "h.example", RawQuery: raw}
		want, _ := url.ParseQuery(raw) // ParseQuery keeps valid pairs even on error
		for _, k := range keys {
			gotV, gotOK := Param(u, k)
			wantVs, wantOK := want[k]
			if gotOK != wantOK {
				t.Errorf("query %q key %q: present=%v, net/url says %v", raw, k, gotOK, wantOK)
				continue
			}
			if wantOK && gotV != wantVs[0] {
				t.Errorf("query %q key %q: value %q, net/url says %q", raw, k, gotV, wantVs[0])
			}
		}
	}
}

// TestAppendQueryMatchesQueryEscape pins the builder-based escaping
// against url.QueryEscape byte for byte.
func TestAppendQueryMatchesQueryEscape(t *testing.T) {
	for _, v := range []string{
		"", "plain", "two words", "https://a.example/b?c=d&e=f",
		"uniçode✓", "a%b", "x=y&z", "100%", "~.-_", "+plus+",
	} {
		var b strings.Builder
		AppendQuery(&b, "k", v)
		if want := "k=" + url.QueryEscape(v); b.String() != want {
			t.Errorf("AppendQuery(%q) = %q, want %q", v, b.String(), want)
		}
	}
}

// TestWithParamAppendSemantics covers the append fast path: fresh keys
// append in call order without re-encoding the existing query, existing
// keys are replaced, and the decorated value round-trips through Param.
func TestWithParamAppendSemantics(t *testing.T) {
	u := MustParse("https://shop.example/landing")
	u = WithParam(u, "gclid", "Cj0K+QjW/x")
	u = WithParam(u, "dl", "a b")
	if got := u.RawQuery; got != "gclid=Cj0K%2BQjW%2Fx&dl=a+b" {
		t.Fatalf("RawQuery = %q", got)
	}
	for k, want := range map[string]string{"gclid": "Cj0K+QjW/x", "dl": "a b"} {
		if got, ok := Param(u, k); !ok || got != want {
			t.Fatalf("Param(%s) = %q, %v", k, got, ok)
		}
	}
	// Replacement path still works.
	u = WithParam(u, "gclid", "new")
	if got, _ := Param(u, "gclid"); got != "new" {
		t.Fatalf("replaced gclid = %q", got)
	}
}

// TestDecorateMatchesWithParamFold pins Decorate to folding WithParam
// over the pairs and calling String: the one-pass append when every key
// is fresh, and the replace-if-present fold when a key is already in the
// query or repeats within the pairs.
func TestDecorateMatchesWithParamFold(t *testing.T) {
	for _, c := range []struct {
		raw string
		kv  []string
	}{
		{"https://shop.example/land", nil},
		{"https://shop.example/land", []string{"gclid", "Cj0K+QjW/x"}},
		{"https://shop.example/land?a=1", []string{"gclid", "g", "irclickid", "a b&c=d"}},
		{"https://shop.example/land#frag", []string{"msclkid", "m"}},
		{"https://shop.example/ä?x=%25", []string{"k", "ü%"}},
		{"https://shop.example/land?gclid=old&z=1", []string{"gclid", "new", "msclkid", "m"}}, // present: replace
		{"https://shop.example/land?b=2", []string{"a", "1", "a", "2"}},                       // repeated within kv
		{"https://shop.example/land?weird%20key=v", []string{"weird key", "w"}},               // present once unescaped
	} {
		u := MustParse(c.raw)
		want := u
		for i := 0; i < len(c.kv); i += 2 {
			want = WithParam(want, c.kv[i], c.kv[i+1])
		}
		if got := Decorate(u, c.kv...); got != want.String() {
			t.Errorf("Decorate(%q, %q) = %q, want %q", c.raw, c.kv, got, want.String())
		}
		if u.String() != MustParse(c.raw).String() {
			t.Errorf("Decorate mutated %q", c.raw)
		}
	}
}

// TestResolveFastPathMatchesResolveReference asserts the absolute-URL
// fast path returns what ResolveReference would have.
func TestResolveFastPathMatchesResolveReference(t *testing.T) {
	base := MustParse("https://base.example/dir/page")
	for _, ref := range []string{
		"https://a.example/landing?gclid=x",
		"http://b.example/p/q#frag",
		"https://c.example/",
		"https://d.example/a/../b", // dot segments must take the slow path
		"https://d.example/a/..",   // trailing dot segments too
		"https://d.example/a/.",
		"https://d.example/.well-known/x",
		"/rooted/path",
		"relative/path",
		"?q=1",
		"https://e.example", // empty path
	} {
		got, err := Resolve(base, ref)
		if err != nil {
			t.Fatalf("Resolve(%q): %v", ref, err)
		}
		r, _ := url.Parse(ref)
		want := base.ResolveReference(r)
		if got.String() != want.String() {
			t.Errorf("Resolve(%q) = %q, ResolveReference says %q", ref, got.String(), want.String())
		}
	}
}
