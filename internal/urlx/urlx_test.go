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

// refWithParam is the url.URL-based single-parameter setter that
// Decorate and WithParams replaced: append the escaped pair when the key
// is absent, otherwise Set it and re-encode the query.
func refWithParam(u *url.URL, key, value string) *url.URL {
	cp := *u
	if _, present := cp.Query()[key]; !present {
		if cp.RawQuery != "" {
			cp.RawQuery += "&"
		}
		cp.RawQuery += url.QueryEscape(key) + "=" + url.QueryEscape(value)
		return &cp
	}
	q := cp.Query()
	q.Set(key, value)
	cp.RawQuery = q.Encode()
	return &cp
}

// withParam sets one parameter through WithParams.
func withParam(u URL, key, value string) URL {
	return WithParams(u, map[string]string{key: value})
}

func TestWithParamDoesNotMutate(t *testing.T) {
	u := MustParse("https://x.com/path?a=1")
	v := withParam(u, "gclid", "abc")
	if u.RawQuery != "a=1" || u.String() != "https://x.com/path?a=1" {
		t.Fatalf("original mutated: %q", u)
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
		v := withParam(u, key, value)
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
		u := FromURL(&url.URL{Scheme: "https", Host: "h.example", RawQuery: raw})
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

// checkQueryEscapeN holds AppendQueryEscapeN, WriteQueryEscapeN and
// QueryEscapeNLen to n applications of url.QueryEscape.
func checkQueryEscapeN(t *testing.T, s string, n int) {
	t.Helper()
	want := s
	for range n {
		want = url.QueryEscape(want)
	}
	if got := string(AppendQueryEscapeN([]byte("pre"), s, n)); got != "pre"+want {
		t.Fatalf("AppendQueryEscapeN(%q, %d) = %q, want %q", s, n, got, "pre"+want)
	}
	var b strings.Builder
	WriteQueryEscapeN(&b, s, n)
	if b.String() != want {
		t.Fatalf("WriteQueryEscapeN(%q, %d) = %q, want %q", s, n, b.String(), want)
	}
	if got := QueryEscapeNLen(s, n); got != len(want) {
		t.Fatalf("QueryEscapeNLen(%q, %d) = %d, want %d", s, n, got, len(want))
	}
}

// TestQueryEscapeNMatchesRepeatedQueryEscape: escaping at depth n is
// url.QueryEscape applied n times, at every depth a redirect chain
// reaches and well past it, over inputs long enough to span
// WriteQueryEscapeN's chunks.
func TestQueryEscapeNMatchesRepeatedQueryEscape(t *testing.T) {
	long := strings.Repeat("a b%c+ü/", 40)
	for _, s := range []string{
		"", "plain", "two words", "https://a.example/b?c=d&e=f+g h",
		"uniçode✓", "a%b", "100%", "~.-_", "+plus+", " ", long,
	} {
		for n := range 12 {
			checkQueryEscapeN(t, s, n)
		}
		checkQueryEscapeN(t, s, 100)
	}
}

// FuzzQueryEscapeN holds the depth-n escape to n applications of
// url.QueryEscape for arbitrary bytes and depths up to 16.
func FuzzQueryEscapeN(f *testing.F) {
	f.Add("https://shop.example/a b?q=100%&x=ü+y", uint8(3))
	f.Add("", uint8(0))
	f.Add(" ", uint8(2))
	f.Fuzz(func(t *testing.T, s string, n uint8) {
		checkQueryEscapeN(t, s, int(n%17))
	})
}

// TestWithParamAppendSemantics covers the append fast path: fresh keys
// append in call order without re-encoding the existing query, existing
// keys are replaced, and the decorated value round-trips through Param.
func TestWithParamAppendSemantics(t *testing.T) {
	u := MustParse("https://shop.example/landing")
	u = withParam(u, "gclid", "Cj0K+QjW/x")
	u = withParam(u, "dl", "a b")
	if got := u.RawQuery; got != "gclid=Cj0K%2BQjW%2Fx&dl=a+b" {
		t.Fatalf("RawQuery = %q", got)
	}
	for k, want := range map[string]string{"gclid": "Cj0K+QjW/x", "dl": "a b"} {
		if got, ok := Param(u, k); !ok || got != want {
			t.Fatalf("Param(%s) = %q, %v", k, got, ok)
		}
	}
	// Replacement path still works.
	u = withParam(u, "gclid", "new")
	if got, _ := Param(u, "gclid"); got != "new" {
		t.Fatalf("replaced gclid = %q", got)
	}
}

// TestDecorateMatchesWithParamFold pins Decorate to folding the
// url.URL-based refWithParam over the pairs and calling String: the
// one-pass append when every key is fresh, and the replace-if-present
// fold when a key is already in the query or repeats within the pairs.
// The decorated URL's parts must be the url.URL's too.
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
		{"https://shop.example/land?", []string{"k", "v"}},                                    // ForceQuery
		{"https://shop.example/land?#f?g", []string{"k", "v"}},                                // '?' in the fragment
		{"https://shop.example/land?k=1#f", []string{"k", "2"}},                               // replace keeps the fragment
	} {
		u := MustParse(c.raw)
		want, _ := url.Parse(c.raw)
		for i := 0; i < len(c.kv); i += 2 {
			want = refWithParam(want, c.kv[i], c.kv[i+1])
		}
		got := Decorate(u, c.kv...)
		if got.String() != want.String() {
			t.Errorf("Decorate(%q, %q) = %q, want %q", c.raw, c.kv, got, want.String())
		}
		if got != FromURL(want) {
			t.Errorf("Decorate(%q, %q) parts = %+v, want %+v", c.raw, c.kv, got, FromURL(want))
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
	refBase, _ := url.Parse(base.String())
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
		want := refBase.ResolveReference(r)
		if got != FromURL(want) {
			t.Errorf("Resolve(%q) = %+v, ResolveReference says %+v", ref, got, FromURL(want))
		}
	}
}

// FuzzResolve holds Parse and Resolve to net/url: Parse(raw) is
// url.Parse(raw) with String, Resolve(base, ref) is url.Parse(ref)
// resolved by ResolveReference against url.Parse(base) with String,
// part for part, and each fails exactly where net/url fails.
func FuzzResolve(f *testing.F) {
	for _, seed := range [][2]string{
		{"https://base.example/dir/page", "https://a.example/landing?gclid=x"},
		{"https://base.example/dir/page", "/rooted/path?q=1"},
		{"https://base.example/dir/page", "relative/../path"},
		{"https://base.example/dir/page?x=1#f", "?q=1"},
		{"https://base.example/dir/page", "#frag"},
		{"https://base.example/dir/page", "//other.example/x"},
		{"https://base.example/dir/page", "https://d.example/a/../b"},
		{"https://base.example/dir/page", "HTTP://Upper.Example/P%41th?Q=1"},
		{"https://user:pw@base.example:8080/a%2Fb", "c"},
		{"http://a.example/b?", "https://c.example/d?"},
		{"mailto:x@example.com", "https://a.example/"},
		{"https://base.example/", "http://%zz"},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, base, ref string) {
		b, err := Parse(base)
		refBase, refErr := url.Parse(base)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("Parse(%q) error %v, url.Parse error %v", base, err, refErr)
		}
		if err != nil {
			return
		}
		if b != FromURL(refBase) {
			t.Fatalf("Parse(%q) = %+v, url.Parse gives %+v", base, b, FromURL(refBase))
		}
		got, err := Resolve(b, ref)
		r, refErr := url.Parse(ref)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("Resolve(%q, %q) error %v, url.Parse error %v", base, ref, err, refErr)
		}
		if err != nil {
			return
		}
		if want := FromURL(refBase.ResolveReference(r)); got != want {
			t.Fatalf("Resolve(%q, %q) = %+v, ResolveReference gives %+v", base, ref, got, want)
		}
	})
}
