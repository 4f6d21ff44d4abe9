package urlx

import (
	"net/url"
	"testing"
)

// TestSplitURLMatchesParse: whenever SplitURL takes the fast path, its
// host, path, and query must equal url.Parse's view of the same URL —
// and it must refuse (ok=false) every shape where the raw bytes would
// diverge from the parsed form.
func TestSplitURLMatchesParse(t *testing.T) {
	fast := []string{
		"https://a.example/path?x=1&y=2",
		"http://a.example/",
		"https://a.example",
		"https://a.example?x=1",
		"https://sub.a.example:8080/p/q?next=https%3A%2F%2Fb.example",
		"HTTPS://UPPER.example/Path?Q=V",
		"https://a.example/path#frag",
		"https://a.example/path?q=1#frag",
		"ws+unix-like.scheme://a.example/x",
		"https://a.example:/emptyport",
	}
	for _, raw := range fast {
		host, path, query, ok := SplitURL(raw)
		if !ok {
			t.Errorf("SplitURL(%q) refused a fast-path shape", raw)
			continue
		}
		u, err := url.Parse(raw)
		if err != nil {
			t.Fatalf("url.Parse(%q): %v", raw, err)
		}
		if host != u.Host || path != u.Path || query != u.RawQuery {
			t.Errorf("SplitURL(%q) = (%q,%q,%q), url.Parse = (%q,%q,%q)",
				raw, host, path, query, u.Host, u.Path, u.RawQuery)
		}
	}
	slow := []string{
		"",
		"relative/path",
		"/rooted?x=1",
		"//protocol-relative.example/x",
		"https://user:pw@a.example/x", // userinfo
		"https://a.example/p%2Fq",     // escaped path decodes
		"https://[2001:db8::1]/x",     // IPv6 brackets
		"https://a.example:port/x",    // non-numeric port (Parse rejects)
		"https://a b.example/x",       // space in host (Parse rejects)
		"1https://a.example/x",        // scheme must start alphabetic
		"mailto:user@example.com",     // no authority
		"https:/a.example/one-slash",
		"https://a.example:80:81/twice", // two colons
		"http://a.example/b\x01c",       // control byte in the path (Parse rejects)
		"http://a.example/p?q=\x7f",     // DEL in the query (Parse rejects)
		"http://a.example/x#fr%zz",      // invalid escape in the fragment (Parse rejects)
	}
	for _, raw := range slow {
		if host, path, query, ok := SplitURL(raw); ok {
			t.Errorf("SplitURL(%q) took the fast path = (%q,%q,%q); must fall back", raw, host, path, query)
		}
	}
}

// TestQueryPairsMatchesParseQuery: QueryPairs must agree with
// url.ParseQuery on pair splitting, unescaping, skip rules, and the
// in-order first occurrence of every key.
func TestQueryPairsMatchesParseQuery(t *testing.T) {
	cases := []string{
		"a=1&b=2",
		"a=1&a=2&a=3",
		"a&b=&=c&d",
		"",
		"&&&",
		"k%20ey=v%20al&plus+key=plus+val",
		"bad=%zz&good=1",   // invalid escape: pair skipped
		"semi;colon=1&x=2", // ';' pair skipped (with an error net/url records)
		"next=https%3A%2F%2Fb.example%2Fp%3Fq%3D1",
		"a=1;b=2",
		"=onlyvalue",
		"novalue",
	}
	for _, rawq := range cases {
		want, _ := url.ParseQuery(rawq) // errors still leave valid pairs parsed
		gotCount := 0
		firsts := map[string]string{}
		var order []string
		QueryPairs(rawq, func(k, v string) bool {
			gotCount++
			if _, seen := firsts[k]; !seen {
				firsts[k] = v
				order = append(order, k)
			}
			return true
		})
		wantCount := 0
		for _, vs := range want {
			wantCount += len(vs)
		}
		if gotCount != wantCount {
			t.Errorf("QueryPairs(%q) yielded %d pairs, ParseQuery has %d", rawq, gotCount, wantCount)
		}
		for k, vs := range want {
			if firsts[k] != vs[0] {
				t.Errorf("QueryPairs(%q) first %q = %q, ParseQuery has %q", rawq, k, firsts[k], vs[0])
			}
		}
		for _, k := range order {
			if _, ok := want[k]; !ok {
				t.Errorf("QueryPairs(%q) yielded key %q that ParseQuery does not have", rawq, k)
			}
		}
	}
}

// TestQueryPairsEarlyStop: returning false stops the walk.
func TestQueryPairsEarlyStop(t *testing.T) {
	n := 0
	QueryPairs("a=1&b=2&c=3", func(k, v string) bool {
		n++
		return false
	})
	if n != 1 {
		t.Fatalf("early stop visited %d pairs, want 1", n)
	}
}

// FuzzSplitURL: SplitURL either refuses or agrees with url.Parse on
// host, decoded path and raw query; it never accepts an input url.Parse
// rejects.
func FuzzSplitURL(f *testing.F) {
	for _, seed := range []string{
		"https://a.example/path?x=1&y=2",
		"https://sub.a.example:8080/p/q?next=https%3A%2F%2Fb.example",
		"HTTPS://UPPER.example/Path?Q=V#frag",
		"http://a.example/b\x01c",
		"http://a.example/p?q=\x7f",
		"http://a.example/x#fr%zz",
		"https://a.example:/emptyport",
		"https://a.example/p%2Fq",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		host, path, query, ok := SplitURL(raw)
		if !ok {
			return
		}
		u, err := url.Parse(raw)
		if err != nil {
			t.Fatalf("SplitURL(%q) accepted an input url.Parse rejects: %v", raw, err)
		}
		if host != u.Host || path != u.Path || query != u.RawQuery {
			t.Fatalf("SplitURL(%q) = (%q,%q,%q), url.Parse = (%q,%q,%q)",
				raw, host, path, query, u.Host, u.Path, u.RawQuery)
		}
	})
}
