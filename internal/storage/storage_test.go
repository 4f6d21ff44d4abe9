package storage

import (
	"slices"
	"strings"
	"testing"
	"time"

	"searchads/internal/netsim"
	"searchads/internal/urlx"
)

var t0 = time.Date(2022, 9, 1, 9, 0, 0, 0, time.UTC)

func TestHostOnlyCookie(t *testing.T) {
	j := NewJar(Flat)
	j.SetCookies(t0, urlx.MustParse("https://www.bing.com/"), "bing.com", []*netsim.Cookie{
		netsim.NewCookie("MUID", "abc"),
	})
	// Host-only: sent back to www.bing.com, not to bing.com.
	if got := j.Cookies(t0, urlx.MustParse("https://www.bing.com/fd/ls"), "bing.com", false); len(got) != 1 {
		t.Fatalf("want cookie at setting host, got %d", len(got))
	}
	if got := j.Cookies(t0, urlx.MustParse("https://bing.com/"), "bing.com", false); len(got) != 0 {
		t.Fatalf("host-only cookie leaked to apex: %d", len(got))
	}
}

func TestDomainCookie(t *testing.T) {
	j := NewJar(Flat)
	j.SetCookies(t0, urlx.MustParse("https://www.bing.com/"), "bing.com", []*netsim.Cookie{
		netsim.NewCookie("MUID", "abc").WithDomain(".bing.com"),
	})
	for _, h := range []string{"bing.com", "www.bing.com", "ads.bing.com"} {
		if got := j.Cookies(t0, urlx.MustParse("https://"+h+"/"), "bing.com", false); len(got) != 1 {
			t.Errorf("domain cookie not sent to %s", h)
		}
	}
	if got := j.Cookies(t0, urlx.MustParse("https://bing.com.evil.example/"), "evil.example", false); len(got) != 0 {
		t.Fatal("domain cookie sent to non-matching host")
	}
}

func TestRejectForeignAndSuffixDomains(t *testing.T) {
	j := NewJar(Flat)
	j.SetCookies(t0, urlx.MustParse("https://qwant.com/"), "qwant.com", []*netsim.Cookie{
		netsim.NewCookie("a", "1").WithDomain("bing.com"), // foreign
		netsim.NewCookie("b", "2").WithDomain("com"),      // public suffix
	})
	if j.Len() != 0 {
		t.Fatalf("invalid cookies stored: %d", j.Len())
	}
}

func TestExpiry(t *testing.T) {
	j := NewJar(Flat)
	j.SetCookies(t0, urlx.MustParse("https://a.com/"), "a.com", []*netsim.Cookie{
		netsim.NewCookie("short", "1").WithTTL(t0, time.Minute),
		netsim.NewCookie("long", "2").WithTTL(t0, 24*time.Hour),
		netsim.NewCookie("session", "3"),
	})
	later := t0.Add(time.Hour)
	got := j.Cookies(later, urlx.MustParse("https://a.com/"), "a.com", false)
	names := map[string]bool{}
	for _, c := range got {
		names[c.Name] = true
	}
	if names["short"] || !names["long"] || !names["session"] {
		t.Fatalf("expiry wrong: %v", names)
	}
	// Setting an already-expired cookie deletes it.
	j.SetCookies(later, urlx.MustParse("https://a.com/"), "a.com", []*netsim.Cookie{
		netsim.NewCookie("long", "x").WithTTL(later, -time.Second),
	})
	if _, ok := j.Get("a.com", "long"); ok {
		t.Fatal("expired re-set should delete cookie")
	}
	if all := j.All(later.Add(48 * time.Hour)); len(all) != 1 || all[0].Name != "session" {
		t.Fatalf("All after expiry = %v", all)
	}
}

func TestPathMatching(t *testing.T) {
	j := NewJar(Flat)
	c := netsim.NewCookie("p", "1")
	c.Path = "/ads"
	j.SetCookies(t0, urlx.MustParse("https://a.com/ads/x"), "a.com", []*netsim.Cookie{c})
	if got := j.Cookies(t0, urlx.MustParse("https://a.com/ads/click"), "a.com", false); len(got) != 1 {
		t.Fatal("path prefix should match")
	}
	if got := j.Cookies(t0, urlx.MustParse("https://a.com/adsense"), "a.com", false); len(got) != 0 {
		t.Fatal("/adsense must not match path /ads")
	}
	if got := j.Cookies(t0, urlx.MustParse("https://a.com/ads"), "a.com", false); len(got) != 1 {
		t.Fatal("exact path should match")
	}
}

func TestSecureAttribute(t *testing.T) {
	j := NewJar(Flat)
	c := netsim.NewCookie("s", "1")
	c.Secure = true
	j.SetCookies(t0, urlx.MustParse("https://a.com/"), "a.com", []*netsim.Cookie{c})
	if got := j.Cookies(t0, urlx.MustParse("http://a.com/"), "a.com", false); len(got) != 0 {
		t.Fatal("secure cookie sent over http")
	}
	if got := j.Cookies(t0, urlx.MustParse("https://a.com/"), "a.com", false); len(got) != 1 {
		t.Fatal("secure cookie missing over https")
	}
}

func TestSameSiteSubresource(t *testing.T) {
	j := NewJar(Flat)
	lax := netsim.NewCookie("lax", "1")
	lax.SameSite = netsim.SameSiteLax
	none := netsim.NewCookie("none", "1")
	none.SameSite = netsim.SameSiteNone
	deflt := netsim.NewCookie("default", "1")
	j.SetCookies(t0, urlx.MustParse("https://tracker.com/"), "site-a.com", []*netsim.Cookie{lax, none, deflt})

	// Cross-site subresource: only SameSite=None.
	got := j.Cookies(t0, urlx.MustParse("https://tracker.com/pixel"), "site-b.com", false)
	if len(got) != 1 || got[0].Name != "none" {
		t.Fatalf("cross-site subresource cookies = %v", names(got))
	}
	// Cross-site top-level navigation: Lax + None + default travel.
	got = j.Cookies(t0, urlx.MustParse("https://tracker.com/bounce"), "site-b.com", true)
	if len(got) != 3 {
		t.Fatalf("top-level nav cookies = %v", names(got))
	}
	// Strict never travels cross-site.
	strict := netsim.NewCookie("strict", "1")
	strict.SameSite = netsim.SameSiteStrict
	j.SetCookies(t0, urlx.MustParse("https://tracker.com/"), "site-a.com", []*netsim.Cookie{strict})
	got = j.Cookies(t0, urlx.MustParse("https://tracker.com/bounce"), "site-b.com", true)
	for _, c := range got {
		if c.Name == "strict" {
			t.Fatal("strict cookie sent on cross-site navigation")
		}
	}
}

func names(cs []*netsim.Cookie) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = c.Name
	}
	return out
}

// TestPartitionedIsolation reproduces Figure 1: in partitioned mode a
// tracker embedded on two sites sees two different storage areas; in flat
// mode it sees one.
func TestPartitionedIsolation(t *testing.T) {
	mk := func(mode Mode) *Jar {
		j := NewJar(mode)
		none := func(v string) *netsim.Cookie {
			c := netsim.NewCookie("t_uid", v)
			c.SameSite = netsim.SameSiteNone
			return c
		}
		// Tracker sets t_uid=01 while embedded on a.com.
		j.SetCookies(t0, urlx.MustParse("https://tracker.com/px"), "a.com", []*netsim.Cookie{none("01")})
		return j
	}

	flat := mk(Flat)
	// On b.com the flat jar returns the same cookie -> cross-site tracking.
	if got := flat.Cookies(t0, urlx.MustParse("https://tracker.com/px"), "b.com", false); len(got) != 1 || got[0].Value != "01" {
		t.Fatalf("flat jar: %v", got)
	}

	part := mk(Partitioned)
	// On b.com the partitioned jar has nothing for the tracker.
	if got := part.Cookies(t0, urlx.MustParse("https://tracker.com/px"), "b.com", false); len(got) != 0 {
		t.Fatalf("partitioned jar leaked across sites: %v", got)
	}
	// Back on a.com the cookie is still there.
	if got := part.Cookies(t0, urlx.MustParse("https://tracker.com/px"), "a.com", false); len(got) != 1 {
		t.Fatal("partitioned jar lost its own partition")
	}
}

// TestBounceTrackingSurvivesPartitioning reproduces §2.2.2: a redirector
// is first-party during the bounce, so it reads its own partition every
// time regardless of where the user came from.
func TestBounceTrackingSurvivesPartitioning(t *testing.T) {
	j := NewJar(Partitioned)
	// During a bounce via r.com the top-level site IS r.com.
	j.SetCookies(t0, urlx.MustParse("https://r.com/redirect"), "r.com", []*netsim.Cookie{
		netsim.NewCookie("r_uid", "01"),
	})
	// A later bounce (from any other origin pair) sees the same cookie.
	got := j.Cookies(t0, urlx.MustParse("https://r.com/redirect"), "r.com", true)
	if len(got) != 1 || got[0].Value != "01" {
		t.Fatal("redirector could not re-identify user across bounces")
	}
}

func TestCHIPSPartitionedAttributeOnFlatJar(t *testing.T) {
	j := NewJar(Flat)
	c := netsim.NewCookie("chips", "1")
	c.Partitioned = true
	c.SameSite = netsim.SameSiteNone
	j.SetCookies(t0, urlx.MustParse("https://tracker.com/"), "a.com", []*netsim.Cookie{c})
	if got := j.Cookies(t0, urlx.MustParse("https://tracker.com/"), "b.com", false); len(got) != 0 {
		t.Fatal("CHIPS cookie leaked across partitions on flat jar")
	}
	if got := j.Cookies(t0, urlx.MustParse("https://tracker.com/"), "a.com", false); len(got) != 1 {
		t.Fatal("CHIPS cookie missing in own partition")
	}
}

func TestReplacementSemantics(t *testing.T) {
	j := NewJar(Flat)
	j.SetCookies(t0, urlx.MustParse("https://a.com/"), "a.com", []*netsim.Cookie{netsim.NewCookie("k", "1")})
	j.SetCookies(t0.Add(time.Second), urlx.MustParse("https://a.com/"), "a.com", []*netsim.Cookie{netsim.NewCookie("k", "2")})
	if v, _ := j.Get("a.com", "k"); v != "2" {
		t.Fatalf("value = %q, want replacement", v)
	}
	if j.Len() != 1 {
		t.Fatalf("len = %d, want 1", j.Len())
	}
}

// TestAppendedCookiesSurviveReplacement checks the aliasing contract of
// AppendCookies: the cookies it hands out are the jar's, yet one kept
// after the jar replaces, expires or clears the stored cookie still
// reads the name and value it was sent with. It also checks that
// AppendCookies extends dst and that Cookies is AppendCookies(nil, ...).
func TestAppendedCookiesSurviveReplacement(t *testing.T) {
	j := NewJar(Flat)
	u := urlx.MustParse("https://www.bing.com/")
	j.SetCookies(t0, u, "bing.com", []*netsim.Cookie{
		netsim.NewCookie("MUID", "v1"),
		netsim.NewCookie("short", "s1").WithTTL(t0, time.Minute),
	})
	prefix := []*netsim.Cookie{netsim.NewCookie("earlier", "x")}
	got := j.AppendCookies(prefix, t0, u, "bing.com", false)
	if len(got) != 3 || got[0] != prefix[0] {
		t.Fatalf("AppendCookies onto one cookie = %v, want it kept plus two", names(got))
	}
	if want := j.Cookies(t0, u, "bing.com", false); !slices.Equal(names(got[1:]), names(want)) {
		t.Fatalf("AppendCookies appended %v, Cookies returns %v", names(got[1:]), names(want))
	}
	kept := got[1:]

	j.SetCookies(t0, u, "bing.com", []*netsim.Cookie{netsim.NewCookie("MUID", "v2")})
	later := t0.Add(time.Hour)
	if now := j.Cookies(later, u, "bing.com", false); len(now) != 1 || now[0].Value != "v2" {
		t.Fatalf("after replacement and expiry the jar sends %v", names(now))
	}
	j.Clear()
	if kept[0].Name != "MUID" || kept[0].Value != "v1" || kept[1].Name != "short" || kept[1].Value != "s1" {
		t.Errorf("cookies kept past replacement, expiry and Clear read %v=%v, %v=%v; want MUID=v1, short=s1",
			kept[0].Name, kept[0].Value, kept[1].Name, kept[1].Value)
	}
}

func TestJarClearAndMode(t *testing.T) {
	j := NewJar(Partitioned)
	j.SetCookies(t0, urlx.MustParse("https://a.com/"), "a.com", []*netsim.Cookie{netsim.NewCookie("k", "1")})
	j.Clear()
	if j.Len() != 0 {
		t.Fatal("clear failed")
	}
	if j.Mode() != Partitioned || j.Mode().String() != "partitioned" {
		t.Fatal("mode accessor wrong")
	}
	if Flat.String() != "flat" {
		t.Fatal("flat mode string wrong")
	}
}

func TestIgnoresNilAndNameless(t *testing.T) {
	j := NewJar(Flat)
	j.SetCookies(t0, urlx.MustParse("https://a.com/"), "a.com", []*netsim.Cookie{nil, netsim.NewCookie("", "x")})
	if j.Len() != 0 {
		t.Fatal("invalid cookies stored")
	}
}

func TestCookieOrderingDeterministic(t *testing.T) {
	j := NewJar(Flat)
	long := netsim.NewCookie("deep", "1")
	long.Path = "/a/b"
	j.SetCookies(t0, urlx.MustParse("https://a.com/a/b"), "a.com", []*netsim.Cookie{long})
	j.SetCookies(t0.Add(time.Second), urlx.MustParse("https://a.com/"), "a.com", []*netsim.Cookie{
		netsim.NewCookie("z", "1"), netsim.NewCookie("a", "1"),
	})
	got := names(j.Cookies(t0.Add(time.Minute), urlx.MustParse("https://a.com/a/b"), "a.com", false))
	want := []string{"deep", "a", "z"} // longest path first, then name
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

// TestGetOrderTotal: with two cookies of one domain and name on
// different paths, Get returns the same one from every fresh jar — the
// first in All's order, so path "/" before "/x" — not whichever map
// iteration reaches first.
func TestGetOrderTotal(t *testing.T) {
	for i := 0; i < 200; i++ {
		j := NewJar(Flat)
		deep := netsim.NewCookie("k", "deep")
		deep.Path = "/x"
		j.SetCookies(t0, urlx.MustParse("https://a.com/x"), "a.com", []*netsim.Cookie{netsim.NewCookie("k", "root"), deep})
		if v, ok := j.Get("a.com", "k"); !ok || v != "root" {
			t.Fatalf("jar %d: Get = %q, %v; want root", i, v, ok)
		}
	}
}

// TestCookieOrderTotal: cookies that tie on every earlier sort key
// still come out in one order, in every fresh jar. A partial order would
// leave them in map-iteration order, which varies from jar to jar and
// would flow into recorded cookies and dataset bytes.
func TestCookieOrderTotal(t *testing.T) {
	var wantAll, wantSent []string
	for i := 0; i < 50; i++ {
		j := NewJar(Flat)
		// All: same partition, domain and name; only the path differs.
		atA := netsim.NewCookie("id", "2")
		atA.Path = "/a"
		j.SetCookies(t0, urlx.MustParse("https://a.com/a"), "a.com", []*netsim.Cookie{netsim.NewCookie("id", "1"), atA})
		// Cookies: same path, creation time and name; only the domain
		// differs (host-only on www.b.com, domain cookie on b.com).
		j.SetCookies(t0, urlx.MustParse("https://www.b.com/"), "b.com", []*netsim.Cookie{
			netsim.NewCookie("sid", "host"), netsim.NewCookie("sid", "domain").WithDomain("b.com"),
		})
		var all []string
		for _, c := range j.All(t0) {
			all = append(all, c.Domain+c.Path+"="+c.Value)
		}
		var sent []string
		for _, c := range j.Cookies(t0, urlx.MustParse("https://www.b.com/"), "b.com", false) {
			sent = append(sent, c.Value)
		}
		if i == 0 {
			wantAll, wantSent = all, sent
			continue
		}
		if strings.Join(all, " ") != strings.Join(wantAll, " ") {
			t.Fatalf("jar %d: All order %v, first jar gave %v", i, all, wantAll)
		}
		if strings.Join(sent, " ") != strings.Join(wantSent, " ") {
			t.Fatalf("jar %d: Cookies order %v, first jar gave %v", i, sent, wantSent)
		}
	}
}

// TestAppendAllKeepsPrefix: AppendAll leaves what dst already holds in
// place and appends exactly All's dump after it, expired cookies left
// out, so a buffer reused across crawl stages reads each stage's dump.
func TestAppendAllKeepsPrefix(t *testing.T) {
	j := NewJar(Partitioned)
	gone := netsim.NewCookie("gone", "x")
	gone.Expires = t0.Add(time.Second)
	j.SetCookies(t0, urlx.MustParse("https://b.com/"), "b.com", []*netsim.Cookie{netsim.NewCookie("z", "1"), gone})
	j.SetCookies(t0, urlx.MustParse("https://a.com/"), "c.com", []*netsim.Cookie{netsim.NewCookie("a", "2")})
	now := t0.Add(time.Minute)
	prefix := StoredCookie{Domain: "prefix.example", Name: "keep"}
	got := j.AppendAll([]StoredCookie{prefix}, now)
	want := j.All(now)
	if len(want) != 2 || len(got) != 1+len(want) || got[0] != prefix {
		t.Fatalf("AppendAll = %+v, want the prefix then %+v", got, want)
	}
	for i := range want {
		if got[1+i] != want[i] {
			t.Fatalf("AppendAll[%d] = %+v, want %+v", 1+i, got[1+i], want[i])
		}
	}
}

func TestLocalStorageModes(t *testing.T) {
	flat := NewLocalStorage(Flat)
	flat.Set("a.com", "https://tracker.com", "uid", "01")
	if v, ok := flat.Get("b.com", "https://tracker.com", "uid"); !ok || v != "01" {
		t.Fatal("flat localStorage should be shared across top-level sites")
	}

	part := NewLocalStorage(Partitioned)
	part.Set("a.com", "https://tracker.com", "uid", "01")
	if _, ok := part.Get("b.com", "https://tracker.com", "uid"); ok {
		t.Fatal("partitioned localStorage leaked")
	}
	if v, ok := part.Get("a.com", "https://tracker.com", "uid"); !ok || v != "01" {
		t.Fatal("partitioned localStorage lost own partition")
	}
}

func TestLocalStorageDumpAndClear(t *testing.T) {
	ls := NewLocalStorage(Flat)
	ls.Set("a.com", "https://x.com", "k2", "v2")
	ls.Set("a.com", "https://x.com", "k1", "v1")
	ls.Set("a.com", "https://a.com", "pref", "dark")
	all := ls.All()
	if len(all) != 3 || ls.Len() != 3 {
		t.Fatalf("len = %d / %d", len(all), ls.Len())
	}
	if all[0].Origin != "https://a.com" || all[1].Key != "k1" {
		t.Fatalf("ordering wrong: %+v", all)
	}
	ls.Clear()
	if ls.Len() != 0 {
		t.Fatal("clear failed")
	}
}

// BenchmarkJarCookies times the per-request cookie lookup against a jar
// holding the mix a crawl iteration builds up: first-party identifiers,
// redirector UIDs and third-party tracker cookies across a dozen hosts.
// The request matches three of them.
func BenchmarkJarCookies(b *testing.B) {
	j := NewJar(Flat)
	for i, host := range []string{
		"www.bing.com", "www.googleadservices.com", "ad.doubleclick.net",
		"clickserve.dartsearch.net", "pixel.everesttech.net", "shop.example",
		"www.facebook.com", "analytics.tiktok.com", "bat.bing.com",
		"t.myvisualiq.net", "monitor.clickcease.com", "www.google.com",
	} {
		at := t0.Add(time.Duration(i) * time.Second)
		uid := netsim.NewCookie("uid", "v"+host)
		uid.SameSite = netsim.SameSiteNone
		uid.Secure = true
		j.SetCookies(at, urlx.MustParse("https://"+host+"/"), "bing.com", []*netsim.Cookie{
			uid,
			netsim.NewCookie("pref", "1").WithDomain(urlx.RegistrableDomain(host)),
		})
	}
	j.SetCookies(t0, urlx.MustParse("https://shop.example/cart"), "shop.example", []*netsim.Cookie{
		{Name: "cart", Value: "3", Path: "/cart"},
	})
	u := urlx.MustParse("https://shop.example/cart/checkout")
	b.ReportAllocs()
	for b.Loop() {
		if got := j.Cookies(t0.Add(time.Minute), u, "shop.example", true); len(got) != 3 {
			b.Fatalf("matched %d cookies", len(got))
		}
	}
}
