package browser

import (
	"reflect"
	"testing"

	"searchads/internal/detrand"
	"searchads/internal/netsim"
	"searchads/internal/storage"
)

// TestResetLeavesNewState drives a browser through navigation, scripts,
// cookies, storage and a click, Resets it under different options, and
// requires exactly the state New builds for those options. The request
// and cookie slabs and the navigation result's hop and cookie-name
// storage differ only in the storage Reset keeps.
func TestResetLeavesNewState(t *testing.T) {
	n := buildWorld(t)
	b := New(n, Options{Seed: detrand.New(7), Client: "first"})
	if _, err := b.Navigate("https://a.com/"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Click(b.Page().Root.Children[0]); err != nil {
		t.Fatal(err)
	}
	if b.Jar().Len() == 0 || b.LocalStorage().Len() == 0 || len(b.ExtensionRequests()) == 0 {
		t.Fatal("the first profile left no state to reset")
	}
	n.Clock().Advance(3600e9)

	for _, opts := range []Options{
		{Seed: detrand.New(8), Client: "second"},
		{Seed: detrand.New(9), Client: "third", StorageMode: storage.Partitioned,
			Fingerprint: DefaultHeadlessFingerprint(), Countermeasures: Countermeasures{RotateAfter: 1}},
	} {
		b.Reset(n, opts)
		want := New(n, opts)
		got := *b
		got.reqSlab, want.reqSlab = nil, nil
		got.cookieSlab, want.cookieSlab = nil, nil
		got.nav.Hops, want.nav.Hops = nil, nil
		got.navNames, want.navNames = nil, nil
		if !reflect.DeepEqual(&got, want) {
			t.Errorf("Reset(%+v) left %+v, New builds %+v", opts, &got, want)
		}
	}
}

// TestResetZeroesRetainedRequests checks that a request and a
// navigation result kept past Reset read as zero values, cookies and
// set-cookie names included, rather than aliasing the next profile's
// traffic.
func TestResetZeroesRetainedRequests(t *testing.T) {
	n := buildWorld(t)
	b := newBrowser(t, n)
	b.Navigate("https://a.com/")
	res, _ := b.Navigate("https://a.com/again") // sends the a_session cookie
	hops := res.Hops
	var names []string
	for _, h := range hops {
		if len(h.SetCookieNames) > 0 {
			names = h.SetCookieNames
		}
	}
	if len(hops) == 0 || names == nil {
		t.Fatal("the navigation recorded no hop setting a cookie")
	}
	var kept *netsim.Request
	for _, req := range b.ExtensionRequests() {
		if len(req.Cookies) > 0 {
			kept = req
		}
	}
	if kept == nil {
		t.Fatal("no request carried a cookie")
	}
	cookies := kept.Cookies
	b.Reset(n, Options{Seed: detrand.New(7)})
	if !kept.URL.IsZero() || kept.Cookies != nil || kept.Client != "" {
		t.Errorf("request kept past Reset reads %+v, want zero values", kept)
	}
	for i, c := range cookies {
		if c != nil {
			t.Errorf("cookie %d kept past Reset reads %+v, want nil", i, c)
		}
	}
	if len(b.ExtensionRequests()) != 0 || len(b.CrawlerRequests()) != 0 {
		t.Error("Reset left requests in the logs")
	}
	for i, h := range hops {
		if !reflect.DeepEqual(h, Hop{}) {
			t.Errorf("hop %d kept past Reset reads %+v, want zero values", i, h)
		}
	}
	for i, name := range names {
		if name != "" {
			t.Errorf("set-cookie name %d kept past Reset reads %q, want empty", i, name)
		}
	}
}
