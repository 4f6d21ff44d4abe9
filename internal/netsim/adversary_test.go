package netsim

import (
	"net/http"
	"strconv"
	"testing"
	"time"

	"searchads/internal/urlx"
)

// advNetwork installs an adversary-only plan over one echo site.
func advNetwork(t *testing.T, adv AdversaryConfig) *Network {
	t.Helper()
	n := NewNetwork()
	n.HandleSite("shop.example", echoHandler("ok"))
	n.InstallFaults(FaultPlan{Seed: 42, Adversary: adv})
	return n
}

// docRequest builds a top-level document request for the echo site.
func docRequest(client string, i int) *Request {
	return &Request{
		URL:    urlx.MustParse("https://www.shop.example/p/" + strconv.Itoa(i)),
		Client: client,
		Type:   TypeDocument,
		Header: make(http.Header),
	}
}

// outcomeOf classifies one round trip: the fault class, or "" when the
// request reached its origin.
func outcomeOf(t *testing.T, n *Network, req *Request) string {
	t.Helper()
	resp, err := n.RoundTrip(req)
	if err != nil {
		fe, ok := AsFault(err)
		if !ok {
			t.Fatalf("non-fault error: %v", err)
		}
		return string(fe.Class)
	}
	return string(resp.Fault)
}

// TestAdversaryZeroConfigDisarmed: a plan whose adversary is zero never
// arms the suspicion machine, and arming an adversary that never fires
// leaves the i.i.d. fault walk's draws untouched — the stateful streams
// are disjoint from the i.i.d. walk by construction.
func TestAdversaryZeroConfigDisarmed(t *testing.T) {
	n := NewNetwork()
	n.HandleSite("shop.example", echoHandler("ok"))
	n.InstallFaults(FaultPlan{Seed: 5, Rates: FaultRates{HTTP5xx: 0.3}})
	if fs := n.faults.Load(); fs == nil || fs.adv {
		t.Fatal("rates-only plan armed the adversary")
	}
	base := drive(t, n, []string{"c0", "c1"}, 30)

	// Same seed and rates, plus an adversary whose thresholds are far out
	// of reach: the i.i.d. fault sequence must not move.
	armed := NewNetwork()
	armed.HandleSite("shop.example", echoHandler("ok"))
	armed.InstallFaults(FaultPlan{
		Seed:  5,
		Rates: FaultRates{HTTP5xx: 0.3},
		Adversary: AdversaryConfig{
			Burst: 1 << 20, RatePerSec: 1 << 20,
			CaptchaThreshold: 1 << 20, BlockThreshold: 1 << 20,
		},
	})
	if fs := armed.faults.Load(); fs == nil || !fs.adv {
		t.Fatal("adversary plan did not arm")
	}
	for i, cls := range drive(t, armed, []string{"c0", "c1"}, 30) {
		if cls != base[i] {
			t.Fatalf("request %d: arming a dormant adversary moved the i.i.d. walk: %q vs %q", i, cls, base[i])
		}
	}
}

// TestAdversarySuspicionEscalation: over-budget requests accrue
// suspicion that escalates from clean, through CAPTCHA challenges, to
// hard bot walls — and walls feed back into the score.
func TestAdversarySuspicionEscalation(t *testing.T) {
	n := advNetwork(t, AdversaryConfig{
		RatePenalty: 1, WallPenalty: 5,
		CaptchaThreshold: 3, BlockThreshold: 6,
	})
	want := []string{
		"", "", // suspicion 1, 2: clean
		"captcha", "captcha", "captcha", // 3..5: challenged
		"botwall", "botwall", // 6+: walled, and walls escalate further
	}
	for i, w := range want {
		if got := outcomeOf(t, n, docRequest("bot", i)); got != w {
			t.Fatalf("request %d: outcome %q, want %q", i, got, w)
		}
	}
}

// TestAdversaryCaptchaSolveFlow: echoing the advertised token back
// admits the navigation, resets suspicion to SolveReward, and clears
// the pending challenge; a wrong answer burns it.
func TestAdversaryCaptchaSolveFlow(t *testing.T) {
	n := advNetwork(t, AdversaryConfig{
		RatePenalty: 1, CaptchaThreshold: 1, SolveReward: 0,
	})
	resp, err := n.RoundTrip(docRequest("c", 0))
	if err != nil || resp.Fault != FaultCaptcha {
		t.Fatalf("first request: resp=%+v err=%v, want captcha", resp, err)
	}
	token := resp.Header.Get(CaptchaTokenHeader)
	if token == "" {
		t.Fatal("challenge carries no token")
	}

	solved := docRequest("c", 1)
	solved.Header.Set(CaptchaAnswerHeader, token)
	resp, err = n.RoundTrip(solved)
	if err != nil || resp.Fault != "" || resp.Body != "ok" {
		t.Fatalf("genuine solve not admitted: resp=%+v err=%v", resp, err)
	}

	// Suspicion resumed from SolveReward: the next request re-crosses the
	// threshold and is challenged again, with a fresh token.
	resp, err = n.RoundTrip(docRequest("c", 2))
	if err != nil || resp.Fault != FaultCaptcha {
		t.Fatalf("post-solve request: resp=%+v err=%v, want captcha", resp, err)
	}
	if again := resp.Header.Get(CaptchaTokenHeader); again == token {
		t.Fatal("challenge token reused across challenges")
	}

	// A wrong answer burns the pending challenge and the request is
	// re-challenged, not admitted.
	wrong := docRequest("c", 3)
	wrong.Header.Set(CaptchaAnswerHeader, "not-the-token")
	resp, err = n.RoundTrip(wrong)
	if err != nil || resp.Fault != FaultCaptcha {
		t.Fatalf("wrong answer: resp=%+v err=%v, want re-challenge", resp, err)
	}
}

// TestAdversaryBoobyTrappedChallenge: solving a trapped challenge
// proves automation — the answer is met with a wall, not admission.
func TestAdversaryBoobyTrappedChallenge(t *testing.T) {
	n := advNetwork(t, AdversaryConfig{
		RatePenalty: 1, WallPenalty: 5,
		CaptchaThreshold: 1, BlockThreshold: 100,
		BoobyTrapRate: 1,
	})
	resp, err := n.RoundTrip(docRequest("c", 0))
	if err != nil || resp.Fault != FaultCaptcha {
		t.Fatalf("first request: resp=%+v err=%v, want captcha", resp, err)
	}
	solved := docRequest("c", 1)
	solved.Header.Set(CaptchaAnswerHeader, resp.Header.Get(CaptchaTokenHeader))
	resp, err = n.RoundTrip(solved)
	if err != nil || resp.Fault != FaultBotwall {
		t.Fatalf("trapped solve: resp=%+v err=%v, want botwall", resp, err)
	}
}

// TestAdversaryFingerprintPenalty: low-entropy automation markers (the
// headers a stealth fingerprint suppresses) draw suspicion on their
// own, within an otherwise generous budget.
func TestAdversaryFingerprintPenalty(t *testing.T) {
	cfg := AdversaryConfig{
		Burst: 1000, RatePerSec: 1000,
		RatePenalty: 1, FingerprintPenalty: 3,
		CaptchaThreshold: 3,
	}
	naive := docRequest("naive", 0)
	naive.Header.Set("X-Headless", "true")
	if got := outcomeOf(t, advNetwork(t, cfg), naive); got != "captcha" {
		t.Fatalf("headless fingerprint outcome %q, want captcha", got)
	}
	if got := outcomeOf(t, advNetwork(t, cfg), docRequest("stealth", 0)); got != "" {
		t.Fatalf("stealth fingerprint outcome %q, want clean", got)
	}
}

// TestAdversaryOutageWindow: requests inside a hard-down window fail as
// timeouts; the window bounds are half-open on virtual time and honour
// the site restriction.
func TestAdversaryOutageWindow(t *testing.T) {
	n := NewNetwork()
	n.HandleSite("shop.example", echoHandler("ok"))
	n.HandleSite("cdn.example", echoHandler("ok"))
	n.InstallFaults(FaultPlan{Seed: 1, Adversary: AdversaryConfig{
		Outages: []Window{{Site: "shop.example", Start: time.Second, End: 2 * time.Second}},
	}})
	at := func(host string, off time.Duration) *Request {
		return &Request{
			URL:    urlx.MustParse("https://www." + host + "/x"),
			Client: "c", Time: StudyEpoch.Add(off),
		}
	}
	if got := outcomeOf(t, n, at("shop.example", 1500*time.Millisecond)); got != "timeout" {
		t.Fatalf("inside window: %q, want timeout", got)
	}
	if got := outcomeOf(t, n, at("shop.example", 2*time.Second)); got != "" {
		t.Fatalf("at End (exclusive): %q, want clean", got)
	}
	if got := outcomeOf(t, n, at("shop.example", 500*time.Millisecond)); got != "" {
		t.Fatalf("before window: %q, want clean", got)
	}
	if got := outcomeOf(t, n, at("cdn.example", 1500*time.Millisecond)); got != "" {
		t.Fatalf("other site inside window: %q, want clean", got)
	}
}

// TestAdversaryBrownoutWindow: a brownout 503s at its rate inside the
// window and never outside it.
func TestAdversaryBrownoutWindow(t *testing.T) {
	n := advNetwork(t, AdversaryConfig{
		Brownouts: []Brownout{{Window: Window{Start: time.Second, End: 2 * time.Second}, Rate: 1}},
	})
	inside := &Request{
		URL:    urlx.MustParse("https://www.shop.example/x"),
		Client: "c", Time: StudyEpoch.Add(1500 * time.Millisecond),
	}
	resp, err := n.RoundTrip(inside)
	if err != nil || resp.Fault != FaultHTTP5xx || resp.Status != http.StatusServiceUnavailable {
		t.Fatalf("inside brownout: resp=%+v err=%v, want injected 503", resp, err)
	}
	outside := &Request{
		URL:    urlx.MustParse("https://www.shop.example/x"),
		Client: "c", Time: StudyEpoch.Add(3 * time.Second),
	}
	if got := outcomeOf(t, n, outside); got != "" {
		t.Fatalf("outside brownout: %q, want clean", got)
	}
}

// TestAdversaryInterleavingIndependent: two clients meet the identical
// adversary whether their requests interleave or run back to back —
// every decision keys on (client, serial, virtual time), never arrival
// order.
func TestAdversaryInterleavingIndependent(t *testing.T) {
	cfg := AdversaryConfig{
		Burst: 2, RatePenalty: 1, WallPenalty: 2, FingerprintPenalty: 1,
		CaptchaThreshold: 3, BlockThreshold: 8, BoobyTrapRate: 0.5,
		Brownouts: []Brownout{{Window: Window{Start: 100 * time.Millisecond, End: 300 * time.Millisecond}, Rate: 0.5}},
	}
	const perClient = 12
	run := func(interleaved bool) map[string][]string {
		n := advNetwork(t, cfg)
		out := map[string][]string{}
		issue := func(client string, i int) {
			req := docRequest(client, i)
			// Each browser stamps its own private clock; emulate it so the
			// timeline is a function of (client, serial) alone.
			req.Time = StudyEpoch.Add(time.Duration(i) * LatencyPerExchange)
			out[client] = append(out[client], outcomeOf(t, n, req))
		}
		clients := []string{"bing-0", "google-0"}
		if interleaved {
			for i := 0; i < perClient; i++ {
				for _, c := range clients {
					issue(c, i)
				}
			}
		} else {
			for _, c := range clients {
				for i := 0; i < perClient; i++ {
					issue(c, i)
				}
			}
		}
		return out
	}
	a, b := run(true), run(false)
	for client, seq := range a {
		for i := range seq {
			if seq[i] != b[client][i] {
				t.Fatalf("%s request %d: %q interleaved vs %q sequential", client, i, seq[i], b[client][i])
			}
		}
	}
}

// TestPostureConfig: the named postures resolve, "off" is zero, the
// rest are armed, and unknown names are rejected.
func TestPostureConfig(t *testing.T) {
	for _, p := range AdversaryPostures() {
		cfg, err := PostureConfig(p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if (p == PostureOff) != cfg.IsZero() {
			t.Fatalf("%s: IsZero = %v", p, cfg.IsZero())
		}
	}
	if cfg, err := PostureConfig(""); err != nil || !cfg.IsZero() {
		t.Fatalf("empty posture: cfg=%+v err=%v", cfg, err)
	}
	if _, err := PostureConfig("vindictive"); err == nil {
		t.Fatal("unknown posture accepted")
	}
}
