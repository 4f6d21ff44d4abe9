package netsim

// The stateful half of the chaos layer: an adversary that remembers.
//
// A plan's Rates inject i.i.d. per-request failures; real engines
// do not fail that way. They score each client across its request
// history — request rate against a per-client budget, low-entropy
// automation fingerprints, prior wall hits — and escalate from CAPTCHA
// challenges to hard bot walls in correlated bursts. AdversaryConfig
// models exactly that, plus time-correlated outage windows and per-site
// brownout schedules driven off the virtual clock.
//
// Determinism. Every decision is a pure function of (plan seed, client
// label, that client's per-request serial, the request's virtual
// timestamp): suspicion state is keyed per client and each client's
// requests are issued sequentially by one browser goroutine, so the
// evolving score never depends on cross-client interleaving; outage and
// brownout windows are functions of Request.Time, which each browser
// stamps from its own private clock; and the stochastic pieces (booby
// traps, brownout rolls, challenge tokens) derive from detrand streams
// disjoint from the i.i.d. fault walk. A sequential and a Parallel
// crawl therefore meet the identical adversary, and arming the
// adversary leaves a plan's i.i.d. draw stream untouched: whenever the
// adversary lets a request through, the i.i.d. walk decides it exactly
// as it would with no adversary installed.

import (
	"fmt"
	"net/http"
	"time"

	"searchads/internal/detrand"
)

// Challenge-flow headers. The fault layer advertises the CAPTCHA token
// on the challenge response; a browser that chooses to solve echoes it
// back on the retried request.
const (
	// CaptchaTokenHeader carries the challenge token on an injected
	// captcha response.
	CaptchaTokenHeader = "X-Captcha-Token"
	// CaptchaAnswerHeader carries the solved token on the retried
	// request.
	CaptchaAnswerHeader = "X-Captcha-Answer"
)

// Window is a virtual-time interval, expressed as offsets from
// StudyEpoch — the instant every browser profile's private clock starts
// at. Because all profiles share that origin, a window is correlated
// across clients by construction: every iteration's early phase crosses
// the same windows, the way a real outage hits every concurrent crawler
// at once.
type Window struct {
	// Site restricts the window to one registrable domain ("" = every
	// site).
	Site string
	// Start and End bound the window: Start <= t-StudyEpoch < End.
	Start time.Duration
	End   time.Duration
}

// contains reports whether the window covers a request to site at the
// given virtual instant.
func (w Window) contains(site string, at time.Time) bool {
	if w.Site != "" && w.Site != site {
		return false
	}
	rel := at.Sub(StudyEpoch)
	return rel >= w.Start && rel < w.End
}

// Brownout is a Window during which requests fail with 503 at the given
// per-request probability — an overloaded origin shedding load, rather
// than a hard outage.
type Brownout struct {
	Window
	// Rate is the per-request 503 probability inside the window.
	Rate float64
}

// AdversaryConfig is the stateful, time-correlated half of a FaultPlan.
// The zero value is fully disarmed: a plan whose only non-zero part is
// its Rates injects i.i.d. faults and nothing else.
//
// Suspicion scoring: each client accrues an integer suspicion score as
// it makes requests — RatePenalty per request beyond its rate budget
// (Burst free requests plus RatePerSec per elapsed virtual second),
// FingerprintPenalty per request presenting low-entropy automation
// markers (the headless/webdriver headers a stealth fingerprint hides),
// and WallPenalty per wall it has already hit. Crossing
// CaptchaThreshold gets document requests challenged; crossing
// BlockThreshold gets them hard bot-walled. A fraction BoobyTrapRate of
// challenges is booby-trapped: solving one proves automation and
// escalates straight to a wall.
type AdversaryConfig struct {
	// Burst is the number of free requests before the rate budget
	// engages.
	Burst int
	// RatePerSec is the sustained per-client request allowance.
	RatePerSec float64
	// RatePenalty is the suspicion added per over-budget request.
	RatePenalty int
	// FingerprintPenalty is the suspicion added per request carrying
	// headless/webdriver markers.
	FingerprintPenalty int
	// WallPenalty is the suspicion added each time the client hits a
	// wall (or solves a booby-trapped challenge).
	WallPenalty int
	// CaptchaThreshold is the suspicion at which document requests are
	// challenged (0 disables challenges).
	CaptchaThreshold int
	// BlockThreshold is the suspicion at which document requests are
	// hard bot-walled (0 disables blocks).
	BlockThreshold int
	// BoobyTrapRate is the fraction of challenges that are traps.
	BoobyTrapRate float64
	// SolveReward is the suspicion a genuine solve resets the client to
	// (clamped below CaptchaThreshold).
	SolveReward int
	// Outages are hard-down windows: requests inside fail as timeouts.
	Outages []Window
	// Brownouts are elevated-503 windows.
	Brownouts []Brownout
}

// IsZero reports whether the adversary can never act.
func (a AdversaryConfig) IsZero() bool {
	return a.CaptchaThreshold == 0 && a.BlockThreshold == 0 &&
		len(a.Outages) == 0 && len(a.Brownouts) == 0
}

// Adversary postures — named escalation presets, from "only the most
// blatant bots" to "assume everyone is a bot".
const (
	PostureOff      = "off"
	PostureLenient  = "lenient"
	PostureStrict   = "strict"
	PostureParanoid = "paranoid"
)

// AdversaryPostures lists the named postures, in help order.
func AdversaryPostures() []string {
	return []string{PostureOff, PostureLenient, PostureStrict, PostureParanoid}
}

// PostureConfig returns the named posture's configuration:
//
//	off       disarmed (zero config)
//	lenient   generous budgets; punishes only naive headless
//	          fingerprints, short shallow brownout
//	strict    tight budgets that a crawl's natural burst overruns,
//	          quarter of challenges trapped, brownout mid-crawl
//	paranoid  budgets below crawl pace, half of challenges trapped,
//	          brownout plus a hard outage window
//
// The numbers are tuned against the crawler's real traffic shape: a
// crawl iteration issues roughly 9–14 requests, concentrated in the
// 200–400ms band of its profile's virtual clock (every profile's clock
// starts at StudyEpoch, which is what makes the windows correlated
// across clients). Budgets and windows outside that envelope would
// never fire.
func PostureConfig(posture string) (AdversaryConfig, error) {
	switch posture {
	case PostureOff, "":
		return AdversaryConfig{}, nil
	case PostureLenient:
		return AdversaryConfig{
			Burst: 12, RatePerSec: 15,
			RatePenalty: 1, FingerprintPenalty: 2, WallPenalty: 3,
			CaptchaThreshold: 4, BlockThreshold: 20,
			BoobyTrapRate: 0.1, SolveReward: 2,
			Brownouts: []Brownout{
				{Window: Window{Start: 250 * time.Millisecond, End: 350 * time.Millisecond}, Rate: 0.15},
			},
		}, nil
	case PostureStrict:
		return AdversaryConfig{
			Burst: 4, RatePerSec: 3,
			RatePenalty: 1, FingerprintPenalty: 3, WallPenalty: 4,
			CaptchaThreshold: 3, BlockThreshold: 16,
			BoobyTrapRate: 0.25, SolveReward: 1,
			Brownouts: []Brownout{
				{Window: Window{Start: 200 * time.Millisecond, End: 400 * time.Millisecond}, Rate: 0.3},
			},
		}, nil
	case PostureParanoid:
		return AdversaryConfig{
			Burst: 2, RatePerSec: 2,
			RatePenalty: 2, FingerprintPenalty: 4, WallPenalty: 6,
			CaptchaThreshold: 3, BlockThreshold: 12,
			BoobyTrapRate: 0.5, SolveReward: 1,
			Outages: []Window{
				{Start: 250 * time.Millisecond, End: 300 * time.Millisecond},
			},
			Brownouts: []Brownout{
				{Window: Window{Start: 200 * time.Millisecond, End: 450 * time.Millisecond}, Rate: 0.4},
			},
		}, nil
	}
	return AdversaryConfig{}, fmt.Errorf("netsim: unknown adversary posture %q (have: %s, %s, %s, %s)",
		posture, PostureOff, PostureLenient, PostureStrict, PostureParanoid)
}

// clientSuspicion is one client's accumulated standing with the
// adversary. Guarded by faultState.mu; each client's requests arrive
// sequentially from its one browser goroutine, so the lock serialises
// only cross-client map access, never reorders a client's own history.
type clientSuspicion struct {
	requests  int
	first     time.Time
	hasFirst  bool
	suspicion int
	wallHits  int
	// pendingToken/pendingTrapped hold the outstanding challenge.
	pendingToken   string
	pendingTrapped bool
}

// advVerdict is the adversary's decision for one request.
type advVerdict int

const (
	// advContinue: no decision; the i.i.d. fault walk still rolls.
	advContinue advVerdict = iota
	// advLetThrough: explicitly admitted (a genuine solve); skip the
	// i.i.d. walk so the solved navigation reaches its origin.
	advLetThrough
	// advServed: the response or error below is the request's fate.
	advServed
)

// adversary scores one request against the stateful plan and decides
// its fate. Outage and brownout windows are checked first (they are
// functions of virtual time only and do not score); then the suspicion
// machine runs.
func (s *faultState) adversary(req *Request, client string, serial int, site string) (*Response, error, advVerdict) {
	a := &s.plan.Adversary

	for _, w := range a.Outages {
		if w.contains(site, req.Time) {
			return nil, &FaultError{Class: FaultTimeout, Host: req.URL.Host}, advServed
		}
	}
	for _, bo := range a.Brownouts {
		if bo.contains(site, req.Time) {
			g := s.src.Derive("adv/brownout", client).DeriveN("n", serial).Rand()
			if detrand.Bernoulli(&g, bo.Rate) {
				resp := NewResponse(http.StatusServiceUnavailable)
				resp.Fault = FaultHTTP5xx
				resp.Body = "503 Service Unavailable"
				return resp, nil, advServed
			}
		}
	}

	if a.CaptchaThreshold == 0 && a.BlockThreshold == 0 {
		return nil, nil, advContinue
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.clients[client]
	if st == nil {
		st = &clientSuspicion{}
		s.clients[client] = st
	}
	st.requests++
	if !st.hasFirst {
		st.first, st.hasFirst = req.Time, true
	}

	// An outstanding challenge answered with the right token settles
	// first: a genuine solve restores goodwill and admits the request; a
	// booby-trapped one proves automation and escalates to a wall.
	if ans := req.Header.Get(CaptchaAnswerHeader); ans != "" && st.pendingToken != "" {
		if ans == st.pendingToken {
			trapped := st.pendingTrapped
			st.pendingToken, st.pendingTrapped = "", false
			if !trapped {
				if st.suspicion > a.SolveReward {
					st.suspicion = a.SolveReward
				}
				return nil, nil, advLetThrough
			}
			st.wallHits++
			st.suspicion += a.WallPenalty
			return s.serveBotwall(req), nil, advServed
		}
		st.pendingToken, st.pendingTrapped = "", false
	}

	// Fingerprint-entropy check: the headless/webdriver markers every
	// naive crawler instance reuses are the low-entropy giveaway a
	// stealth fingerprint hides.
	if req.Header.Get("X-Headless") != "" || req.Header.Get("X-Webdriver") != "" {
		st.suspicion += a.FingerprintPenalty
	}

	// Per-client rate budget: Burst free requests, then RatePerSec per
	// elapsed virtual second since the client's first request.
	allowance := float64(a.Burst) + a.RatePerSec*req.Time.Sub(st.first).Seconds()
	if float64(st.requests) > allowance {
		st.suspicion += a.RatePenalty
	}

	// Walls and challenges gate document navigation only: subresource
	// fetches from a suspect client keep scoring but are not worth a
	// challenge page nobody would render.
	if req.Type != TypeDocument {
		return nil, nil, advContinue
	}
	if a.BlockThreshold > 0 && st.suspicion >= a.BlockThreshold {
		st.wallHits++
		st.suspicion += a.WallPenalty
		return s.serveBotwall(req), nil, advServed
	}
	if a.CaptchaThreshold > 0 && st.suspicion >= a.CaptchaThreshold {
		token := s.src.Derive("adv/captcha", client).DeriveN("n", serial).Token(12, detrand.AlphaNum)
		g := s.src.Derive("adv/trap", client).DeriveN("n", serial).Rand()
		st.pendingToken = token
		st.pendingTrapped = detrand.Bernoulli(&g, a.BoobyTrapRate)
		return s.serveCaptcha(req, token), nil, advServed
	}
	return nil, nil, advContinue
}

// serveBotwall builds the hard-wall response (the plan's interstitial,
// or a bare 403), marked with the botwall class.
func (s *faultState) serveBotwall(req *Request) *Response {
	var resp *Response
	if s.plan.Interstitial != nil {
		resp = s.plan.Interstitial(req)
	}
	if resp == nil {
		resp = NewResponse(http.StatusForbidden)
		resp.Body = "Checking your browser before accessing this site."
	}
	resp.Fault = FaultBotwall
	return resp
}

// serveCaptcha builds the challenge response (the plan's captcha page,
// or a bare 403), advertises the token, and marks the captcha class.
func (s *faultState) serveCaptcha(req *Request, token string) *Response {
	var resp *Response
	if s.plan.Captcha != nil {
		resp = s.plan.Captcha(req, token)
	}
	if resp == nil {
		resp = NewResponse(http.StatusForbidden)
		resp.Body = "Complete the security check to continue."
	}
	resp.SetHeader(CaptchaTokenHeader, token)
	resp.Fault = FaultCaptcha
	return resp
}
