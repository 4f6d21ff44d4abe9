package netsim

// Deterministic fault injection — the adversarial-web chaos layer.
//
// A FaultPlan installed on a Network (InstallFaults) makes RoundTrip
// inject failures the live web inflicts on crawlers at paper scale:
// DNS resolution failures, TLS/connection errors, timeouts, 403/429
// (with Retry-After), 5xx brownouts, and bot-wall/CAPTCHA interstitial
// pages. Every decision is a pure function of (plan seed, the request's
// Client label, that client's per-request serial), drawn from detrand —
// so the same seed yields the same faults, and a Parallel crawl faults
// identically to a sequential one regardless of request interleaving,
// preserving the byte-determinism contract.
//
// Connection-stage faults (dns, tls, timeout) surface as a *FaultError
// from RoundTrip; no exchange reaches the wire log, matching a dial
// that never produced a response. Response-stage faults (http_403,
// http_429, http_5xx, botwall) surface as ordinary *Response values
// carrying the in-memory Fault marker, and are wire-logged like any
// exchange. The marker is what distinguishes an injected 403 from an
// origin's organic 403, so a zeroed plan leaves behaviour — and every
// serialized byte — identical to a network with no plan installed.

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"searchads/internal/detrand"
	"searchads/internal/urlx"
)

// FaultClass names one injected failure mode.
type FaultClass string

// The fault taxonomy, in roll order. The names match the crawler's
// ErrorClass values so a fault propagates through hop records and
// iteration errors into the analysis failure counters unchanged.
const (
	FaultDNS     FaultClass = "dns"
	FaultTLS     FaultClass = "tls"
	FaultTimeout FaultClass = "timeout"
	FaultHTTP403 FaultClass = "http_403"
	FaultHTTP429 FaultClass = "http_429"
	FaultHTTP5xx FaultClass = "http_5xx"
	FaultBotwall FaultClass = "botwall"
	// FaultCaptcha marks a solvable challenge served by the stateful
	// adversary (see AdversaryConfig); never rolled by the i.i.d. walk.
	FaultCaptcha FaultClass = "captcha"
)

// faultRollOrder fixes the cumulative-probability walk a single
// uniform draw decides a request's fate against.
var faultRollOrder = [...]FaultClass{
	FaultDNS, FaultTLS, FaultTimeout,
	FaultHTTP403, FaultHTTP429, FaultHTTP5xx, FaultBotwall,
}

// FaultError is the error RoundTrip returns for connection-stage
// injected faults (dns, tls, timeout). Match with errors.As.
type FaultError struct {
	Class FaultClass
	Host  string
}

func (e *FaultError) Error() string {
	return fmt.Sprintf("netsim: injected %s fault: %s", e.Class, e.Host)
}

// AsFault extracts a FaultError from an error chain (nil, false when
// the error carries none).
func AsFault(err error) (*FaultError, bool) {
	var fe *FaultError
	if errors.As(err, &fe) {
		return fe, true
	}
	return nil, false
}

// FaultRates holds per-request injection probabilities, one per class.
// The probabilities are rolled as one cumulative walk, so their sum
// must not exceed 1; Total reports it.
type FaultRates struct {
	DNS     float64
	TLS     float64
	Timeout float64
	HTTP403 float64
	HTTP429 float64
	HTTP5xx float64
	Botwall float64
}

// rate returns the class's probability.
func (r FaultRates) rate(c FaultClass) float64 {
	switch c {
	case FaultDNS:
		return r.DNS
	case FaultTLS:
		return r.TLS
	case FaultTimeout:
		return r.Timeout
	case FaultHTTP403:
		return r.HTTP403
	case FaultHTTP429:
		return r.HTTP429
	case FaultHTTP5xx:
		return r.HTTP5xx
	case FaultBotwall:
		return r.Botwall
	}
	return 0
}

// Total sums the per-class probabilities.
func (r FaultRates) Total() float64 {
	return r.DNS + r.TLS + r.Timeout + r.HTTP403 + r.HTTP429 + r.HTTP5xx + r.Botwall
}

// IsZero reports whether no class can fire.
func (r FaultRates) IsZero() bool { return r.Total() == 0 }

// FaultPlan configures a network's injection stage. The zero value
// (and any plan whose rates are all zero) injects nothing and installs
// as a no-op.
type FaultPlan struct {
	// Seed roots the decision stream. 0 is a valid seed; worlds that
	// install a plan default it to their own seed.
	Seed int64
	// Rates are the default per-request class probabilities.
	Rates FaultRates
	// SiteRates overrides Rates per registrable domain (eTLD+1), so a
	// plan can make one advertiser flaky while the engines stay up.
	SiteRates map[string]FaultRates
	// RetryAfter is the Retry-After delay advertised on injected 429
	// responses (0 = 30s).
	RetryAfter time.Duration
	// Interstitial builds the bot-wall/CAPTCHA page for botwall faults
	// (websim installs its interstitial here). nil falls back to a bare
	// 403 challenge response. The returned response is always marked
	// with the botwall Fault class.
	Interstitial func(req *Request) *Response
	// Adversary is the stateful half of the plan: per-client suspicion
	// scoring, booby-trapped challenges, and time-correlated
	// outage/brownout windows (see AdversaryConfig). The zero value is
	// disarmed: the plan then injects only its i.i.d. Rates.
	Adversary AdversaryConfig
	// Captcha builds the challenge page for adversary-served captcha
	// verdicts (websim installs its challenge page here). nil falls back
	// to a bare 403. The fault layer stamps the token header and the
	// captcha Fault class on whatever is returned.
	Captcha func(req *Request, token string) *Response
}

// IsZero reports whether the plan injects nothing.
func (p FaultPlan) IsZero() bool {
	if !p.Rates.IsZero() {
		return false
	}
	for _, r := range p.SiteRates {
		if !r.IsZero() {
			return false
		}
	}
	return p.Adversary.IsZero()
}

// defaultRetryAfter is the Retry-After advertised by injected 429s.
const defaultRetryAfter = 30 * time.Second

// Fault profiles — named class mixes a single intensity knob scales.
const (
	ProfileOff        = "off"
	ProfileFlakyEdge  = "flaky-edge"
	ProfileBotHostile = "bot-hostile"
	ProfileBrownout   = "brownout"
)

// FaultProfileNames lists the named profiles, in help order.
func FaultProfileNames() []string {
	return []string{ProfileOff, ProfileFlakyEdge, ProfileBotHostile, ProfileBrownout}
}

// ProfileRates distributes an overall per-request fault rate across a
// named profile's class mix:
//
//	off          nothing (any rate)
//	flaky-edge   connection trouble: 40% timeout, 30% tls, 30% dns
//	bot-hostile  anti-bot responses: 50% botwall, 25% 403, 25% 429
//	brownout     overloaded origins: 50% 5xx, 25% 429, 25% timeout
//
// rate is the total probability any fault fires on a request; it must
// lie in [0, 1].
func ProfileRates(profile string, rate float64) (FaultRates, error) {
	if rate < 0 || rate > 1 {
		return FaultRates{}, fmt.Errorf("netsim: fault rate %v outside [0, 1]", rate)
	}
	switch profile {
	case ProfileOff, "":
		return FaultRates{}, nil
	case ProfileFlakyEdge:
		return FaultRates{Timeout: 0.4 * rate, TLS: 0.3 * rate, DNS: 0.3 * rate}, nil
	case ProfileBotHostile:
		return FaultRates{Botwall: 0.5 * rate, HTTP403: 0.25 * rate, HTTP429: 0.25 * rate}, nil
	case ProfileBrownout:
		return FaultRates{HTTP5xx: 0.5 * rate, HTTP429: 0.25 * rate, Timeout: 0.25 * rate}, nil
	}
	return FaultRates{}, fmt.Errorf("netsim: unknown fault profile %q (have: %s, %s, %s, %s)",
		profile, ProfileOff, ProfileFlakyEdge, ProfileBotHostile, ProfileBrownout)
}

// NewFaultPlan builds the plan a (fault profile, fault rate, adversary
// posture) triple names: ProfileRates' class mix at that rate plus
// PostureConfig's adversary. The empty profile and posture mean "off".
// An unknown profile or posture, or a rate outside [0, 1], is an error,
// whatever the other two values are. Seed, SiteRates and the page
// builders are left for the caller (websim fills them in).
func NewFaultPlan(profile string, rate float64, posture string) (FaultPlan, error) {
	rates, err := ProfileRates(profile, rate)
	if err != nil {
		return FaultPlan{}, err
	}
	adv, err := PostureConfig(posture)
	if err != nil {
		return FaultPlan{}, err
	}
	return FaultPlan{Rates: rates, Adversary: adv}, nil
}

// faultState is the installed form of a plan: the plan plus its
// decision stream. One uniform draw per request, keyed by the
// request's Client label and that client's serial, decides the fate —
// interleaving-independent by the same construction the origin
// servers' identifier minting uses.
type faultState struct {
	plan FaultPlan
	src  detrand.Source
	seq  detrand.Seq

	// adv caches Adversary.IsZero()==false so an i.i.d.-only plan pays
	// one bool check per request; mu guards the per-client suspicion
	// map (each client's requests are sequential, so the lock only
	// serialises cross-client map access — see clientSuspicion).
	adv     bool
	mu      sync.Mutex
	clients map[string]*clientSuspicion
}

// InstallFaults arms (or, for a zero plan, disarms) the network's
// fault-injection stage. Installing is cheap and atomic; a disarmed
// network costs RoundTrip one pointer load.
func (n *Network) InstallFaults(plan FaultPlan) {
	if plan.IsZero() {
		n.faults.Store(nil)
		return
	}
	if plan.RetryAfter <= 0 {
		plan.RetryAfter = defaultRetryAfter
	}
	fs := &faultState{
		plan: plan,
		src:  detrand.New(plan.Seed).Derive("netsim/fault"),
	}
	if !plan.Adversary.IsZero() {
		fs.adv = true
		fs.clients = make(map[string]*clientSuspicion)
	}
	n.faults.Store(fs)
}

// FaultsArmed reports whether a non-zero plan is installed.
func (n *Network) FaultsArmed() bool { return n.faults.Load() != nil }

// inject rolls the request's fate. It returns (nil, nil) to let the
// request through, a marked response for response-stage faults, or a
// *FaultError for connection-stage faults.
func (s *faultState) inject(req *Request) (*Response, error) {
	client := req.Client
	serial := s.seq.Next(client)
	site := urlx.RegistrableDomain(req.URL.Host)

	if s.adv {
		// The stateful adversary decides first; its streams derive from
		// labels disjoint from the i.i.d. walk's, so arming it never
		// perturbs the draws below.
		resp, err, verdict := s.adversary(req, client, serial, site)
		switch verdict {
		case advServed:
			return resp, err
		case advLetThrough:
			return nil, nil
		}
	}

	g := s.src.Derive("req", client).DeriveN("n", serial).Rand()
	u := g.Float64()

	rates := s.plan.Rates
	if override, ok := s.plan.SiteRates[site]; ok {
		rates = override
	}

	cum := 0.0
	for _, class := range faultRollOrder {
		cum += rates.rate(class)
		if u < cum {
			return s.materialize(class, req)
		}
	}
	return nil, nil
}

// materialize turns a rolled class into its observable failure.
func (s *faultState) materialize(class FaultClass, req *Request) (*Response, error) {
	switch class {
	case FaultDNS, FaultTLS, FaultTimeout:
		return nil, &FaultError{Class: class, Host: req.URL.Host}
	case FaultHTTP403:
		resp := NewResponse(http.StatusForbidden)
		resp.Fault = class
		resp.Body = "403 Forbidden"
		return resp, nil
	case FaultHTTP429:
		resp := NewResponse(http.StatusTooManyRequests)
		resp.Fault = class
		resp.Body = "429 Too Many Requests"
		resp.SetHeader("Retry-After", strconv.Itoa(int(s.plan.RetryAfter/time.Second)))
		return resp, nil
	case FaultHTTP5xx:
		resp := NewResponse(http.StatusServiceUnavailable)
		resp.Fault = class
		resp.Body = "503 Service Unavailable"
		return resp, nil
	case FaultBotwall:
		var resp *Response
		if s.plan.Interstitial != nil {
			resp = s.plan.Interstitial(req)
		}
		if resp == nil {
			resp = NewResponse(http.StatusForbidden)
			resp.Body = "Checking your browser before accessing this site."
		}
		resp.Fault = FaultBotwall
		return resp, nil
	}
	return nil, nil
}

// RetryAfterSeconds parses the response's Retry-After header (whole
// seconds; 0 when absent or malformed).
func (r *Response) RetryAfterSeconds() time.Duration {
	v := r.Header.Get("Retry-After")
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}
