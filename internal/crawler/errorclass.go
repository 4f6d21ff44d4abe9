package crawler

import (
	"errors"

	"searchads/internal/browser"
	"searchads/internal/netsim"
)

// ErrorClass is the typed failure taxonomy for crawl iterations. The
// display string (Iteration.Error) stays free-form for humans; the
// class is what tests assert on and what the analysis failure counters
// aggregate by, so loss attribution never depends on substring
// matching against error prose.
type ErrorClass string

// The taxonomy. The first seven mirror netsim's injected fault classes
// (organic failures with the same observable outcome — a dead host, an
// origin's own 403 — classify identically); the last two are
// crawl-level outcomes no network fault produces.
const (
	ClassDNS     ErrorClass = "dns"
	ClassTLS     ErrorClass = "tls"
	ClassTimeout ErrorClass = "timeout"
	ClassHTTP403 ErrorClass = "http_403"
	ClassHTTP429 ErrorClass = "http_429"
	ClassHTTP5xx ErrorClass = "http_5xx"
	ClassBotwall ErrorClass = "botwall"
	// ClassCaptcha is a challenge the solve-or-abandon policy abandoned
	// (served only by the stateful adversary, never the i.i.d. walk).
	ClassCaptcha      ErrorClass = "captcha"
	ClassRedirectLoop ErrorClass = "redirect_loop"
	// ClassBreakerOpen is an iteration shed by the crawler's own circuit
	// breaker — the crawler's choice, not the network's.
	ClassBreakerOpen ErrorClass = "breaker_open"
	ClassNoAds       ErrorClass = "no_ads"
)

// ErrorClasses lists the taxonomy in canonical (render) order.
func ErrorClasses() []ErrorClass {
	return []ErrorClass{
		ClassDNS, ClassTLS, ClassTimeout,
		ClassHTTP403, ClassHTTP429, ClassHTTP5xx,
		ClassBotwall, ClassCaptcha, ClassRedirectLoop,
		ClassBreakerOpen, ClassNoAds,
	}
}

// ClassifyError maps a navigation error to its class ("" for nil or
// unclassifiable errors).
func ClassifyError(err error) ErrorClass {
	if err == nil {
		return ""
	}
	if fe, ok := netsim.AsFault(err); ok {
		return ErrorClass(fe.Class)
	}
	var fre *browser.FaultResponseError
	if errors.As(err, &fre) {
		return ErrorClass(fre.Class)
	}
	if errors.Is(err, netsim.ErrNoSuchHost) {
		return ClassDNS
	}
	if errors.Is(err, browser.ErrTooManyRedirects) {
		return ClassRedirectLoop
	}
	return ""
}
