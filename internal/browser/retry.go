package browser

import (
	"errors"
	"fmt"
	"time"

	"searchads/internal/netsim"
	"searchads/internal/telemetry"
)

// RequestTimeout is the virtual time a timed-out document request
// consumes before the browser gives up on it — the Puppeteer
// navigation-timeout budget. Injected timeout faults charge it to the
// browser's private clock, so retries and their waits cost virtual
// time only, never wall-clock time.
const RequestTimeout = 30 * time.Second

// RetryPolicy bounds the browser's document-navigation retries.
// Backoff is exponential (BaseBackoff doubling per attempt, capped at
// MaxBackoff) and advances only the browser's virtual clock; an
// injected 429's Retry-After overrides the computed backoff. The
// policy is deterministic — with no faults armed it never engages, so
// it costs fault-free crawls nothing.
type RetryPolicy struct {
	// MaxAttempts is the total tries per document request (0 = 3).
	MaxAttempts int
	// BaseBackoff is the wait before the first retry (0 = 500ms).
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth (0 = 8s).
	MaxBackoff time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	// Negative values are as unset as zero: a caller cannot buy fewer
	// than one attempt or a backward-running backoff, so both clamp to
	// the defaults instead of leaking through as nonsense budgets.
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 500 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 8 * time.Second
	}
	return p
}

// Retryable reports whether a fault class is worth re-attempting:
// transient conditions (timeouts, TLS hiccups, 429 throttling, 5xx
// brownouts) are; deterministic rejections (dns, 403, bot walls) are
// not — a bot wall does not go away because the same fingerprint asks
// again.
func Retryable(c netsim.FaultClass) bool {
	switch c {
	case netsim.FaultTimeout, netsim.FaultTLS, netsim.FaultHTTP429, netsim.FaultHTTP5xx:
		return true
	}
	return false
}

// FaultResponseError is the navigation error for a document that ended
// on an injected response-stage fault: a bot wall, an injected 403, or
// a 429/5xx that survived every retry. Match with errors.As.
type FaultResponseError struct {
	Class  netsim.FaultClass
	Status int
	URL    string
}

func (e *FaultResponseError) Error() string {
	return fmt.Sprintf("browser: navigation blocked by %s fault: HTTP %d from %s", e.Class, e.Status, e.URL)
}

// errorClassOf classifies a document exchange's failure: injected
// faults carry their class (marked responses and FaultErrors), and an
// organic resolution failure classifies as dns — the same observable
// outcome as an injected one.
func errorClassOf(resp *netsim.Response, err error) netsim.FaultClass {
	if err != nil {
		if fe, ok := netsim.AsFault(err); ok {
			return fe.Class
		}
		if errors.Is(err, netsim.ErrNoSuchHost) {
			return netsim.FaultDNS
		}
		return ""
	}
	if resp != nil {
		return resp.Fault
	}
	return ""
}

// sendDocument issues a top-level document request with the retry
// policy applied: injected faults that are Retryable are re-attempted
// up to MaxAttempts total, each retry preceded by an exponential
// (or Retry-After-directed) backoff on the browser's virtual clock. A
// timed-out attempt additionally charges the full RequestTimeout. It
// returns the settled response (possibly a faulted one alongside a
// non-nil error), the number of retries consumed, and the final error.
func (b *Browser) sendDocument(req *netsim.Request) (*netsim.Response, int, error) {
	pol := b.opts.Retry
	retries := 0
	for {
		resp, err := b.send(req, true)
		cls := faultClassOf(resp, err)
		if cls == "" {
			return resp, retries, err
		}
		if cls == netsim.FaultTimeout {
			// The attempt burned its whole navigation-timeout budget
			// before failing.
			b.clock.Advance(RequestTimeout)
		}
		if cls == netsim.FaultCaptcha || cls == netsim.FaultBotwall {
			// Challenge and wall responses are never Retryable — asking
			// again from the same session only raises suspicion — but the
			// countermeasure kit can still rescue the navigation: solve
			// the challenge (captcha only), or rotate to a fresh session.
			// Disarmed countermeasures decline both and the navigation is
			// abandoned exactly as before the arms race existed.
			if cls == netsim.FaultCaptcha && b.solveCaptcha(req, resp) {
				retries++
				continue
			}
			b.resetCaptchaAnswer(req)
			if b.noteSuspicionSignal() {
				retries++
				continue
			}
			if err == nil {
				err = &FaultResponseError{Class: cls, Status: resp.Status, URL: req.URL.String()}
			}
			return resp, retries, err
		}
		if !Retryable(cls) || retries+1 >= pol.MaxAttempts {
			if err == nil {
				err = &FaultResponseError{Class: cls, Status: resp.Status, URL: req.URL.String()}
			}
			return resp, retries, err
		}
		wait := pol.BaseBackoff << retries
		if wait > pol.MaxBackoff {
			wait = pol.MaxBackoff
		}
		if cls == netsim.FaultHTTP429 && resp != nil {
			if ra := resp.RetryAfterSeconds(); ra > 0 {
				// A hostile Retry-After must not stall the virtual clock
				// past the policy's own ceiling.
				if ra > pol.MaxBackoff {
					ra = pol.MaxBackoff
				}
				wait = ra
			}
		}
		b.clock.Advance(wait)
		retries++
		if tele := b.opts.Telemetry; tele != nil {
			tele.Inc(telemetry.CounterRetries)
			tele.Inc(telemetry.CounterBackoffWaits)
			tele.Emit(telemetry.Event{
				Type:          "retry",
				Attempt:       retries,
				Class:         string(cls),
				VirtualMillis: wait.Milliseconds(),
			})
		}
	}
}

// faultClassOf extracts the injected-fault class of one exchange (""
// when the exchange was organic, including organic errors).
func faultClassOf(resp *netsim.Response, err error) netsim.FaultClass {
	if err != nil {
		if fe, ok := netsim.AsFault(err); ok {
			return fe.Class
		}
		return ""
	}
	if resp != nil {
		return resp.Fault
	}
	return ""
}
