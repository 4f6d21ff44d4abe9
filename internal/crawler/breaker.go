package crawler

import (
	"fmt"
	"sort"
	"time"

	"searchads/internal/browser"
)

// Iteration outcomes: how an iteration fared against faults, the
// adversary and the countermeasures in play. Every crawl stamps them;
// an iteration nothing disturbed carries none.
const (
	// OutcomeRecovered marks a successful iteration that needed the
	// survival kit: a retried hop, a solved challenge, or a rotated
	// session stood between it and loss.
	OutcomeRecovered = "recovered"
	// OutcomeLost marks an iteration the adversary (or the network) took
	// despite every countermeasure.
	OutcomeLost = "lost"
	// OutcomeAbandoned marks an iteration the crawler chose not to fight
	// for: an unsolved challenge, or load shed by an open breaker.
	OutcomeAbandoned = "abandoned"
)

// BreakerConfig is the per-engine circuit breaker: after Threshold
// consecutive faulted iterations the breaker opens and the next
// Cooldown iterations are shed without crawling (abandoned at zero
// cost), then one probe iteration runs half-open — success closes the
// breaker, another fault re-opens it for a full cool-down. Threshold 0
// disables the breaker.
type BreakerConfig struct {
	// Threshold is the consecutive-fault count that trips the breaker
	// (0 = disabled).
	Threshold int
	// Cooldown is how many iterations an open breaker sheds before
	// half-opening for a probe (0 = 4 when Threshold is set).
	Cooldown int
}

func (b BreakerConfig) withDefaults() BreakerConfig {
	if b.Threshold > 0 && b.Cooldown <= 0 {
		b.Cooldown = 4
	}
	return b
}

// Countermeasures bundles the crawler's whole survival kit: the
// browser-level tactics plus the crawl-level circuit breaker. The zero
// value is fully disarmed.
type Countermeasures struct {
	browser.Countermeasures
	// Breaker sheds iterations engine-by-engine during fault bursts —
	// graceful degradation instead of burning virtual time on a site
	// that is browning out.
	Breaker BreakerConfig
}

// IsZero reports whether no countermeasure — browser or crawl level —
// is armed.
func (c Countermeasures) IsZero() bool {
	return c.Countermeasures.IsZero() && c.Breaker.Threshold <= 0
}

func (c Countermeasures) withDefaults() Countermeasures {
	// The browser half normalizes itself inside browser.New; only the
	// crawl-level breaker needs filling here.
	c.Breaker = c.Breaker.withDefaults()
	return c
}

// countermeasureBundles maps the named bundles the sweep matrix and the
// CLIs expose. "off" is the zero value.
func countermeasureBundles() map[string]Countermeasures {
	return map[string]Countermeasures{
		"off": {},
		"pace": {Countermeasures: browser.Countermeasures{
			Pace: 2 * time.Second, PaceJitter: time.Second,
		}},
		"rotate": {Countermeasures: browser.Countermeasures{
			RotateAfter: 1,
		}},
		"solve": {Countermeasures: browser.Countermeasures{
			SolveCaptchas: true, MaxSolves: 3,
		}},
		"full": {
			Countermeasures: browser.Countermeasures{
				Pace: 2 * time.Second, PaceJitter: time.Second,
				RotateAfter:   1,
				SolveCaptchas: true, MaxSolves: 3,
			},
			Breaker: BreakerConfig{Threshold: 3, Cooldown: 4},
		},
	}
}

// CountermeasureNames lists the named bundles in sorted order.
func CountermeasureNames() []string {
	m := countermeasureBundles()
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// CountermeasureBundle resolves a named countermeasure bundle ("" and
// "off" are the disarmed zero value).
func CountermeasureBundle(name string) (Countermeasures, error) {
	if name == "" {
		return Countermeasures{}, nil
	}
	cm, ok := countermeasureBundles()[name]
	if !ok {
		return Countermeasures{}, fmt.Errorf("crawler: unknown countermeasure bundle %q (have: %v)", name, CountermeasureNames())
	}
	return cm, nil
}

// breakerState is one engine chain's circuit breaker. It is touched
// only by the goroutine running that chain — the Parallel pool's
// task-channel handoff orders iteration i before i+1 — so it needs no
// lock, and its transitions are a pure function of the chain's
// iteration outcomes, which is what lets resume replay it exactly.
type breakerState struct {
	consecFails  int
	cooldownLeft int
	open         bool
}

// shouldShed reports whether the next iteration should be shed, and
// spends one cool-down slot when it is. An open breaker with its
// cool-down exhausted half-opens: the iteration runs as a probe.
func (s *breakerState) shouldShed(cfg BreakerConfig) bool {
	if cfg.Threshold <= 0 || !s.open {
		return false
	}
	if s.cooldownLeft > 0 {
		s.cooldownLeft--
		return true
	}
	return false // half-open: let one probe through
}

// observe folds one crawled iteration's outcome into the breaker. It
// reports whether this observation tripped the breaker open.
func (s *breakerState) observe(cfg BreakerConfig, fault bool) bool {
	if cfg.Threshold <= 0 {
		return false
	}
	if s.open {
		// Half-open probe: a fault re-opens for a full cool-down, a
		// success closes the breaker.
		if fault {
			s.cooldownLeft = cfg.Cooldown
		} else {
			s.open = false
			s.consecFails = 0
		}
		return false
	}
	if !fault {
		s.consecFails = 0
		return false
	}
	s.consecFails++
	if s.consecFails < cfg.Threshold {
		return false
	}
	s.open = true
	s.cooldownLeft = cfg.Cooldown
	s.consecFails = 0
	return true
}

// breakerEvent compresses one iteration into the event byte the breaker
// transitions on — and that ResumeState records so a resumed crawl
// replays the breaker to the exact state the killed run held:
//
//	's' — the iteration was shed by the open breaker
//	'f' — the iteration faulted (infrastructure loss; "no ads" is an
//	      organic outcome, not a fault)
//	'o' — the iteration was ok
func breakerEvent(it *Iteration) byte {
	switch {
	case it.ErrorClass == string(ClassBreakerOpen):
		return 's'
	case it.Error != "" && it.ErrorClass != string(ClassNoAds):
		return 'f'
	}
	return 'o'
}

// deriveOutcome classifies a finished iteration for the arms-race
// accounting. Rotations/CaptchaSolves must already be stamped on it.
func deriveOutcome(it *Iteration) string {
	switch {
	case it.ErrorClass == string(ClassCaptcha), it.ErrorClass == string(ClassBreakerOpen):
		return OutcomeAbandoned
	case it.Error != "":
		if it.ErrorClass == string(ClassNoAds) {
			return "" // organic outcome, not the adversary's doing
		}
		return OutcomeLost
	}
	if it.Rotations > 0 || it.CaptchaSolves > 0 {
		return OutcomeRecovered
	}
	for _, h := range it.Hops {
		if h.Retries > 0 {
			return OutcomeRecovered
		}
	}
	return ""
}
