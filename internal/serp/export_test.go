package serp

import "searchads/internal/adtech"

// BuildHref exposes the ad href composition to the external tests,
// which need a derived websim world (websim imports serp).
func (e *Engine) BuildHref(click *adtech.AdClick) string { return e.buildHref(click) }
