package serp

import "searchads/internal/adtech"

// BuildHref exposes the ad href composition to the external tests,
// which need a derived websim world (websim imports serp): the href
// renderAds gives the ad of click.
func (e *Engine) BuildHref(click *adtech.AdClick) string {
	return e.adTemplateFor(click.Campaign).href.Render(click.Landing)
}
