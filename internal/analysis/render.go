package analysis

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"searchads/internal/crawler"
	"searchads/internal/tokens"
)

// JSON renders the report as machine-readable JSON (all tables, figures,
// and funnel counts; the classifier state is internal and omitted).
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", " ")
}

// engineOrder returns the report's engines in the paper's table order.
func (r *Report) engineOrder() []string {
	order := []string{"bing", "google", "duckduckgo", "startpage", "qwant"}
	var out []string
	present := map[string]bool{}
	for _, e := range r.EngineOrder {
		present[e] = true
	}
	for _, e := range order {
		if present[e] {
			out = append(out, e)
		}
	}
	for _, e := range r.EngineOrder {
		if !containsStr(out, e) {
			out = append(out, e)
		}
	}
	return out
}

func containsStr(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func pct(f float64) string { return fmt.Sprintf("%.0f%%", f*100) }

// Render produces the full human-readable report: every table and
// figure of the paper's evaluation, from this dataset.
func (r *Report) Render() string {
	var b strings.Builder
	engines := r.engineOrder()

	b.WriteString("== Table 1: queries, destination websites, redirection paths ==\n")
	fmt.Fprintf(&b, "%-12s %10s %14s %12s\n", "engine", "#queries", "#destinations", "#paths")
	for _, e := range engines {
		row := r.Table1[e]
		fmt.Fprintf(&b, "%-12s %10d %14d %12d\n", e, row.Queries, row.DistinctDestinations, row.DistinctPaths)
	}

	b.WriteString("\n== Sec 4.1: before clicking an ad ==\n")
	for _, e := range engines {
		res := r.Before[e]
		ids := "none"
		if res.StoresUserIDs {
			ids = strings.Join(res.IdentifierKeys, ",")
		}
		fmt.Fprintf(&b, "%-12s first-party identifiers: %-18s SERP tracker requests: %d/%d\n",
			e, ids, res.TrackerRequests, res.TotalRequests)
	}

	b.WriteString("\n== Sec 4.2.1: post-click search engine beacons ==\n")
	for _, e := range engines {
		for _, beacon := range r.During[e].Beacons {
			flags := []string{}
			if beacon.CarriesDestURL {
				flags = append(flags, "dest-url")
			}
			if beacon.CarriesQuery {
				flags = append(flags, "query")
			}
			if beacon.CarriesPosition {
				flags = append(flags, "position")
			}
			uid := "no-UID"
			if beacon.WithUIDCookie > 0 {
				uid = fmt.Sprintf("UID-cookie on %d/%d", beacon.WithUIDCookie, beacon.Count)
			}
			fmt.Fprintf(&b, "%-12s %-45s ×%-4d [%s] %s\n",
				e, beacon.Endpoint, beacon.Count, strings.Join(flags, ","), uid)
		}
	}

	b.WriteString("\n== Figure 4: CDF of number of redirectors ==\n")
	b.WriteString(renderCDFs(engines, func(e string) CDF { return r.During[e].RedirectorCDF }))

	b.WriteString("\n== Navigational tracking (share of ad clicks with >=1 redirector) ==\n")
	for _, e := range engines {
		fmt.Fprintf(&b, "%-12s %s\n", e, pct(r.During[e].NavTrackingFraction))
	}

	b.WriteString("\n== Table 2: top navigation domain paths ==\n")
	for _, e := range engines {
		for _, f := range r.During[e].TopPaths {
			fmt.Fprintf(&b, "%-12s %-90s %s\n", e, f.Label, pct(f.Fraction))
		}
	}

	b.WriteString("\n== Table 3: organisations in navigation paths ==\n")
	orgs := map[string]bool{}
	for _, e := range engines {
		for org := range r.During[e].OrgFractions {
			orgs[org] = true
		}
	}
	var orgList []string
	for o := range orgs {
		orgList = append(orgList, o)
	}
	sort.Strings(orgList)
	fmt.Fprintf(&b, "%-18s", "organisation")
	for _, e := range engines {
		fmt.Fprintf(&b, " %12s", e)
	}
	b.WriteString("\n")
	for _, org := range orgList {
		fmt.Fprintf(&b, "%-18s", org)
		for _, e := range engines {
			fmt.Fprintf(&b, " %12s", pct(r.During[e].OrgFractions[org]))
		}
		b.WriteString("\n")
	}

	b.WriteString("\n== Figure 5: CDF of redirectors storing UID cookies ==\n")
	b.WriteString(renderCDFs(engines, func(e string) CDF { return r.During[e].UIDRedirectorCDF }))

	b.WriteString("\n== Table 4: redirectors that store UID cookies ==\n")
	for _, e := range engines {
		for _, f := range r.During[e].UIDRedirectors {
			fmt.Fprintf(&b, "%-12s %-40s %s\n", e, f.Label, pct(f.Fraction))
		}
	}

	b.WriteString("\n== Table 7: most common redirectors (share of redirector occurrences) ==\n")
	for _, e := range engines {
		for _, f := range r.During[e].TopRedirectors {
			fmt.Fprintf(&b, "%-12s %-40s %s\n", e, f.Label, pct(f.Fraction))
		}
	}

	b.WriteString("\n== Sec 4.3.1: trackers on ad destination pages ==\n")
	fmt.Fprintf(&b, "%-12s %16s %18s %22s\n", "engine", "pages-w-trackers", "distinct trackers", "median per iteration")
	for _, e := range engines {
		a := r.After[e]
		fmt.Fprintf(&b, "%-12s %16s %18d %22.0f\n",
			e, pct(a.PagesWithTrackers), a.DistinctTrackers, a.MedianTrackersPerPage)
	}

	b.WriteString("\n== Table 5: top entities of trackers on destination pages ==\n")
	for _, e := range engines {
		var parts []string
		for _, f := range r.After[e].TopEntities {
			parts = append(parts, fmt.Sprintf("%s (%.1f%%)", f.Label, f.Fraction*100))
		}
		fmt.Fprintf(&b, "%-12s %s\n", e, strings.Join(parts, ", "))
	}

	b.WriteString("\n== Table 6: UID parameters received by advertisers ==\n")
	fmt.Fprintf(&b, "%-12s %8s %8s %10s %8s\n", "engine", "MSCLKID", "GCLID", "other-UID", "any")
	for _, e := range engines {
		a := r.After[e]
		fmt.Fprintf(&b, "%-12s %8s %8s %10s %8s\n", e, pct(a.MSCLKID), pct(a.GCLID), pct(a.OtherUID), pct(a.AnyUID))
	}

	b.WriteString("\n== Sec 4.3.2: click-ID persistence in advertiser first-party storage ==\n")
	fmt.Fprintf(&b, "%-12s %18s %16s %14s\n", "engine", "MSCLKID persisted", "GCLID persisted", "referrer-UID")
	for _, e := range engines {
		a := r.After[e]
		fmt.Fprintf(&b, "%-12s %18s %16s %14s\n",
			e, pct(a.PersistedMSCLKID), pct(a.PersistedGCLID), pct(a.ReferrerUID))
	}

	b.WriteString("\n== Traffic: third-party and filter-list-blocked request rates ==\n")
	fmt.Fprintf(&b, "%-12s %10s %13s %10s\n", "engine", "#requests", "third-party", "blocked")
	for _, e := range engines {
		t := r.Traffic[e]
		fmt.Fprintf(&b, "%-12s %10d %13s %10s\n", e, t.Requests, pct(t.ThirdPartyRate()), pct(t.BlockedFraction()))
	}

	b.WriteString("\n== Sec 3.1: recorder coverage (crawler vs extension, median) ==\n")
	for _, e := range engines {
		fmt.Fprintf(&b, "%-12s %.0f%%\n", e, r.RecorderCoverage[e]*100)
	}

	b.WriteString("\n== Sec 3.2: token funnel ==\n")
	fmt.Fprintf(&b, "unique tokens: %d\n", r.Funnel.TotalTokens)
	for _, reason := range []tokens.Reason{
		tokens.ReasonCrossInstance, tokens.ReasonAdIdentifier,
		tokens.ReasonSessionID, tokens.ReasonHeuristics,
		tokens.ReasonManualPass, tokens.ReasonUserID,
	} {
		fmt.Fprintf(&b, "  %-28s %d\n", reason, r.Funnel.ByReason[reason])
	}

	// Failure attribution appears only when the crawl recorded failures,
	// so fault-free renders stay byte-identical to the pre-chaos layout.
	if len(r.Failures) > 0 {
		b.WriteString("\n== Crawl loss: failed iterations by error class ==\n")
		classes := failureClassOrder(r.Failures)
		fmt.Fprintf(&b, "%-12s", "engine")
		for _, cls := range classes {
			fmt.Fprintf(&b, " %13s", cls)
		}
		b.WriteString("\n")
		for _, e := range engines {
			if len(r.Failures[e]) == 0 {
				continue
			}
			fmt.Fprintf(&b, "%-12s", e)
			for _, cls := range classes {
				fmt.Fprintf(&b, " %13d", r.Failures[e][cls])
			}
			b.WriteString("\n")
		}
	}

	// Arms-race accounting appears only when some iteration carries an
	// outcome.
	if len(r.Outcomes) > 0 {
		b.WriteString("\n== Arms race: iteration outcomes ==\n")
		outcomes := outcomeOrder(r.Outcomes)
		fmt.Fprintf(&b, "%-12s", "engine")
		for _, o := range outcomes {
			fmt.Fprintf(&b, " %13s", o)
		}
		b.WriteString("\n")
		for _, e := range engines {
			if len(r.Outcomes[e]) == 0 {
				continue
			}
			fmt.Fprintf(&b, "%-12s", e)
			for _, o := range outcomes {
				fmt.Fprintf(&b, " %13d", r.Outcomes[e][o])
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}

// outcomeOrder lists the outcomes present in the arms-race table in
// canonical order (recovered, lost, abandoned), unknown values sorted
// at the end.
func outcomeOrder(outcomes map[string]map[string]int) []string {
	present := map[string]bool{}
	for _, oc := range outcomes {
		for o := range oc {
			present[o] = true
		}
	}
	var out []string
	for _, o := range []string{crawler.OutcomeRecovered, crawler.OutcomeLost, crawler.OutcomeAbandoned} {
		if present[o] {
			out = append(out, o)
			delete(present, o)
		}
	}
	var rest []string
	for o := range present {
		rest = append(rest, o)
	}
	sort.Strings(rest)
	return append(out, rest...)
}

// failureClassOrder lists the error classes present in the failure
// table, in the taxonomy's canonical order ("other" last).
func failureClassOrder(failures map[string]map[string]int) []string {
	present := map[string]bool{}
	for _, fc := range failures {
		for cls := range fc {
			present[cls] = true
		}
	}
	var out []string
	for _, cls := range crawler.ErrorClasses() {
		if present[string(cls)] {
			out = append(out, string(cls))
			delete(present, string(cls))
		}
	}
	if present["other"] {
		out = append(out, "other")
		delete(present, "other")
	}
	// Anything else (future classes) sorts alphabetically at the end.
	var rest []string
	for cls := range present {
		rest = append(rest, cls)
	}
	sort.Strings(rest)
	return append(out, rest...)
}

// renderCDFs prints per-engine CDF rows for k = 0..5.
func renderCDFs(engines []string, get func(string) CDF) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s", "engine")
	for k := 0; k <= 5; k++ {
		fmt.Fprintf(&b, "  k<=%d", k)
	}
	b.WriteString("\n")
	for _, e := range engines {
		cdf := get(e)
		fmt.Fprintf(&b, "%-12s", e)
		for k := 0; k <= 5; k++ {
			fmt.Fprintf(&b, " %5.2f", cdf.At(k))
		}
		b.WriteString("\n")
	}
	return b.String()
}
