package analysis

import (
	"fmt"
	"strings"
)

// Expectation is one published number from the paper's evaluation, with
// the accessor that measures the same quantity on a Report. Tolerances
// are deliberately loose: the substrate is a simulator, and the claim
// under reproduction is the *shape* (who wins, by roughly what factor),
// not absolute values (see the README: the study runs against a
// simulated web).
type Expectation struct {
	// ID names the table or figure ("Table 6", "Figure 4", ...).
	ID string
	// Engine is the engine the number belongs to ("" for global).
	Engine string
	// Metric describes the quantity.
	Metric string
	// Paper is the published value (fractions in [0,1]).
	Paper float64
	// Tolerance is the acceptable absolute deviation.
	Tolerance float64
	// Measure extracts the value from a report (NaN-free; returns -1
	// when the engine is absent from the dataset).
	Measure func(r *Report) float64
}

// Comparison is one evaluated expectation.
type Comparison struct {
	Expectation
	Measured float64
	// OK means |Measured-Paper| <= Tolerance.
	OK bool
	// Skipped means the engine was not in the dataset.
	Skipped bool
}

func duringMetric(engine string, f func(*DuringResult) float64) func(*Report) float64 {
	return func(r *Report) float64 {
		d, ok := r.During[engine]
		if !ok {
			return -1
		}
		return f(d)
	}
}

func afterMetric(engine string, f func(*AfterResult) float64) func(*Report) float64 {
	return func(r *Report) float64 {
		a, ok := r.After[engine]
		if !ok {
			return -1
		}
		return f(a)
	}
}

func uidRedirectorRate(host string) func(*DuringResult) float64 {
	return func(d *DuringResult) float64 {
		for _, f := range d.UIDRedirectors {
			if f.Label == host {
				return f.Fraction
			}
		}
		return 0
	}
}

func topPathShare(label string) func(*DuringResult) float64 {
	return func(d *DuringResult) float64 {
		for _, f := range d.TopPaths {
			if f.Label == label {
				return f.Fraction
			}
		}
		return 0
	}
}

// engineRate is one (engine, published value) expectation row. The
// paper tables are kept as ordered slices of these — never maps — so
// the expectation list, and with it experiments.md row order, is
// identical on every run.
type engineRate struct {
	engine string
	v      float64
}

// PaperExpectations returns the published numbers this reproduction
// checks itself against. Each entry cites its table/figure.
func PaperExpectations() []Expectation {
	var exps []Expectation

	// Navigational-tracking rates (§1 / §4.2.2): 4% Bing, 100% Google,
	// 100% DuckDuckGo, 86% Qwant, 100% StartPage. Ordered slices, not
	// maps: expectation order decides experiments.md row order, and map
	// iteration would re-shuffle it every process.
	nav := []engineRate{
		{"bing", 0.04}, {"google", 1.00}, {"duckduckgo", 1.00},
		{"startpage", 1.00}, {"qwant", 0.86},
	}
	for _, er := range nav {
		engine := er.engine
		exps = append(exps, Expectation{
			ID: "Sec 4.2.2", Engine: engine, Metric: "navigational tracking rate",
			Paper: er.v, Tolerance: 0.10,
			Measure: duringMetric(engine, func(d *DuringResult) float64 { return d.NavTrackingFraction }),
		})
	}

	// Figure 4 anchor points.
	fig4 := []struct {
		engine string
		k      int
		p      float64
	}{
		{"bing", 0, 0.96}, // 96% of Bing clicks bounce through nothing
		// DDG: Table 2 puts 82% of clicks on the duckduckgo-bing-destination
		// path (exactly one cross-site redirector, Bing's click server);
		// every longer path adds >= 2. The figure's visual anchor reads
		// higher, but it cannot exceed the Table 2 path share it is
		// computed from, so the precise Table 2 number is the pin.
		{"duckduckgo", 1, 0.82},
		{"google", 1, 0.73}, // Google: 69% one redirector (+4% at k<=0 none)
		{"qwant", 1, 0.90},
		{"startpage", 1, 0.07}, // 93% of StartPage clicks see >= 2 sites
	}
	for _, c := range fig4 {
		engine, k := c.engine, c.k
		exps = append(exps, Expectation{
			ID: "Figure 4", Engine: c.engine,
			Metric: fmt.Sprintf("P(#redirectors <= %d)", c.k),
			Paper:  c.p, Tolerance: 0.12,
			Measure: duringMetric(engine, func(d *DuringResult) float64 { return d.RedirectorCDF.At(k) }),
		})
	}

	// Table 2 top-path shares.
	table2 := []struct {
		engine, path string
		p            float64
	}{
		{"bing", "bing.com - destination", 0.96},
		{"google", "google.com - googleadservices.com - destination", 0.69},
		{"duckduckgo", "duckduckgo.com - bing.com - destination", 0.82},
		{"startpage", "startpage.com - google.com - googleadservices.com - destination", 0.73},
		{"qwant", "qwant.com - bing.com - destination", 0.66},
		{"qwant", "qwant.com - destination", 0.14},
	}
	for _, c := range table2 {
		engine, path := c.engine, c.path
		exps = append(exps, Expectation{
			ID: "Table 2", Engine: c.engine, Metric: "share of path " + c.path,
			Paper: c.p, Tolerance: 0.12,
			Measure: duringMetric(engine, topPathShare(path)),
		})
	}

	// Table 3 organisation fractions (selection).
	table3 := []struct {
		engine, org string
		p           float64
	}{
		{"bing", "Microsoft", 1.00},
		{"google", "Google", 1.00},
		{"duckduckgo", "Microsoft", 1.00},
		{"duckduckgo", "Google", 0.15},
		{"startpage", "Google", 1.00},
		{"qwant", "Microsoft", 0.79},
	}
	for _, c := range table3 {
		engine, org := c.engine, c.org
		exps = append(exps, Expectation{
			ID: "Table 3", Engine: c.engine, Metric: "paths touching " + c.org,
			Paper: c.p, Tolerance: 0.12,
			Measure: duringMetric(engine, func(d *DuringResult) float64 { return d.OrgFractions[org] }),
		})
	}

	// Table 4 UID-storing redirectors (headline rows).
	table4 := []struct {
		engine, host string
		p            float64
	}{
		{"google", "googleadservices.com", 0.98},
		{"duckduckgo", "bing.com", 0.95},
		{"startpage", "google.com", 1.00},
		{"startpage", "googleadservices.com", 0.94},
		{"qwant", "bing.com", 0.78},
	}
	for _, c := range table4 {
		engine, host := c.engine, c.host
		exps = append(exps, Expectation{
			ID: "Table 4", Engine: c.engine, Metric: host + " stores UID cookie",
			Paper: c.p, Tolerance: 0.12,
			Measure: duringMetric(engine, uidRedirectorRate(host)),
		})
	}

	// §4.3.1 destination-page tracker prevalence (93% overall).
	for _, e := range []string{"bing", "google", "duckduckgo", "startpage", "qwant"} {
		engine := e
		exps = append(exps, Expectation{
			ID: "Sec 4.3.1", Engine: e, Metric: "destination pages with trackers",
			Paper: 0.93, Tolerance: 0.08,
			Measure: afterMetric(engine, func(a *AfterResult) float64 { return a.PagesWithTrackers }),
		})
	}
	// §4.3.1 medians (9/11/6/8/6).
	medians := []engineRate{
		{"bing", 9}, {"google", 11}, {"duckduckgo", 6}, {"startpage", 8}, {"qwant", 6},
	}
	for _, er := range medians {
		engine := er.engine
		exps = append(exps, Expectation{
			ID: "Sec 4.3.1", Engine: engine, Metric: "median trackers per destination",
			Paper: er.v, Tolerance: 3,
			Measure: afterMetric(engine, func(a *AfterResult) float64 { return a.MedianTrackersPerPage }),
		})
	}

	// Table 6: MSCLKID / GCLID / other rates.
	table6 := []struct {
		engine        string
		ms, gc, other float64
	}{
		{"bing", 0.79, 0.12, 0.03},
		{"google", 0.00, 0.92, 0.08},
		{"duckduckgo", 0.66, 0.12, 0.06},
		{"startpage", 0.00, 0.92, 0.12},
		{"qwant", 0.51, 0.08, 0.07},
	}
	for _, c := range table6 {
		engine := c.engine
		exps = append(exps,
			Expectation{
				ID: "Table 6", Engine: c.engine, Metric: "MSCLKID rate",
				Paper: c.ms, Tolerance: 0.12,
				Measure: afterMetric(engine, func(a *AfterResult) float64 { return a.MSCLKID }),
			},
			Expectation{
				ID: "Table 6", Engine: c.engine, Metric: "GCLID rate",
				Paper: c.gc, Tolerance: 0.12,
				Measure: afterMetric(engine, func(a *AfterResult) float64 { return a.GCLID }),
			},
			Expectation{
				ID: "Table 6", Engine: c.engine, Metric: "other-UID rate",
				Paper: c.other, Tolerance: 0.10,
				Measure: afterMetric(engine, func(a *AfterResult) float64 { return a.OtherUID }),
			},
		)
	}

	// §4.3.2 overall UID-to-advertiser rates (80/94/68/92/53%).
	anyUID := []engineRate{
		{"bing", 0.80}, {"google", 0.94}, {"duckduckgo", 0.68},
		{"startpage", 0.92}, {"qwant", 0.53},
	}
	for _, er := range anyUID {
		engine := er.engine
		exps = append(exps, Expectation{
			ID: "Sec 4.3.2", Engine: engine, Metric: "any UID to advertiser",
			Paper: er.v, Tolerance: 0.13,
			Measure: afterMetric(engine, func(a *AfterResult) float64 { return a.AnyUID }),
		})
	}

	// §4.3.2 persistence: MSCLKID 15/17/1%; GCLID 5/10/13%.
	persistMS := []engineRate{{"bing", 0.15}, {"duckduckgo", 0.17}, {"qwant", 0.01}}
	for _, er := range persistMS {
		engine := er.engine
		exps = append(exps, Expectation{
			ID: "Sec 4.3.2", Engine: engine, Metric: "MSCLKID persisted",
			Paper: er.v, Tolerance: 0.10,
			Measure: afterMetric(engine, func(a *AfterResult) float64 { return a.PersistedMSCLKID }),
		})
	}
	persistGC := []engineRate{{"bing", 0.05}, {"google", 0.10}, {"startpage", 0.13}}
	for _, er := range persistGC {
		engine := er.engine
		exps = append(exps, Expectation{
			ID: "Sec 4.3.2", Engine: engine, Metric: "GCLID persisted",
			Paper: er.v, Tolerance: 0.10,
			Measure: afterMetric(engine, func(a *AfterResult) float64 { return a.PersistedGCLID }),
		})
	}

	// §3.1 recorder coverage (97% median).
	for _, e := range []string{"bing", "google", "duckduckgo", "startpage", "qwant"} {
		engine := e
		exps = append(exps, Expectation{
			ID: "Sec 3.1", Engine: e, Metric: "crawler/extension coverage (median)",
			Paper: 0.97, Tolerance: 0.04,
			Measure: func(r *Report) float64 {
				v, ok := r.RecorderCoverage[engine]
				if !ok {
					return -1
				}
				return v
			},
		})
	}
	return exps
}

// Compare evaluates every paper expectation against the report.
func (r *Report) Compare() []Comparison {
	var out []Comparison
	for _, exp := range PaperExpectations() {
		c := Comparison{Expectation: exp, Measured: exp.Measure(r)}
		if c.Measured < 0 {
			c.Skipped = true
		} else {
			delta := c.Measured - exp.Paper
			if delta < 0 {
				delta = -delta
			}
			c.OK = delta <= exp.Tolerance
		}
		out = append(out, c)
	}
	return out
}

// RenderExperiments produces the EXPERIMENTS.md body: every table and
// figure with paper-vs-measured values.
func RenderExperiments(comps []Comparison) string {
	var b strings.Builder
	b.WriteString("# EXPERIMENTS — paper vs. measured\n\n")
	b.WriteString("Generated by `cmd/report -experiments`. Tolerances are loose by design:\n")
	b.WriteString("the substrate is a simulator and the claims under reproduction are the\n")
	b.WriteString("qualitative shapes (see the README's opening section).\n\n")
	b.WriteString("| ID | Engine | Metric | Paper | Measured | Within tolerance |\n")
	b.WriteString("|---|---|---|---:|---:|:-:|\n")
	okAll, total := 0, 0
	for _, c := range comps {
		status := "yes"
		measured := fmt.Sprintf("%.2f", c.Measured)
		if c.Skipped {
			status = "skipped"
			measured = "—"
		} else {
			total++
			if c.OK {
				okAll++
			} else {
				status = "**NO**"
			}
		}
		fmt.Fprintf(&b, "| %s | %s | %s | %.2f | %s | %s |\n",
			c.ID, c.Engine, c.Metric, c.Paper, measured, status)
	}
	fmt.Fprintf(&b, "\n%d/%d expectations within tolerance.\n", okAll, total)
	return b.String()
}
