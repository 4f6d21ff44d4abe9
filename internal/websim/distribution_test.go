package websim

import (
	"math"
	"testing"

	"searchads/internal/serp"
)

// TestStackDistributionsMatchCalibration verifies that the campaign
// pools statistically follow the Table 2-derived stack weights — a
// "mechanism over lookup" check: the paths the crawl produces are an
// emergent property of these pools.
func TestStackDistributionsMatchCalibration(t *testing.T) {
	// A large pool makes the sampling error small.
	cals := map[string]EngineCalibration{}
	for name, cal := range defaultCalibrations() {
		cal.PoolSize = 2000
		cals[name] = cal
	}
	w := NewWorld(Config{Seed: 303, QueriesPerEngine: 1, Calibrations: cals})

	for _, name := range serp.AllEngineNames() {
		cal := cals[name]
		var total float64
		for _, s := range cal.Stacks {
			total += s.Weight
		}
		// Count observed stack shapes.
		type shape struct {
			key    string
			direct bool
		}
		counts := map[shape]int{}
		for _, c := range w.Engines[name].Pool.Campaigns {
			k := ""
			for _, h := range c.Stack {
				k += h + ">"
			}
			counts[shape{k, c.DirectFromEngine}]++
		}
		n := len(w.Engines[name].Pool.Campaigns)
		for _, choice := range cal.Stacks {
			k := ""
			for _, h := range choice.Stack {
				k += h + ">"
			}
			want := choice.Weight / total
			got := float64(counts[shape{k, choice.Direct}]) / float64(n)
			// Allow 3 standard errors.
			se := math.Sqrt(want*(1-want)/float64(n)) + 1e-9
			if math.Abs(got-want) > 3*se+0.01 {
				t.Errorf("%s stack %q direct=%v: got %.3f, want %.3f (±%.3f)",
					name, k, choice.Direct, got, want, 3*se)
			}
		}
	}
}

// TestAutoTagRatesMatchCalibration verifies the Table 6-driving
// campaign flags.
func TestAutoTagRatesMatchCalibration(t *testing.T) {
	cals := map[string]EngineCalibration{}
	for name, cal := range defaultCalibrations() {
		cal.PoolSize = 2000
		cals[name] = cal
	}
	w := NewWorld(Config{Seed: 304, QueriesPerEngine: 1, Calibrations: cals})
	for _, name := range serp.AllEngineNames() {
		cal := cals[name]
		var autoTag, nonDirect int
		for _, c := range w.Engines[name].Pool.Campaigns {
			if !c.DirectFromEngine {
				nonDirect++
				if c.AutoTag {
					autoTag++
				}
			} else if c.AutoTag {
				t.Fatalf("%s: direct campaign auto-tags", name)
			}
		}
		got := float64(autoTag) / float64(nonDirect)
		if math.Abs(got-cal.AutoTagProb) > 0.04 {
			t.Errorf("%s auto-tag rate = %.3f, want %.3f", name, got, cal.AutoTagProb)
		}
	}
}
