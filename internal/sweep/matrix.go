// Package sweep orchestrates families of studies: it expands a
// declarative scenario matrix (seeds × storage modes × filter
// annotation × stealth × engine subsets × fault profiles × fault
// rates) into concrete study configurations, executes every cell on a bounded, cancellable worker
// pool — each cell is the deterministic crawl-and-analyze pipeline
// behind searchads.Study, so any cell reproduces byte-identically in
// isolation — and folds each cell's crawl one iteration at a time
// through an incremental analysis (analysis.Accumulator), never
// materialising a dataset. A 100-cell sweep therefore holds
// O(parallelism) crawl iterations in memory, not O(cells) and not even
// O(dataset). Across the seeds of each scenario it aggregates the key
// §4 metrics (mean, stddev, min/max, 95% CI) and renders them as
// machine-readable JSON and a human table.
package sweep

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"searchads/internal/crawler"
	"searchads/internal/netsim"
	"searchads/internal/storage"
)

// Matrix declares a scenario study. Every combination of the dimension
// slices becomes one scenario; every scenario runs once per seed. Zero
// dimensions default to the paper's baseline (flat storage, no crawl
// filter, stealth on, all five engines, one seed).
type Matrix struct {
	// Seeds lists the world seeds every scenario runs under
	// (default: seed 1 only).
	Seeds []int64
	// Storage lists the cookie models to sweep (default: flat, the
	// paper's Chrome configuration).
	Storage []storage.Mode
	// FilterAnnotate sweeps crawl-time filter-list annotation off/on
	// (default: off). Analysis always runs the filter lists either
	// way; annotation additionally models an adblock user's
	// in-browser matching on the request hot path.
	FilterAnnotate []bool
	// Stealth sweeps the stealth fingerprint on/off (default: on;
	// off reproduces the bot-detected, ad-free crawl of §3.1).
	Stealth []bool
	// EngineSets lists engine subsets to crawl; a nil or empty set
	// means all five engines (default: one all-engines set).
	EngineSets [][]string
	// FaultProfiles lists netsim fault profiles to sweep (default:
	// "off"). See netsim.ProfileRates for the named class mixes.
	FaultProfiles []string
	// FaultRates lists overall per-request fault-injection rates to
	// sweep (default: 0). Crossed with FaultProfiles like any other
	// dimension, so a sweep quantifies metric bias versus injection
	// rate directly.
	FaultRates []float64
	// Adversaries lists stateful-adversary postures to sweep (default:
	// "off"). See netsim.AdversaryPostures.
	Adversaries []string
	// Countermeasures lists crawler countermeasure bundles to sweep
	// (default: "off"). See crawler.CountermeasureNames. Crossed with
	// Adversaries, the sweep measures the full arms-race grid —
	// recovered/lost/abandoned per posture × bundle.
	Countermeasures []string
	// QueriesPerEngine sizes each cell's query corpus (0 = the
	// library default, 500 — the paper's scale).
	QueriesPerEngine int
	// Iterations caps crawl iterations per engine (0 = one per query).
	Iterations int
	// SkipRevisit disables the next-day profile revisit in every cell.
	SkipRevisit bool
}

// Cell is one concrete study configuration: a scenario plus a seed.
type Cell struct {
	// Scenario names the non-seed coordinates; all cells sharing a
	// Scenario are aggregated together across their seeds.
	Scenario string
	Seed     int64
	// Engines is the engine subset (nil = all five).
	Engines          []string
	Storage          storage.Mode
	FilterAnnotate   bool
	NoStealth        bool
	FaultProfile     string
	FaultRate        float64
	Adversary        string
	Countermeasure   string
	QueriesPerEngine int
	Iterations       int
	SkipRevisit      bool
}

// withDefaults fills the zero dimensions.
func (m Matrix) withDefaults() Matrix {
	if len(m.Seeds) == 0 {
		m.Seeds = []int64{1}
	}
	if len(m.Storage) == 0 {
		m.Storage = []storage.Mode{storage.Flat}
	}
	if len(m.FilterAnnotate) == 0 {
		m.FilterAnnotate = []bool{false}
	}
	if len(m.Stealth) == 0 {
		m.Stealth = []bool{true}
	}
	if len(m.EngineSets) == 0 {
		m.EngineSets = [][]string{nil}
	}
	if len(m.FaultProfiles) == 0 {
		m.FaultProfiles = []string{"off"}
	}
	if len(m.FaultRates) == 0 {
		m.FaultRates = []float64{0}
	}
	if len(m.Adversaries) == 0 {
		m.Adversaries = []string{"off"}
	}
	if len(m.Countermeasures) == 0 {
		m.Countermeasures = []string{"off"}
	}
	return m
}

// Expand realises the matrix as concrete cells: scenarios in dimension
// order (storage outermost, then filter, stealth, engine set), seeds
// innermost, so all cells of one scenario are adjacent.
func (m Matrix) Expand() []Cell {
	m = m.withDefaults()
	var cells []Cell
	for _, st := range m.Storage {
		for _, filter := range m.FilterAnnotate {
			for _, stealth := range m.Stealth {
				for _, set := range m.EngineSets {
					for _, profile := range m.FaultProfiles {
						for _, rate := range m.FaultRates {
							for _, adv := range m.Adversaries {
								for _, cm := range m.Countermeasures {
									scenario := scenarioName(st, filter, stealth, set, profile, rate, adv, cm)
									for _, seed := range m.Seeds {
										cells = append(cells, Cell{
											Scenario:         scenario,
											Seed:             seed,
											Engines:          set,
											Storage:          st,
											FilterAnnotate:   filter,
											NoStealth:        !stealth,
											FaultProfile:     profile,
											FaultRate:        rate,
											Adversary:        adv,
											Countermeasure:   cm,
											QueriesPerEngine: m.QueriesPerEngine,
											Iterations:       m.Iterations,
											SkipRevisit:      m.SkipRevisit,
										})
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return cells
}

// Scenarios returns the distinct scenario names in expansion order.
func (m Matrix) Scenarios() []string {
	var names []string
	seen := map[string]bool{}
	for _, c := range m.Expand() {
		if !seen[c.Scenario] {
			seen[c.Scenario] = true
			names = append(names, c.Scenario)
		}
	}
	return names
}

func scenarioName(st storage.Mode, filter, stealth bool, set []string, profile string, rate float64, adv, cm string) string {
	name := fmt.Sprintf("storage=%s,filter=%s,stealth=%s,engines=%s",
		st, onOff(filter), onOff(stealth), engineSetLabel(set))
	// The fault segment appears only when the fault dimensions leave
	// their defaults, so matrices that never mention faults keep their
	// exact pre-chaos scenario names; the adversary and countermeasure
	// segments likewise appear only when armed, so chaos-only scenarios
	// keep their names (and SWEEP_chaos.json its scenario keys).
	if profile != "off" && profile != "" || rate != 0 {
		name += fmt.Sprintf(",faults=%s@%s", profile, strconv.FormatFloat(rate, 'g', -1, 64))
	}
	if adv != "" && adv != "off" {
		name += ",adv=" + adv
	}
	if cm != "" && cm != "off" {
		name += ",cm=" + cm
	}
	return name
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

func engineSetLabel(set []string) string {
	if len(set) == 0 {
		return "all"
	}
	return strings.Join(set, "+")
}

// Overlay returns m with every dimension that o sets replacing m's.
// The CLI uses it to refine a preset with an explicit -matrix.
func (m Matrix) Overlay(o Matrix) Matrix {
	if len(o.Seeds) > 0 {
		m.Seeds = o.Seeds
	}
	if len(o.Storage) > 0 {
		m.Storage = o.Storage
	}
	if len(o.FilterAnnotate) > 0 {
		m.FilterAnnotate = o.FilterAnnotate
	}
	if len(o.Stealth) > 0 {
		m.Stealth = o.Stealth
	}
	if len(o.EngineSets) > 0 {
		m.EngineSets = o.EngineSets
	}
	if len(o.FaultProfiles) > 0 {
		m.FaultProfiles = o.FaultProfiles
	}
	if len(o.FaultRates) > 0 {
		m.FaultRates = o.FaultRates
	}
	if len(o.Adversaries) > 0 {
		m.Adversaries = o.Adversaries
	}
	if len(o.Countermeasures) > 0 {
		m.Countermeasures = o.Countermeasures
	}
	if o.QueriesPerEngine != 0 {
		m.QueriesPerEngine = o.QueriesPerEngine
	}
	if o.Iterations != 0 {
		m.Iterations = o.Iterations
	}
	if o.SkipRevisit {
		m.SkipRevisit = true
	}
	return m
}

// ParseMatrix parses the matrix grammar: semicolon-separated
// dimensions, each "key=value,value,...". Keys:
//
//	seeds=1,2,3            world seeds
//	storage=flat,partitioned
//	filter=off,on          crawl-time filter annotation
//	stealth=on,off         stealth fingerprint
//	engines=all,bing+google  engine subsets ('+' joins a subset)
//	faults=off,bot-hostile fault profiles (see netsim.ProfileRates)
//	fault-rate=0,0.05,0.2  fault-injection rates
//	adversary=off,strict   adversary postures (see netsim.AdversaryPostures)
//	cm=off,pace,full       countermeasure bundles (see crawler.CountermeasureNames)
//	queries=80             queries per engine (single value)
//	iterations=40          iteration cap per engine (single value)
//
// An empty string parses to the zero Matrix (all defaults). Example:
//
//	storage=flat,partitioned;filter=on,off;engines=bing+google
func ParseMatrix(s string) (Matrix, error) {
	var m Matrix
	if strings.TrimSpace(s) == "" {
		return m, nil
	}
	seen := map[string]bool{}
	for _, dim := range strings.Split(s, ";") {
		dim = strings.TrimSpace(dim)
		if dim == "" {
			continue
		}
		key, vals, ok := strings.Cut(dim, "=")
		if !ok {
			return m, fmt.Errorf("sweep: matrix dimension %q is not key=values", dim)
		}
		key = strings.TrimSpace(strings.ToLower(key))
		if seen[key] {
			return m, fmt.Errorf("sweep: matrix dimension %q given twice", key)
		}
		seen[key] = true
		parts := strings.Split(vals, ",")
		for i := range parts {
			parts[i] = strings.TrimSpace(parts[i])
		}
		switch key {
		case "seeds":
			for _, p := range parts {
				n, err := strconv.ParseInt(p, 10, 64)
				if err != nil {
					return m, fmt.Errorf("sweep: bad seed %q", p)
				}
				m.Seeds = append(m.Seeds, n)
			}
		case "storage":
			for _, p := range parts {
				switch strings.ToLower(p) {
				case "flat":
					m.Storage = append(m.Storage, storage.Flat)
				case "partitioned":
					m.Storage = append(m.Storage, storage.Partitioned)
				default:
					return m, fmt.Errorf("sweep: unknown storage mode %q (want flat or partitioned)", p)
				}
			}
		case "filter":
			b, err := parseOnOff(parts)
			if err != nil {
				return m, fmt.Errorf("sweep: filter: %w", err)
			}
			m.FilterAnnotate = b
		case "stealth":
			b, err := parseOnOff(parts)
			if err != nil {
				return m, fmt.Errorf("sweep: stealth: %w", err)
			}
			m.Stealth = b
		case "engines":
			for _, p := range parts {
				if strings.EqualFold(p, "all") {
					m.EngineSets = append(m.EngineSets, nil)
					continue
				}
				set := strings.Split(p, "+")
				for i := range set {
					set[i] = strings.TrimSpace(set[i])
					if set[i] == "" {
						return m, fmt.Errorf("sweep: empty engine name in set %q", p)
					}
				}
				m.EngineSets = append(m.EngineSets, set)
			}
		case "faults":
			for _, p := range parts {
				// Validate eagerly so a typo fails at parse time, not
				// per cell mid-sweep (any rate works for validation).
				if _, err := netsim.ProfileRates(strings.ToLower(p), 0); err != nil {
					return m, fmt.Errorf("sweep: %w", err)
				}
				m.FaultProfiles = append(m.FaultProfiles, strings.ToLower(p))
			}
		case "fault-rate", "fault_rate":
			for _, p := range parts {
				f, err := strconv.ParseFloat(p, 64)
				if err != nil || f < 0 || f > 1 {
					return m, fmt.Errorf("sweep: bad fault rate %q (want a value in [0, 1])", p)
				}
				m.FaultRates = append(m.FaultRates, f)
			}
		case "adversary", "adversaries":
			for _, p := range parts {
				// Validate eagerly, like faults: a typo fails at parse
				// time, not per cell mid-sweep.
				if _, err := netsim.PostureConfig(strings.ToLower(p)); err != nil {
					return m, fmt.Errorf("sweep: %w", err)
				}
				m.Adversaries = append(m.Adversaries, strings.ToLower(p))
			}
		case "cm", "countermeasures":
			for _, p := range parts {
				if _, err := crawler.CountermeasureBundle(strings.ToLower(p)); err != nil {
					return m, fmt.Errorf("sweep: %w", err)
				}
				m.Countermeasures = append(m.Countermeasures, strings.ToLower(p))
			}
		case "queries":
			n, err := singleInt(parts)
			if err != nil {
				return m, fmt.Errorf("sweep: queries: %w", err)
			}
			m.QueriesPerEngine = n
		case "iterations":
			n, err := singleInt(parts)
			if err != nil {
				return m, fmt.Errorf("sweep: iterations: %w", err)
			}
			m.Iterations = n
		default:
			return m, fmt.Errorf("sweep: unknown matrix key %q (want seeds, storage, filter, stealth, engines, faults, fault-rate, adversary, cm, queries, or iterations)", key)
		}
	}
	return m, nil
}

func parseOnOff(parts []string) ([]bool, error) {
	var out []bool
	for _, p := range parts {
		switch strings.ToLower(p) {
		case "on", "true", "yes":
			out = append(out, true)
		case "off", "false", "no":
			out = append(out, false)
		default:
			return nil, fmt.Errorf("bad value %q (want on or off)", p)
		}
	}
	return out, nil
}

func singleInt(parts []string) (int, error) {
	if len(parts) != 1 {
		return 0, fmt.Errorf("wants exactly one value, got %d", len(parts))
	}
	n, err := strconv.Atoi(parts[0])
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad value %q", parts[0])
	}
	return n, nil
}

// presets are the named scenario matrices. Each is a Matrix the caller
// can refine with Overlay (seeds in particular are usually supplied
// separately).
var presets = map[string]Matrix{
	// paper-baseline is the paper's own configuration: flat cookie
	// storage, no in-browser blocking, stealth crawler, all engines.
	"paper-baseline": {},
	// adblock-user models a user running the filter lists in the
	// browser: every request is matched on the hot path and
	// iterations carry per-stage blocked counts.
	"adblock-user": {FilterAnnotate: []bool{true}},
	// cookieless-web models the partitioned-storage web (Safari,
	// Firefox, Brave): third-party cookies keyed by top-level site.
	"cookieless-web": {Storage: []storage.Mode{storage.Partitioned}},
	// storage-ablation sweeps both cookie models side by side — the
	// ablation showing partitioning does not stop navigational
	// tracking (the paper's §2.2.1).
	"storage-ablation": {Storage: []storage.Mode{storage.Flat, storage.Partitioned}},
	// stealth-ablation contrasts the stealth and naive-headless
	// fingerprints (§3.1: without stealth the engines serve no ads).
	"stealth-ablation": {Stealth: []bool{true, false}},
	// chaos-robustness quantifies metric bias under adversarial-web
	// failure injection: the bot-hostile profile (bot walls, 403, 429)
	// swept across injection rates, rate 0 as the control.
	"chaos-robustness": {
		FaultProfiles: []string{"bot-hostile"},
		FaultRates:    []float64{0, 0.05, 0.1, 0.2},
	},
	// arms-race crosses stateful adversary postures with crawler
	// countermeasure bundles over a light i.i.d. fault floor: the
	// recovered/lost/abandoned grid that extends the chaos bias table.
	"arms-race": {
		FaultProfiles:   []string{"bot-hostile"},
		FaultRates:      []float64{0.05},
		Adversaries:     []string{"lenient", "strict"},
		Countermeasures: []string{"off", "pace", "full"},
	},
}

// Preset returns a named scenario matrix.
func Preset(name string) (Matrix, error) {
	m, ok := presets[name]
	if !ok {
		return Matrix{}, fmt.Errorf("sweep: unknown preset %q (have: %s)",
			name, strings.Join(PresetNames(), ", "))
	}
	return m, nil
}

// PresetNames lists the available presets, sorted.
func PresetNames() []string {
	names := make([]string, 0, len(presets))
	for n := range presets {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
