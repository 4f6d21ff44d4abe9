// Package websim assembles the complete simulated web: the five search
// engines, the two ad platforms, every redirector service, per-engine
// advertiser pools, destination-page trackers, and the query workload —
// all seeded and deterministic.
//
// A world is built in two steps. Derive is the seeded, pure part: it
// mints the tracker universe, the advertiser sites, the campaign pools
// and their landing URLs into a Blueprint, which depends only on the
// seed, the calibrations and referrer smuggling and is never written
// after Derive returns. Instantiate is the cheap wiring: a fresh
// network, redirector, tracker and site registries with fresh
// per-client identifier streams, the platforms and engines, the query
// corpora and the fault plan. NewWorld is Derive followed by
// Instantiate. Callers that crawl one web under several browser
// set-ups (storage, filter, stealth, countermeasures, faults) derive
// once and instantiate per crawl; every instantiated world is
// byte-identical in behaviour to a NewWorld of the same config.
package websim

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"searchads/internal/adtech"
	"searchads/internal/advertiser"
	"searchads/internal/detrand"
	"searchads/internal/netsim"
	"searchads/internal/serp"
	"searchads/internal/urlx"
	"searchads/internal/workload"
)

// Config parameterises a world build. The zero value is completed by
// defaults in NewWorld. Seed, Calibrations and EnableReferrerSmuggling
// are the derivation fields Derive reads; Engines, QueriesPerEngine and
// Faults are the instance fields Instantiate reads.
type Config struct {
	// Seed roots every stochastic choice; identical configs build
	// byte-identical worlds.
	Seed int64
	// Engines lists the engines to crawl (default: all five). The
	// world always *registers* all five — DuckDuckGo's chains need
	// bing.com, StartPage's need google.com.
	Engines []string
	// QueriesPerEngine sizes the query corpus (paper: 500).
	QueriesPerEngine int
	// Calibrations overrides the per-engine defaults (nil entries fall
	// back to defaults).
	Calibrations map[string]EngineCalibration
	// EnableReferrerSmuggling adds a referrer-smuggling ad-tech service
	// to every engine's stack distribution — the §5 extension: UIDs
	// passed through document.referrer instead of query parameters.
	EnableReferrerSmuggling bool
	// Faults arms the network's deterministic failure injection (see
	// netsim.FaultPlan). The zero plan injects nothing and leaves the
	// world byte-identical to one built without it. A zero plan Seed
	// defaults to the world seed, and the botwall interstitial defaults
	// to websim's CAPTCHA challenge page.
	Faults netsim.FaultPlan
}

// withDerivationDefaults fills the derivation fields.
func (c Config) withDerivationDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 20221001
	}
	defaults := defaultCalibrations()
	if c.Calibrations == nil {
		c.Calibrations = defaults
	} else {
		merged := make(map[string]EngineCalibration, len(defaults))
		for k, v := range defaults {
			if override, ok := c.Calibrations[k]; ok {
				merged[k] = override
			} else {
				merged[k] = v
			}
		}
		c.Calibrations = merged
	}
	return c
}

// withInstanceDefaults fills the instance fields only.
func (c Config) withInstanceDefaults() Config {
	if len(c.Engines) == 0 {
		c.Engines = serp.AllEngineNames()
	}
	if c.QueriesPerEngine == 0 {
		c.QueriesPerEngine = 500
	}
	return c
}

// World is the fully-wired simulated web.
type World struct {
	Net         *netsim.Network
	Cfg         Config
	Seed        detrand.Source
	Engines     map[string]*serp.Engine
	Redirectors *adtech.Registry
	Sites       *advertiser.SiteRegistry
	Trackers    *advertiser.TrackerRegistry
	// Queries holds the per-engine query corpus.
	Queries map[string][]string
	// SitesByEngine records which advertiser sites belong to which
	// engine's pool (diagnostics and tests). It is the blueprint's map,
	// shared by every world instantiated from it: read it, never write.
	SitesByEngine map[string][]*advertiser.Site
}

// Blueprint is the seeded, read-only part of a world: the tracker
// universe, the advertiser sites, the per-engine campaign pools and
// their landing URLs. Nothing writes it after Derive returns, so any
// number of worlds may be instantiated from one blueprint, on any
// number of goroutines, and crawled concurrently.
type Blueprint struct {
	// cfg holds the resolved derivation fields: the defaulted seed and
	// the merged calibrations, with referrer-smuggling stacks added.
	cfg           Config
	seed          detrand.Source
	trackers      []*advertiser.Tracker
	sites         []*advertiser.Site
	sitesByEngine map[string][]*advertiser.Site
	pools         map[string]*adtech.Pool
}

// NewWorld builds and registers the whole ecosystem.
func NewWorld(cfg Config) *World {
	return Derive(cfg).Instantiate(cfg)
}

// Derive mints the seeded part of the world cfg describes. Only the
// derivation fields of cfg (Seed, Calibrations, EnableReferrerSmuggling)
// are read.
func Derive(cfg Config) *Blueprint {
	cfg = Config{
		Seed:                    cfg.Seed,
		Calibrations:            cfg.Calibrations,
		EnableReferrerSmuggling: cfg.EnableReferrerSmuggling,
	}.withDerivationDefaults()
	seed := detrand.New(cfg.Seed)
	if cfg.EnableReferrerSmuggling {
		// Give every engine's campaigns a slice of referrer-smuggling
		// stacks.
		cals := make(map[string]EngineCalibration, len(cfg.Calibrations))
		for name, cal := range cfg.Calibrations {
			cal.Stacks = append(append([]StackChoice(nil), cal.Stacks...),
				StackChoice{Weight: 10, Stack: []string{HostRefSync}})
			cals[name] = cal
		}
		cfg.Calibrations = cals
	}
	bp := &Blueprint{
		cfg:           cfg,
		seed:          seed,
		sitesByEngine: make(map[string][]*advertiser.Site),
		pools:         make(map[string]*adtech.Pool),
	}

	// 1. Tracker universe: the builtin named services plus per-engine
	// long-tail pools.
	trackerPools := make(map[string][]*advertiser.Tracker)
	allTrackers := advertiser.BuiltinTrackers()
	builtins := allTrackers
	for _, name := range serp.AllEngineNames() {
		cal := cfg.Calibrations[name]
		minted := advertiser.MintUnknownTrackers(seed.Derive("unknown", name), cal.UnknownTrackerPool)
		trackerPools[name] = minted
		allTrackers = append(allTrackers, minted...)
	}
	bp.trackers = allTrackers
	byEntity := builtinsByEntity(builtins)

	// 2. Per-engine advertiser pools and campaigns. Behavioural
	// prevalences (stack mix, auto-tagging, clean sites, persistence) are
	// realised as exact pool quotas — largest-remainder counts assigned
	// to a seed-shuffled subset — rather than independent per-campaign
	// coin flips. With pools of only ~60–100 campaigns, i.i.d. sampling
	// put ±5pp of binomial noise on every Table 2/6 rate and made the
	// full-scale reproduction a seed lottery; quota assignment pins the
	// realised pool fractions to the calibration for every seed, leaving
	// only the (intended) crawl-level variance of which ads get clicked.
	usedDomains := make(map[string]bool)
	products := workload.Products()
	for _, name := range serp.AllEngineNames() {
		cal := cfg.Calibrations[name]
		poolSeed := seed.Derive("pool", name)
		g := poolSeed.Rand()
		r := &g
		n := cal.PoolSize

		choiceIdx := quotaChoices(r, stackWeights(cal.Stacks), n)
		crossTag := quotaBools(r, cal.CrossTagGCLIDProb, n)
		otherUID := quotaBools(r, cal.OtherUIDProb, n)
		clean := quotaBools(r, cal.CleanSiteProb, n)
		persistLS := quotaBools(r, 0.2, n)
		persistKeys := sortedKeys(cal.PersistClickIDProb)
		persist := make([][]bool, len(persistKeys))
		for k, param := range persistKeys {
			persist[k] = quotaBools(r, cal.PersistClickIDProb[param], n)
		}
		// Auto-tagging applies to non-direct campaigns only, so its quota
		// is taken over that subset.
		var nonDirect []int
		for i := 0; i < n; i++ {
			if !cal.Stacks[choiceIdx[i]].Direct {
				nonDirect = append(nonDirect, i)
			}
		}
		autoTag := make([]bool, n)
		for i, on := range quotaBools(r, cal.AutoTagProb, len(nonDirect)) {
			autoTag[nonDirect[i]] = on
		}

		sampler := newTrackerSampler(cal, byEntity, trackerPools[name])
		pool := &adtech.Pool{Campaigns: make([]*adtech.Campaign, 0, n)}
		sites := make([]*advertiser.Site, 0, n)
		for i := 0; i < n; i++ {
			domain := mintDomain(r, usedDomains)
			site := &advertiser.Site{
				Domain:      domain,
				LandingPath: "/landing",
			}
			if !clean[i] {
				site.Trackers = sampler.sample(r)
			}
			for k, param := range persistKeys {
				if persist[k][i] {
					site.PersistParams = append(site.PersistParams, param)
				}
			}
			site.PersistToLocalStorage = persistLS[i]
			sites = append(sites, site)

			choice := cal.Stacks[choiceIdx[i]]
			campaign := &adtech.Campaign{
				ID:               name + "-" + strconv.Itoa(i),
				Landing:          urlx.MustParse(site.LandingURL()),
				Keywords:         []string{products[r.Intn(len(products))]},
				Stack:            choice.Stack,
				DirectFromEngine: choice.Direct,
				PersistsClickIDs: site.PersistParams,
				AutoTag:          autoTag[i],
				CrossTagGCLID:    crossTag[i],
			}
			if otherUID[i] {
				campaign.OtherUIDParam = otherUIDParams[r.Intn(len(otherUIDParams))]
			}
			pool.Campaigns = append(pool.Campaigns, campaign)
		}
		bp.sites = append(bp.sites, sites...)
		bp.sitesByEngine[name] = sites
		bp.pools[name] = pool
	}
	return bp
}

// Instantiate wires a fresh world around the blueprint: its own network,
// registries, platforms and engines, so the per-client identifier
// streams start from scratch. Only the instance fields of cfg (Engines,
// QueriesPerEngine, Faults) are read; the derivation fields are the
// blueprint's.
func (bp *Blueprint) Instantiate(cfg Config) *World {
	wcfg := bp.cfg
	wcfg.Engines, wcfg.QueriesPerEngine, wcfg.Faults = cfg.Engines, cfg.QueriesPerEngine, cfg.Faults
	wcfg = wcfg.withInstanceDefaults()
	seed := bp.seed
	w := &World{
		Net:           netsim.NewNetwork(),
		Cfg:           wcfg,
		Seed:          seed,
		Engines:       make(map[string]*serp.Engine),
		Queries:       make(map[string][]string),
		SitesByEngine: bp.sitesByEngine,
	}

	// 1. Redirector services (Table 4 policies).
	w.Redirectors = adtech.NewRegistry(seed)
	for _, ps := range redirectorPolicies() {
		w.Redirectors.Add(&adtech.Policy{
			Host:          ps.host,
			Wildcard:      ps.wildcard,
			Path:          ps.path,
			UIDCookieProb: ps.uidProb,
			CookieName:    ps.cookie,
			NonUIDCookie:  ps.nonUID,
		})
	}
	if wcfg.EnableReferrerSmuggling {
		w.Redirectors.Add(&adtech.Policy{
			Host:               HostRefSync,
			Path:               "/sync",
			UIDCookieProb:      1.0,
			CookieName:         "rsid",
			SmuggleViaReferrer: true,
		})
	}
	w.Redirectors.Register(w.Net)

	// 2. Platforms.
	googleAds := adtech.GoogleAds(seed)
	microsoftAds := adtech.MicrosoftAds(seed)
	platformFor := func(name string) *adtech.Platform {
		switch name {
		case serp.Google, serp.StartPage:
			return googleAds
		default:
			return microsoftAds
		}
	}

	// 3. Tracker and advertiser-site origins.
	w.Trackers = advertiser.NewTrackerRegistry(seed, bp.trackers)
	w.Trackers.Register(w.Net)
	w.Sites = advertiser.NewSiteRegistry(seed, bp.sites)
	w.Sites.Register(w.Net)

	// 4. Engines — all five are always registered.
	for _, name := range serp.AllEngineNames() {
		spec := serp.SpecFor(name)
		e := serp.NewEngine(spec, platformFor(name), bp.pools[name], w.Redirectors, seed)
		e.Beacons = serp.BeaconsFor(name)
		switch name {
		case serp.Bing:
			e.BouncePolicy = &adtech.Policy{
				Host: "www.bing.com", UIDCookieProb: bingBounceUIDProb, CookieName: "MUID",
			}
		case serp.Google:
			e.BouncePolicy = &adtech.Policy{
				Host: "www.google.com", UIDCookieProb: googleBounceUIDProb, CookieName: "NID",
			}
		}
		e.Register(w.Net)
		w.Engines[name] = e
	}

	// 5. Query corpora for the crawled engines.
	for _, name := range wcfg.Engines {
		w.Queries[name] = workload.Generate(workload.Mixed, seed.Derive("queries", name), wcfg.QueriesPerEngine)
	}

	// 6. Chaos layer: arm deterministic fault injection when configured.
	if !wcfg.Faults.IsZero() {
		plan := wcfg.Faults
		if plan.Seed == 0 {
			plan.Seed = wcfg.Seed
		}
		if plan.Interstitial == nil {
			plan.Interstitial = botwallInterstitial
		}
		if plan.Captcha == nil {
			plan.Captcha = captchaInterstitial
		}
		w.Net.InstallFaults(plan)
	}
	return w
}

// Engine returns the named engine, or nil.
func (w *World) Engine(name string) *serp.Engine { return w.Engines[name] }

func stackWeights(stacks []StackChoice) []float64 {
	ws := make([]float64, len(stacks))
	for i, s := range stacks {
		ws[i] = s.Weight
	}
	return ws
}

func sortedKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// quotaCounts splits n into per-choice counts proportional to weights
// using largest-remainder rounding; the counts sum to n exactly.
func quotaCounts(weights []float64, n int) []int {
	var sum float64
	for _, w := range weights {
		sum += w
	}
	if len(weights) == 0 || !(sum > 0) {
		// Mirrors detrand.Pick's contract (which this replaced): zero,
		// negative, or NaN total weight is a calibration error, and
		// int(NaN) would otherwise send the remainder loop spinning.
		panic("websim: quota weights must sum to a positive value")
	}
	counts := make([]int, len(weights))
	type rem struct {
		idx  int
		frac float64
	}
	rems := make([]rem, len(weights))
	assigned := 0
	for i, w := range weights {
		exact := float64(n) * w / sum
		counts[i] = int(exact)
		assigned += counts[i]
		rems[i] = rem{i, exact - float64(counts[i])}
	}
	sort.Slice(rems, func(a, b int) bool {
		if rems[a].frac != rems[b].frac {
			return rems[a].frac > rems[b].frac
		}
		return rems[a].idx < rems[b].idx // deterministic tie-break
	})
	for i := 0; assigned < n; i++ {
		counts[rems[i%len(rems)].idx]++
		assigned++
	}
	return counts
}

// quotaChoices expands quotaCounts into a per-campaign choice index,
// shuffled so the quota'd choices land on a seed-determined subset.
func quotaChoices(r *detrand.Gen, weights []float64, n int) []int {
	counts := quotaCounts(weights, n)
	out := make([]int, 0, n)
	for idx, c := range counts {
		for k := 0; k < c; k++ {
			out = append(out, idx)
		}
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// quotaBools returns a shuffled boolean slice of length n with exactly
// round(p*n) true entries.
func quotaBools(r *detrand.Gen, p float64, n int) []bool {
	k := int(p*float64(n) + 0.5)
	if k > n {
		k = n
	}
	out := make([]bool, n)
	for i := 0; i < k; i++ {
		out[i] = true
	}
	r.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// trackerSampler picks non-clean sites' tracker sets for one engine:
// TrackersPerSiteMin..Max services drawn by entity weight (Table 5) from
// the builtin and long-tail pools. (Clean sites are assigned by quota in
// Derive before it runs.) The entity table and the builtin grouping are
// built once per engine, not once per site.
type trackerSampler struct {
	entities  []string
	weights   []float64
	byEntity  map[string][]*advertiser.Tracker
	unknowns  []*advertiser.Tracker
	min, span int
}

func newTrackerSampler(cal EngineCalibration, byEntity map[string][]*advertiser.Tracker, unknowns []*advertiser.Tracker) *trackerSampler {
	entities := sortedKeys(cal.TrackerEntityWeights)
	weights := make([]float64, len(entities))
	for i, e := range entities {
		weights[i] = cal.TrackerEntityWeights[e]
	}
	return &trackerSampler{
		entities: entities,
		weights:  weights,
		byEntity: byEntity,
		unknowns: unknowns,
		min:      cal.TrackersPerSiteMin,
		span:     cal.TrackersPerSiteMax - cal.TrackersPerSiteMin + 1,
	}
}

// sample draws one site's trackers.
func (s *trackerSampler) sample(r randSource) []*advertiser.Tracker {
	n := s.min + r.Intn(s.span)
	out := make([]*advertiser.Tracker, 0, n)
	for len(out) < n {
		entity := s.entities[detrand.Pick(r, s.weights)]
		var candidates []*advertiser.Tracker
		if entity == "unknown" {
			candidates = s.unknowns
		} else {
			candidates = s.byEntity[entity]
		}
		if len(candidates) == 0 {
			continue
		}
		t := candidates[r.Intn(len(candidates))]
		if picked(out, t.Host) {
			// Dedup; with small builtin pools duplicates are common, so
			// treat a repeat as consumed to guarantee termination.
			n--
			continue
		}
		out = append(out, t)
	}
	return out
}

// picked reports whether a tracker on host is already in the set.
func picked(set []*advertiser.Tracker, host string) bool {
	for _, t := range set {
		if t.Host == host {
			return true
		}
	}
	return false
}

// builtinsByEntity groups the named trackers by their organisation,
// mirroring the Disconnect entity list (package entities).
func builtinsByEntity(builtins []*advertiser.Tracker) map[string][]*advertiser.Tracker {
	m := make(map[string][]*advertiser.Tracker)
	for _, t := range builtins {
		var entity string
		switch {
		case contains(t.Host, "google") || contains(t.Host, "doubleclick"):
			entity = "Google"
		case contains(t.Host, "bing") || contains(t.Host, "clarity"):
			entity = "Microsoft"
		case contains(t.Host, "amazon"):
			entity = "Amazon"
		case contains(t.Host, "facebook"):
			entity = "Facebook"
		case contains(t.Host, "criteo"):
			entity = "Criteo"
		default:
			entity = "unknown"
		}
		m[entity] = append(m[entity], t)
	}
	return m
}

func contains(s, sub string) bool { return strings.Contains(s, sub) }

// randSource is the subset of *detrand.Gen the samplers use.
type randSource = detrand.Rng

// Brand syllables for advertiser domain minting.
var (
	brandA = []string{
		"nova", "zen", "peak", "true", "pure", "swift", "bold", "prime",
		"ever", "north", "blue", "wild", "terra", "lumen", "aero", "vera",
	}
	brandB = []string{
		"gear", "wear", "home", "tech", "mart", "goods", "lane", "nest",
		"hub", "craft", "store", "supply", "works", "labs", "direct", "base",
	}
)

// mintDomain returns a fresh advertiser domain, unique across the world.
func mintDomain(r randSource, used map[string]bool) string {
	for attempt := 0; ; attempt++ {
		d := brandA[r.Intn(len(brandA))] + brandB[r.Intn(len(brandB))]
		if attempt > 4 {
			d += strconv.Itoa(r.Intn(100))
		}
		domain := d + ".example"
		if !used[domain] {
			used[domain] = true
			return domain
		}
	}
}

// Describe returns a short multi-line summary of the world (used by
// cmd/servesim and diagnostics).
func (w *World) Describe() string {
	s := fmt.Sprintf("simulated web: seed=%d\n", w.Cfg.Seed)
	s += fmt.Sprintf("  engines: %d registered, %d crawled\n", len(w.Engines), len(w.Cfg.Engines))
	s += fmt.Sprintf("  redirector services: %d\n", len(w.Redirectors.Policies()))
	s += fmt.Sprintf("  advertiser sites: %d\n", w.Sites.Sites())
	total := 0
	for _, qs := range w.Queries {
		total += len(qs)
	}
	s += fmt.Sprintf("  queries: %d\n", total)
	return s
}
