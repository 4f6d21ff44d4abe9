package analysis

import (
	"net/url"
	"slices"
	"strings"

	"searchads/internal/adtech"
	"searchads/internal/crawler"
	"searchads/internal/entities"
	"searchads/internal/filterlist"
	"searchads/internal/intern"
	"searchads/internal/tokens"
	"searchads/internal/urlx"
)

// Accumulator is the incremental form of the §4 analysis: an
// order-preserving fold over a crawl's iteration stream. Feed it
// iterations one at a time with Add and materialise the analysis with
// Report; the result is byte-identical — rendered and JSON forms alike
// — to AnalyzeWith over a dataset holding the same iterations in the
// same order (AnalyzeWith is implemented as exactly that fold).
//
// What the accumulator retains is compressed aggregate state, never the
// iterations themselves: counters, count histograms, and id-keyed sets
// over an interning table (every distinct string — token value, host,
// cookie name, path key — is hashed once at first sight and carried as
// a dense uint32 afterwards). Quantities that depend on the §3.2 token
// classifier, which only exists once the whole stream has been
// observed, retain small per-click candidate id sets whose
// classification is deferred to Report. The classifier itself keeps
// per-value verdict state plus the sightings of the iteration being
// folded: filters (ii) and (iii) look inside one browser instance, so
// an iteration's ad and session contexts are resolved and dropped when
// the next iteration's sightings start. Each AddAt folds one whole
// iteration, and no two iterations of a stream may share an Instance
// (the crawler names each engine-NNNN). Memory is therefore bounded by
// the number of unique tokens, paths, and hosts, not by request volume,
// which is what lets a sweep cell analyse a crawl in O(one iteration)
// of dataset retention.
//
// The fold never re-parses what it has already seen: each iteration's
// URLs are split once (host/path/query) into scratch buffers the next
// Add reuses, and each distinct value's classifier heuristics run once
// across the whole fold.
//
// Report does not consume the accumulator: it may be called at any
// point for an analysis of the stream so far, and again after more
// iterations arrive. Accumulators over disjoint shards of a stream
// combine with Merge.
type Accumulator struct {
	filter  *filterlist.Engine
	ents    *entities.List
	tab     *intern.Table
	tokens  *tokens.Accumulator
	order   []string
	engines map[string]*engineAcc
	count   int
	next    int // next auto-assigned sequence number for Add

	// Interned observation-source ids, hoisted out of the per-record
	// loops.
	srcCookie, srcStorage, srcQuery uint32

	// Scratch state reused across Add calls — pooled per accumulator,
	// never retained past the call that fills it.
	reqScratch  []filterlist.RequestInfo
	verScratch  []filterlist.Verdict
	keyScratch  []byte
	hostScratch []uint32
	valScratch  []uint32
	orgScratch  []uint32
	kvScratch   []kvPair
	hopScratch  []hopHost
	siteScratch []string
	hostStrs    []string
	storedVals  map[[2]uint32]uint32
	// originSites memoises localStorage origin → registrable site; the
	// few distinct origins recur every iteration.
	originSites map[string]string

	// freshScratch lists the groups a mergeGroups call adds.
	freshScratch []freshGroup
}

type kvPair struct{ k, v string }

// hopHost is one navigation hop's parsed host under the two historical
// parse modes: path (link resolution, used by PathOf) and cand (plain
// url.Parse, used by the UID-redirector candidate scan). The fast
// SplitURL path fills both identically; only malformed or relative hop
// URLs diverge.
type hopHost struct {
	path, cand     string
	pathOK, candOK bool
}

// NewAccumulator returns an empty accumulator with the given analysis
// dependencies (zero-value Options select the embedded filter lists and
// entity list, as AnalyzeWith does).
func NewAccumulator(opts Options) *Accumulator {
	opts = opts.withDefaults()
	tab := intern.New()
	return &Accumulator{
		filter:      opts.Filter,
		ents:        opts.Entities,
		tab:         tab,
		tokens:      tokens.NewAccumulatorTable(tab),
		engines:     make(map[string]*engineAcc),
		srcCookie:   tab.ID(string(tokens.SourceCookie)),
		srcStorage:  tab.ID(string(tokens.SourceLocalStorage)),
		srcQuery:    tab.ID(string(tokens.SourceQueryParam)),
		storedVals:  make(map[[2]uint32]uint32),
		originSites: make(map[string]string),
	}
}

// Len reports how many iterations have been folded in.
func (a *Accumulator) Len() int { return a.count }

// Add folds one crawl iteration into the analysis. It is AddAt with the
// next sequence number, the plain streaming form.
func (a *Accumulator) Add(it *crawler.Iteration) { a.AddAt(it, a.next) }

// AddAt folds one iteration that occupies position seq (0-based) in the
// overall stream — the sharded-fold form of Add. A set of accumulators
// that between them AddAt every iteration of a stream exactly once,
// each tagged with its stream position, Merge into the state of a
// single accumulator that Add-ed the stream in order, whatever the
// partition. (The sequence numbers' only role is first-seen engine
// order; every other aggregate is partition-invariant by construction.)
func (a *Accumulator) AddAt(it *crawler.Iteration, seq int) {
	if seq >= a.next {
		a.next = seq + 1
	}
	a.count++
	instID := a.tab.ID(it.Instance)
	a.observeIteration(it, instID)

	e := a.engines[it.Engine]
	if e == nil {
		e = newEngineAcc(engineAccSite(it), seq)
		a.engines[it.Engine] = e
		a.order = append(a.order, it.Engine)
	} else if seq < e.firstSeen {
		// An earlier iteration also decides the engine's site, as the
		// sequential fold's first Add would have (Merge does the same).
		e.firstSeen = seq
		e.site = engineAccSite(it)
	}

	e.queries++
	a.addBefore(e, it)
	a.addCoverage(e, it)
	a.addTraffic(e, it)
	if it.Error != "" {
		// Failure attribution precedes the FinalURL early-out: failed
		// iterations are exactly the ones that never settle.
		cls := it.ErrorClass
		if cls == "" {
			cls = "other"
		}
		e.failures[cls]++
	}
	if it.Outcome != "" {
		e.outcomes[it.Outcome]++
	}
	if it.FinalURL == "" {
		return
	}
	a.parseHops(it)
	p := a.pathFor(it)
	e.dests[a.tab.ID(p.DestinationSite())] = struct{}{}
	e.paths[a.internFullKey(p)] = struct{}{}
	a.addClick(e, it, p)
}

// engineAccSite derives the engine's eTLD+1 the way PathOf does.
func engineAccSite(it *crawler.Iteration) string {
	if it.EngineHost != "" {
		return urlx.RegistrableDomain(it.EngineHost)
	}
	return engineSite(it.Engine)
}

// engineAcc is one engine's folded analysis state. Every set, counter
// key, and candidate is an intern id (or a pair of them packed into a
// uint64); histograms over small counts are dense slices.
type engineAcc struct {
	site      string
	firstSeen int

	// Table 1.
	queries      int
	dests, paths map[uint32]struct{}

	// §4.1 — before the click.
	serpTotal, serpTracker int
	// uidCookieCands defers the classifier-dependent §4.1.1 check:
	// distinct (cookie-site id, cookie-name id, value id) triples seen
	// on the SERP. The engine's-own-site filter applies at Report time
	// against the merged site (not at Add time), so the set — and the
	// report — is invariant under sharding even when EngineHost varies
	// across an engine's iterations.
	uidCookieCands map[[3]uint32]struct{}

	// §4.2 — during the click.
	clicks                int
	pathCounts            map[uint32]int
	redirHist             []int
	navTracking           int
	orgCounts             map[uint32]int
	redirectorOccurrences map[uint32]int
	totalOccurrences      int
	// uidClickLens/uidClickPairs hold, per click, the distinct
	// (display-host id << 32 | stored-cookie-value id) pairs of
	// redirectors that set a cookie whose value survived in the profile
	// — Figure 5 / Table 4 candidates awaiting the classifier's verdict.
	// One length entry per click; pairs flattened in click order.
	uidClickLens  []int32
	uidClickPairs []uint64
	beacons       map[uint32]*beaconAcc

	// §4.3 — after the click.
	pagesWithTrackers        int
	distinctTrackers         map[uint32]struct{}
	perPageHist              []int
	entityCounts             map[uint32]int
	entityTotal              int
	destBlocked              int
	msclkid, gclid           int
	otherEager, anyEager     int
	otherDeferred            []deferredOther
	referrerCands            map[string]*idGroup
	persistedMS, persistedGC int

	// §3.1 recorder coverage.
	ratioHist map[float64]int
	ratioN    int

	// Traffic.
	requests, thirdParty, clickBlocked int

	// Failure attribution (chaos layer): iteration error-class counts,
	// keyed by crawler.ErrorClass value ("other" for a failure with
	// no class). Summed under Merge like every other counter.
	failures map[string]int
	// Outcome counts (recovered/lost/abandoned) of the iterations that
	// carry one.
	outcomes map[string]int
}

// beaconAcc folds one post-click endpoint (§4.2.1). The UID-cookie
// count is classifier-dependent, so each request's cookie-value id set
// is retained, grouped by identical set (UID cookies repeat across
// requests, so distinct sets stay few).
type beaconAcc struct {
	s         BeaconSummary
	valueSets map[string]*idGroup
}

// deferredOther is one click's §4.3.2 other-UID candidates: value ids
// that only count if the classifier calls them user identifiers.
// countedAny records whether the click already counted toward the "any"
// column.
type deferredOther struct {
	countedAny bool
	values     []uint32
}

// idGroup is a distinct multiset of token-value ids with the number of
// times (requests, clicks) it was observed. The grouping key is the
// sorted ids packed little-endian, so retained state scales with
// distinct sets rather than sightings.
type idGroup struct {
	values []uint32
	count  int
}

func newEngineAcc(site string, firstSeen int) *engineAcc {
	return &engineAcc{
		site:                  site,
		firstSeen:             firstSeen,
		dests:                 make(map[uint32]struct{}),
		paths:                 make(map[uint32]struct{}),
		uidCookieCands:        make(map[[3]uint32]struct{}),
		pathCounts:            make(map[uint32]int),
		orgCounts:             make(map[uint32]int),
		redirectorOccurrences: make(map[uint32]int),
		beacons:               make(map[uint32]*beaconAcc),
		distinctTrackers:      make(map[uint32]struct{}),
		entityCounts:          make(map[uint32]int),
		referrerCands:         make(map[string]*idGroup),
		ratioHist:             make(map[float64]int),
		failures:              make(map[string]int),
		outcomes:              make(map[string]int),
	}
}

// observeIteration streams the iteration's token sightings — cookies,
// localStorage, and query parameters at every chain depth — into the
// §3.2 classifier fold, with every string interned exactly once.
func (a *Accumulator) observeIteration(it *crawler.Iteration, instID uint32) {
	for i := range it.Cookies {
		a.observeCookie(&it.Cookies[i], instID, false)
	}
	for i := range it.RevisitCookies {
		a.observeCookie(&it.RevisitCookies[i], instID, true)
	}
	for i := range it.LocalStorage {
		a.observeStorage(&it.LocalStorage[i], instID, false)
	}
	for i := range it.RevisitLocalStorage {
		a.observeStorage(&it.RevisitLocalStorage[i], instID, true)
	}
	// Ad URL parameters, indexed by ad position: filter (ii) compares
	// "the tokens resulting from the URLs of all ads that appear on the
	// results page" and discards per-ad-varying values as ad IDs.
	for _, ad := range it.DisplayedAds {
		a.walkParams(ad.Href, instID, ad.Position-1)
	}
	// Destination URL parameters (the §4.3.2 UID-smuggling surface) and
	// referrer parameters (the §5 extension channel).
	a.walkParams(it.FinalURL, instID, -1)
	a.walkParams(it.FinalReferrer, instID, -1)
}

func (a *Accumulator) observeCookie(c *crawler.CookieRecord, instID uint32, revisit bool) {
	if c.Value == "" {
		return
	}
	a.tokens.ObserveIDs(a.tab.ID(c.Name), a.tab.ID(c.Value), a.tab.ID(c.Domain),
		instID, a.srcCookie, -1, revisit)
}

func (a *Accumulator) observeStorage(s *crawler.StorageRecord, instID uint32, revisit bool) {
	if s.Value == "" {
		return
	}
	a.tokens.ObserveIDs(a.tab.ID(s.Key), a.tab.ID(s.Value), a.tab.ID(s.Origin),
		instID, a.srcStorage, -1, revisit)
}

// walkParams observes every query parameter of a URL, recursing into
// nested next-hop URLs so parameters at every chain depth are observed.
// The URL is split once; the query string is scanned in place.
func (a *Accumulator) walkParams(raw string, instID uint32, adIndex int) {
	seen := 0
	var walk func(raw string)
	walk = func(raw string) {
		seen++
		if raw == "" || seen > 12 {
			return
		}
		host, rawq, ok := splitHostQuery(raw)
		if !ok {
			return
		}
		hostID := a.tab.ID(host)
		urlx.QueryPairs(rawq, func(k, v string) bool {
			if v != "" {
				a.tokens.ObserveIDs(a.tab.ID(k), a.tab.ID(v), hostID,
					instID, a.srcQuery, adIndex, false)
			}
			if k == adtech.NextParam {
				walk(v)
			}
			return true
		})
	}
	walk(raw)
}

// splitHostQuery returns a URL's host and raw query, via the
// allocation-free fast path when the URL has the common absolute shape
// and url.Parse otherwise. ok is false only when url.Parse fails.
func splitHostQuery(raw string) (host, query string, ok bool) {
	if h, _, q, fast := urlx.SplitURL(raw); fast {
		return h, q, true
	}
	u, err := url.Parse(raw)
	if err != nil {
		return "", "", false
	}
	return u.Host, u.RawQuery, true
}

// addBefore folds §4.1: identifiers in first-party storage and tracker
// requests while rendering the SERP.
func (a *Accumulator) addBefore(e *engineAcc, it *crawler.Iteration) {
	for i := range it.SERPCookies {
		c := &it.SERPCookies[i]
		e.uidCookieCands[[3]uint32{
			a.tab.ID(urlx.RegistrableDomain(c.Domain)),
			a.tab.ID(c.Name),
			a.tab.ID(c.Value),
		}] = struct{}{}
	}
	e.serpTotal += len(it.SERPRequests)
	for _, v := range a.matchRecords(it.SERPRequests) {
		if v.Blocked {
			e.serpTracker++
		}
	}
}

// matchRecords matches one recorded request stage against the filter
// lists through pooled request/verdict buffers: the per-stage slices
// the old fold allocated on every iteration are reused across the whole
// fold. The returned slice is valid until the next matchRecords call.
func (a *Accumulator) matchRecords(recs []crawler.RequestRecord) []filterlist.Verdict {
	a.reqScratch = a.reqScratch[:0]
	for i := range recs {
		a.reqScratch = append(a.reqScratch, recs[i].FilterInfo())
	}
	a.verScratch = a.filter.MatchBatchInto(a.reqScratch, a.verScratch[:0])
	return a.verScratch
}

// parseHops splits every hop URL of the iteration once into hopScratch;
// the path builder and the UID-redirector candidate scan both read it.
func (a *Accumulator) parseHops(it *crawler.Iteration) {
	a.hopScratch = a.hopScratch[:0]
	for _, h := range it.Hops {
		var hh hopHost
		if host, _, _, ok := urlx.SplitURL(h.URL); ok {
			hh = hopHost{path: host, cand: host, pathOK: true, candOK: true}
		} else {
			if u, err := urlx.Resolve(hopBase, h.URL); err == nil {
				hh.path, hh.pathOK = u.Host, true
			}
			if u, err := url.Parse(h.URL); err == nil {
				hh.cand, hh.candOK = u.Host, true
			}
		}
		a.hopScratch = append(a.hopScratch, hh)
	}
}

// pathFor is PathOf over the pre-parsed hop hosts, with the site and
// host slices pooled on the accumulator.
func (a *Accumulator) pathFor(it *crawler.Iteration) Path {
	p := Path{Sites: a.siteScratch[:0], Hosts: a.hostStrs[:0]}
	origin := engineAccSite(it)
	p.OriginSite = origin
	p.add(origin)
	for _, hh := range a.hopScratch {
		if hh.pathOK {
			p.add(hh.path)
		}
	}
	a.siteScratch, a.hostStrs = p.Sites, p.Hosts
	return p
}

// internFullKey interns Table 1's "different redirection paths" key:
// the display hosts joined by " - ".
func (a *Accumulator) internFullKey(p Path) uint32 {
	b := a.keyScratch[:0]
	for i, h := range p.Hosts {
		if i > 0 {
			b = append(b, " - "...)
		}
		b = append(b, h...)
	}
	a.keyScratch = b
	return a.tab.IDBytes(b)
}

// addClick folds §4.2 (beacons, navigation tracking) and §4.3
// (destination trackers, UID smuggling) for one ad click.
func (a *Accumulator) addClick(e *engineAcc, it *crawler.Iteration, p Path) {
	e.clicks++
	dest := p.DestinationSite()

	// Table 2's path key and the redirector walk share one pass over the
	// collapsed site sequence. An empty path (an origin with no
	// registrable site — only possible for hand-built or corrupted
	// iterations) keeps Path.Key()'s "" key and, like
	// PathSitesWithoutDestination, touches no organisations.
	redirectors := 0
	a.orgScratch = a.orgScratch[:0]
	b := a.keyScratch[:0]
	if len(p.Sites) > 0 {
		b = append(b, p.Hosts[0]...)
		a.orgScratch = appendDistinctID(a.orgScratch, a.tab.ID(a.ents.EntityOf(p.OriginSite)))
		for i := 1; i < len(p.Sites)-1; i++ {
			if p.Sites[i] == p.OriginSite || p.Sites[i] == dest {
				continue
			}
			redirectors++
			e.redirectorOccurrences[a.tab.ID(p.Hosts[i])]++
			e.totalOccurrences++
			b = append(b, " - "...)
			b = append(b, p.Hosts[i]...)
			a.orgScratch = appendDistinctID(a.orgScratch, a.tab.ID(a.ents.EntityOf(p.Sites[i])))
		}
		b = append(b, " - destination"...)
	}
	a.keyScratch = b
	e.pathCounts[a.tab.IDBytes(b)]++

	e.redirHist = bumpHist(e.redirHist, redirectors)
	if redirectors > 0 {
		e.navTracking++
	}
	// Organisations touched by the path (destination excluded).
	for _, org := range a.orgScratch {
		e.orgCounts[org]++
	}

	a.addUIDRedirectorCandidates(e, it, p, dest)
	a.addBeacons(e, it)
	a.addAfter(e, it, p, dest)
}

// addUIDRedirectorCandidates collects the (display host, stored value)
// pairs of redirectors that set a cookie during this click's bounce
// whose value survived in the profile — the classifier-independent half
// of uid-storing-redirector detection (Figure 5 / Table 4).
func (a *Accumulator) addUIDRedirectorCandidates(e *engineAcc, it *crawler.Iteration, p Path, dest string) {
	// Index stored cookie values by (domain, name), reusing the map.
	clear(a.storedVals)
	for i := range it.Cookies {
		c := &it.Cookies[i]
		a.storedVals[[2]uint32{a.tab.ID(c.Domain), a.tab.ID(c.Name)}] = a.tab.ID(c.Value)
	}
	start := len(e.uidClickPairs)
	for hi, hh := range a.hopScratch {
		if !hh.candOK || len(it.Hops[hi].SetCookieNames) == 0 {
			continue
		}
		host := strings.ToLower(urlx.Hostname(hh.cand))
		site := urlx.RegistrableDomain(host)
		if site == p.OriginSite || site == dest {
			continue
		}
		hostID := a.tab.ID(host)
		for _, name := range it.Hops[hi].SetCookieNames {
			v, ok := a.storedVals[[2]uint32{hostID, a.tab.ID(name)}]
			if !ok {
				continue
			}
			pair := uint64(a.tab.ID(displayHost(host)))<<32 | uint64(v)
			if !containsPair(e.uidClickPairs[start:], pair) {
				e.uidClickPairs = append(e.uidClickPairs, pair)
			}
		}
	}
	e.uidClickLens = append(e.uidClickLens, int32(len(e.uidClickPairs)-start))
}

// addBeacons folds the post-click first-party beacons (§4.2.1).
func (a *Accumulator) addBeacons(e *engineAcc, it *crawler.Iteration) {
	for i := range it.ClickRequests {
		req := &it.ClickRequests[i]
		if req.Initiator != "click" {
			continue
		}
		host, path, rawq, ok := urlx.SplitURL(req.URL)
		if !ok {
			u, err := url.Parse(req.URL)
			if err != nil {
				continue
			}
			host, path, rawq = u.Host, u.Path, u.RawQuery
		}
		key := append(a.keyScratch[:0], host...)
		key = append(key, path...)
		a.keyScratch = key
		kid := a.tab.IDBytes(key)
		b := e.beacons[kid]
		if b == nil {
			b = &beaconAcc{s: BeaconSummary{Endpoint: a.tab.Str(kid)}, valueSets: make(map[string]*idGroup)}
			e.beacons[kid] = b
		}
		b.s.Count++
		// First occurrence per key, matching url.Values.Get.
		var sawURL, sawDU, sawQ, sawPos, sawPosition bool
		urlx.QueryPairs(rawq, func(k, v string) bool {
			switch k {
			case "url":
				if !sawURL {
					sawURL = true
					if v != "" {
						b.s.CarriesDestURL = true
					}
				}
			case "du":
				if !sawDU {
					sawDU = true
					if v != "" {
						b.s.CarriesDestURL = true
					}
				}
			case "q":
				if !sawQ {
					sawQ = true
					if v != "" {
						b.s.CarriesQuery = true
					}
				}
			case "pos":
				if !sawPos {
					sawPos = true
					if v != "" {
						b.s.CarriesPosition = true
					}
				}
			case "position":
				if !sawPosition {
					sawPosition = true
					if v != "" {
						b.s.CarriesPosition = true
					}
				}
			}
			return true
		})
		if len(req.Cookies) > 0 {
			a.valScratch = a.valScratch[:0]
			for _, v := range req.Cookies {
				a.valScratch = append(a.valScratch, a.tab.ID(v)) //lint:allow maporder groupIDs sorts the scratch ids before keying, so map order cannot escape
			}
			a.groupIDs(b.valueSets, a.valScratch, 1)
		}
	}
}

// addAfter folds §4.3 for one click: destination trackers, UID
// parameters, and click-ID persistence.
func (a *Accumulator) addAfter(e *engineAcc, it *crawler.Iteration, p Path, destSite string) {
	// §4.3.1 — tracker requests during the 15-second dwell, matched as
	// one batch per page.
	verdicts := a.matchRecords(it.DestRequests)
	a.hostScratch = a.hostScratch[:0] // this page's distinct tracker hosts
	for ri := range it.DestRequests {
		if !verdicts[ri].Blocked {
			continue
		}
		e.destBlocked++
		host, _, _, ok := urlx.SplitURL(it.DestRequests[ri].URL)
		if !ok {
			u, err := url.Parse(it.DestRequests[ri].URL)
			if err != nil {
				continue
			}
			host = u.Host
		}
		hl := strings.ToLower(urlx.Hostname(host))
		hid := a.tab.ID(hl)
		if !containsID(a.hostScratch, hid) {
			a.hostScratch = append(a.hostScratch, hid)
			e.entityCounts[a.tab.ID(a.ents.EntityOf(hl))]++
			e.entityTotal++
		}
		e.distinctTrackers[hid] = struct{}{}
	}
	if len(a.hostScratch) > 0 {
		e.pagesWithTrackers++
	}
	e.perPageHist = bumpHist(e.perPageHist, len(a.hostScratch))

	// §4.3.2 — UID parameters received by the advertiser. Known click
	// IDs and heuristic ad-tracking parameters count immediately;
	// everything else is deferred to the classifier. The per-value
	// heuristics are memoised in the classifier fold, so each distinct
	// value is classified once across the whole fold.
	params := a.firstParams(it.FinalURL)
	var msVal, gcVal string
	eagerOther := false
	a.valScratch = a.valScratch[:0]
	for _, pr := range params {
		if knownClickIDParams[pr.k] {
			switch pr.k {
			case "msclkid":
				msVal = pr.v
			case "gclid":
				gcVal = pr.v
			}
			continue
		}
		if pr.v == "" {
			continue
		}
		vid := a.tab.ID(pr.v)
		if isAdTrackingParam(pr.k) && a.tokens.PassesHeuristicsID(vid) {
			eagerOther = true
		} else {
			a.valScratch = appendDistinctID(a.valScratch, vid)
		}
	}
	hasMS, hasGC := msVal != "", gcVal != ""
	if hasMS {
		e.msclkid++
	}
	if hasGC {
		e.gclid++
	}
	if eagerOther {
		e.otherEager++
	}
	if hasMS || hasGC || eagerOther {
		e.anyEager++
	}
	if !eagerOther && len(a.valScratch) > 0 {
		e.otherDeferred = append(e.otherDeferred, deferredOther{
			countedAny: hasMS || hasGC,
			values:     append([]uint32(nil), a.valScratch...),
		})
	}

	// Referrer-based smuggling (§5 extension): identifiers in the
	// destination document's referrer, deferred to the classifier.
	a.valScratch = a.valScratch[:0]
	for _, pr := range a.firstParams(it.FinalReferrer) {
		if pr.v != "" {
			a.valScratch = append(a.valScratch, a.tab.ID(pr.v))
		}
	}
	if len(a.valScratch) > 0 {
		a.groupIDs(e.referrerCands, a.valScratch, 1)
	}

	// Persistence: the click-ID value reappears in the destination's
	// first-party storage (classifier-independent).
	if hasMS && a.persistedOnSite(it, destSite, msVal) {
		e.persistedMS++
	}
	if hasGC && a.persistedOnSite(it, destSite, gcVal) {
		e.persistedGC++
	}
}

// firstParams scans a URL's query into (key, first value) pairs in
// query order — url.Values.Get semantics without the map. The returned
// slice is the shared scratch, valid until the next call.
func (a *Accumulator) firstParams(raw string) []kvPair {
	a.kvScratch = a.kvScratch[:0]
	if raw == "" {
		return a.kvScratch
	}
	_, rawq, ok := splitHostQuery(raw)
	if !ok {
		return a.kvScratch
	}
	urlx.QueryPairs(rawq, func(k, v string) bool {
		for _, pr := range a.kvScratch {
			if pr.k == k {
				return true // keep the first occurrence
			}
		}
		a.kvScratch = append(a.kvScratch, kvPair{k, v})
		return true
	})
	return a.kvScratch
}

// persistedOnSite reports whether value appears in the destination
// site's first-party cookies or localStorage ("We cross-reference
// values obtained from destination pages' first-party storage ... with
// the query parameters these pages receive", §4.3.2).
func (a *Accumulator) persistedOnSite(it *crawler.Iteration, destSite, value string) bool {
	if value == "" {
		return false
	}
	for i := range it.Cookies {
		c := &it.Cookies[i]
		if c.Value == value && urlx.RegistrableDomain(c.Domain) == destSite {
			return true
		}
	}
	for i := range it.LocalStorage {
		s := &it.LocalStorage[i]
		if s.Value == value && a.originSite(s.Origin) == destSite {
			return true
		}
	}
	return false
}

// originSite memoises the registrable site of a localStorage origin.
func (a *Accumulator) originSite(origin string) string {
	if site, ok := a.originSites[origin]; ok {
		return site
	}
	site := ""
	if u, err := url.Parse(origin); err == nil {
		site = urlx.RegistrableDomain(u.Host)
	}
	a.originSites[origin] = site
	return site
}

func (a *Accumulator) addCoverage(e *engineAcc, it *crawler.Iteration) {
	if it.ExtensionRequestCount > 0 {
		e.ratioHist[float64(it.CrawlerRequestCount)/float64(it.ExtensionRequestCount)]++
		e.ratioN++
	}
}

func (a *Accumulator) addTraffic(e *engineAcc, it *crawler.Iteration) {
	for _, stage := range [3][]crawler.RequestRecord{it.SERPRequests, it.ClickRequests, it.DestRequests} {
		e.requests += len(stage)
		for i := range stage {
			if stage[i].ThirdParty {
				e.thirdParty++
			}
		}
	}
	for _, v := range a.matchRecords(it.ClickRequests) {
		if v.Blocked {
			e.clickBlocked++
		}
	}
}

// groupIDs folds n sightings of a value-id multiset into a grouped
// index: the ids are sorted into canonical order and packed as the
// group key, so identical multisets share one entry. The ids slice is
// the caller's scratch and may be reordered.
func (a *Accumulator) groupIDs(groups map[string]*idGroup, ids []uint32, n int) {
	slices.Sort(ids)
	b := a.keyScratch[:0]
	for _, id := range ids {
		b = append(b, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	a.keyScratch = b
	g := groups[string(b)]
	if g == nil {
		g = &idGroup{values: append([]uint32(nil), ids...)}
		groups[string(b)] = g
	}
	g.count += n
}

func appendDistinctID(s []uint32, v uint32) []uint32 {
	if containsID(s, v) {
		return s
	}
	return append(s, v)
}

func containsID(s []uint32, v uint32) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func containsPair(s []uint64, v uint64) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// bumpHist increments a dense count histogram's bin v, growing it as
// needed.
func bumpHist(h []int, v int) []int {
	for len(h) <= v {
		h = append(h, 0)
	}
	h[v]++
	return h
}

// addHist adds src's bins into dst.
func addHist(dst, src []int) []int {
	for v, c := range src {
		if c == 0 {
			continue
		}
		for len(dst) <= v {
			dst = append(dst, 0)
		}
		dst[v] += c
	}
	return dst
}
