package analysis

import (
	"fmt"
	"slices"
	"sort"

	"searchads/internal/intern"
	"searchads/internal/tokens"
)

// Report materialises the §4 analysis of everything added so far.
func (a *Accumulator) Report() *Report {
	cls := a.tokens.Result()
	r := &Report{
		Table1:           make(map[string]Table1Row),
		Before:           make(map[string]BeforeResult),
		During:           make(map[string]*DuringResult),
		After:            make(map[string]*AfterResult),
		RecorderCoverage: make(map[string]float64),
		Traffic:          make(map[string]TrafficStats),
		EngineOrder:      a.sortedOrder(),
		classifier:       cls,
	}
	r.Funnel = FunnelResult{
		TotalTokens: cls.TotalTokens,
		ByReason:    cls.ByReason,
		UserIDs:     cls.ByReason[tokens.ReasonUserID],
	}
	for _, name := range r.EngineOrder {
		e := a.engines[name]
		r.Table1[name] = Table1Row{
			Queries:              e.queries,
			DistinctDestinations: len(e.dests),
			DistinctPaths:        len(e.paths),
		}
		r.Before[name] = a.finishBefore(e, cls)
		r.During[name] = a.finishDuring(e, cls)
		r.After[name] = a.finishAfter(e, cls)
		r.RecorderCoverage[name] = medianFromHist(e.ratioHist, e.ratioN)
		// The SERP and destination streams were matched against the
		// filter lists as their iterations arrived; traffic adds the
		// click stage's count, so each stage is matched exactly once.
		r.Traffic[name] = TrafficStats{
			Requests:   e.requests,
			ThirdParty: e.thirdParty,
			Blocked:    e.serpTracker + e.clickBlocked + e.destBlocked,
		}
		if len(e.failures) > 0 {
			if r.Failures == nil {
				r.Failures = make(map[string]map[string]int)
			}
			fc := make(map[string]int, len(e.failures))
			for cls, c := range e.failures {
				fc[cls] = c
			}
			r.Failures[name] = fc
		}
		if len(e.outcomes) > 0 {
			if r.Outcomes == nil {
				r.Outcomes = make(map[string]map[string]int)
			}
			oc := make(map[string]int, len(e.outcomes))
			for o, c := range e.outcomes {
				oc[o] = c
			}
			r.Outcomes[name] = oc
		}
	}
	return r
}

// sortedOrder lists engines by the stream position of their first
// iteration — identical to append order for a plain streaming fold, and
// identical across any Merge of any shard partition.
func (a *Accumulator) sortedOrder() []string {
	out := append([]string(nil), a.order...)
	sort.Slice(out, func(i, j int) bool {
		fi, fj := a.engines[out[i]].firstSeen, a.engines[out[j]].firstSeen
		if fi != fj {
			return fi < fj
		}
		return out[i] < out[j]
	})
	return out
}

func (a *Accumulator) finishBefore(e *engineAcc, cls *tokens.Result) BeforeResult {
	res := BeforeResult{TotalRequests: e.serpTotal, TrackerRequests: e.serpTracker}
	a.hostScratch = a.hostScratch[:0] // distinct identifier-key name ids
	for nv := range e.uidCookieCands {
		// Only cookies on the engine's own site count (§4.1.1); e.site
		// is the merged first iteration's, so the filter is
		// shard-invariant.
		if a.tab.Str(nv[0]) != e.site {
			continue
		}
		if cls.UserIDAt(nv[2]) {
			res.StoresUserIDs = true
			a.hostScratch = appendDistinctID(a.hostScratch, nv[1])
		}
	}
	for _, nid := range a.hostScratch {
		res.IdentifierKeys = append(res.IdentifierKeys, a.tab.Str(nid))
	}
	sortStrings(res.IdentifierKeys)
	return res
}

func (a *Accumulator) finishDuring(e *engineAcc, cls *tokens.Result) *DuringResult {
	res := &DuringResult{OrgFractions: make(map[string]float64)}
	res.RedirectorCDF = cdfFromSlice(e.redirHist, e.clicks)

	// Resolve the deferred Figure 5 / Table 4 candidates: per click,
	// the distinct display hosts whose surviving cookie value the
	// classifier calls a user identifier.
	var uidHist []int
	uidRedirectorCounts := make(map[uint32]int)
	pos := 0
	for _, ln := range e.uidClickLens {
		pairs := e.uidClickPairs[pos : pos+int(ln)]
		pos += int(ln)
		a.hostScratch = a.hostScratch[:0]
		for _, pr := range pairs {
			if cls.UserIDAt(uint32(pr)) {
				hid := uint32(pr >> 32)
				if !containsID(a.hostScratch, hid) {
					a.hostScratch = append(a.hostScratch, hid)
					uidRedirectorCounts[hid]++
				}
			}
		}
		uidHist = bumpHist(uidHist, len(a.hostScratch))
	}
	res.UIDRedirectorCDF = cdfFromSlice(uidHist, len(e.uidClickLens))

	if e.clicks > 0 {
		res.NavTrackingFraction = float64(e.navTracking) / float64(e.clicks)
	}
	res.TopPaths = a.topFreqsIDs(e.pathCounts, e.clicks, 5)
	for org, c := range e.orgCounts {
		res.OrgFractions[a.tab.Str(org)] = float64(c) / float64(max(e.clicks, 1))
	}
	res.UIDRedirectors = a.topFreqsIDs(uidRedirectorCounts, e.clicks, 6)
	res.TopRedirectors = a.topFreqsIDs(e.redirectorOccurrences, e.totalOccurrences, 8)
	for _, b := range e.beacons {
		s := b.s
		for _, g := range b.valueSets {
			if anyUserIDAt(g.values, cls) {
				s.WithUIDCookie += g.count
			}
		}
		res.Beacons = append(res.Beacons, s)
	}
	sortBeacons(res.Beacons)
	return res
}

func (a *Accumulator) finishAfter(e *engineAcc, cls *tokens.Result) *AfterResult {
	res := &AfterResult{}
	other := e.otherEager
	any := e.anyEager
	for _, d := range e.otherDeferred {
		if anyUserIDAt(d.values, cls) {
			other++
			if !d.countedAny {
				any++
			}
		}
	}
	referrerUID := 0
	for _, g := range e.referrerCands {
		if anyUserIDAt(g.values, cls) {
			referrerUID += g.count
		}
	}
	if e.clicks > 0 {
		res.PagesWithTrackers = float64(e.pagesWithTrackers) / float64(e.clicks)
		res.MSCLKID = float64(e.msclkid) / float64(e.clicks)
		res.GCLID = float64(e.gclid) / float64(e.clicks)
		res.OtherUID = float64(other) / float64(e.clicks)
		res.AnyUID = float64(any) / float64(e.clicks)
		res.ReferrerUID = float64(referrerUID) / float64(e.clicks)
		res.PersistedMSCLKID = float64(e.persistedMS) / float64(e.clicks)
		res.PersistedGCLID = float64(e.persistedGC) / float64(e.clicks)
	}
	res.DistinctTrackers = len(e.distinctTrackers)
	res.MedianTrackersPerPage = medianFromSlice(e.perPageHist, e.clicks)
	res.TopEntities = a.topFreqsIDs(e.entityCounts, e.entityTotal, 6)
	return res
}

// topFreqsIDs is topFreqs over an id-keyed count map: labels resolve
// through the intern table at materialisation time only.
func (a *Accumulator) topFreqsIDs(counts map[uint32]int, denom, n int) []Freq {
	labelled := make(map[string]int, len(counts))
	for id, c := range counts {
		labelled[a.tab.Str(id)] = c
	}
	return topFreqs(labelled, denom, n)
}

func anyUserIDAt(ids []uint32, cls *tokens.Result) bool {
	for _, id := range ids {
		if cls.UserIDAt(id) {
			return true
		}
	}
	return false
}

// Merge folds another accumulator's state into a, so that a afterwards
// holds exactly the state of a single accumulator that folded both
// input streams (AddAt sequence numbers decide first-seen engine
// order; every other aggregate is a partition-invariant sum, union, or
// grouped count). The two accumulators intern through different tables:
// every string of b's table is interned into a's once, in b's id order,
// and b's ids are translated through that dense slice (see
// intern.Table.Import), which the classifier fold's merge shares. b is
// left unchanged and may be discarded.
//
// Both sides must have been built with the same Options — compared by
// identity, like ErrReportCached: the same *filterlist.Engine and
// *entities.List pointers. Accumulators built with zero-value Options
// share the memoised embedded defaults and merge freely; mismatched
// options return ErrOptionsMismatch.
func (a *Accumulator) Merge(b *Accumulator) error {
	if b == nil || a == b {
		return fmt.Errorf("analysis: Merge target must be a distinct accumulator")
	}
	if a.filter != b.filter || a.ents != b.ents {
		return ErrOptionsMismatch
	}
	x := a.tab.Import(b.tab)
	a.tokens.MergeTranslated(b.tokens, x)
	for _, name := range b.order {
		be := b.engines[name]
		ae := a.engines[name]
		if ae == nil {
			ae = newEngineAcc(be.site, be.firstSeen)
			a.engines[name] = ae
			a.order = append(a.order, name)
		} else if be.firstSeen < ae.firstSeen {
			// b saw the engine earlier in the stream: its first
			// iteration also decides the engine's site, exactly as the
			// sequential fold's first Add would have.
			ae.firstSeen = be.firstSeen
			ae.site = be.site
		}
		a.mergeEngine(ae, be, x)
	}
	a.count += b.count
	if b.next > a.next {
		a.next = b.next
	}
	return nil
}

// mergeEngine folds src's engine state into dst, translating src's ids
// through x (a's id for each of b's ids).
func (a *Accumulator) mergeEngine(dst, src *engineAcc, x []uint32) {
	dst.queries += src.queries
	for cls, c := range src.failures {
		dst.failures[cls] += c
	}
	for o, c := range src.outcomes {
		dst.outcomes[o] += c
	}
	for id := range src.dests {
		dst.dests[x[id]] = struct{}{}
	}
	for id := range src.paths {
		dst.paths[x[id]] = struct{}{}
	}

	dst.serpTotal += src.serpTotal
	dst.serpTracker += src.serpTracker
	for nv := range src.uidCookieCands {
		dst.uidCookieCands[[3]uint32{x[nv[0]], x[nv[1]], x[nv[2]]}] = struct{}{}
	}

	dst.clicks += src.clicks
	for id, c := range src.pathCounts {
		dst.pathCounts[x[id]] += c
	}
	dst.redirHist = addHist(dst.redirHist, src.redirHist)
	dst.navTracking += src.navTracking
	for id, c := range src.orgCounts {
		dst.orgCounts[x[id]] += c
	}
	for id, c := range src.redirectorOccurrences {
		dst.redirectorOccurrences[x[id]] += c
	}
	dst.totalOccurrences += src.totalOccurrences
	dst.uidClickLens = append(dst.uidClickLens, src.uidClickLens...)
	dst.uidClickPairs = slices.Grow(dst.uidClickPairs, len(src.uidClickPairs))
	for _, pr := range src.uidClickPairs {
		dst.uidClickPairs = append(dst.uidClickPairs,
			uint64(x[uint32(pr>>32)])<<32|uint64(x[uint32(pr)]))
	}
	for kid, sb := range src.beacons {
		nid := x[kid]
		db := dst.beacons[nid]
		if db == nil {
			db = &beaconAcc{s: BeaconSummary{Endpoint: a.tab.Str(nid)}, valueSets: make(map[string]*idGroup)}
			dst.beacons[nid] = db
		}
		db.s.Count += sb.s.Count
		db.s.CarriesDestURL = db.s.CarriesDestURL || sb.s.CarriesDestURL
		db.s.CarriesQuery = db.s.CarriesQuery || sb.s.CarriesQuery
		db.s.CarriesPosition = db.s.CarriesPosition || sb.s.CarriesPosition
		a.mergeGroups(db.valueSets, sb.valueSets, x)
	}

	dst.pagesWithTrackers += src.pagesWithTrackers
	for id := range src.distinctTrackers {
		dst.distinctTrackers[x[id]] = struct{}{}
	}
	dst.perPageHist = addHist(dst.perPageHist, src.perPageHist)
	for id, c := range src.entityCounts {
		dst.entityCounts[x[id]] += c
	}
	dst.entityTotal += src.entityTotal
	dst.destBlocked += src.destBlocked
	dst.msclkid += src.msclkid
	dst.gclid += src.gclid
	dst.otherEager += src.otherEager
	dst.anyEager += src.anyEager
	// Each click's candidates are copied into one arena.
	n := 0
	for _, d := range src.otherDeferred {
		n += len(d.values)
	}
	arena := make([]uint32, n)
	dst.otherDeferred = slices.Grow(dst.otherDeferred, len(src.otherDeferred))
	for _, d := range src.otherDeferred {
		dst.otherDeferred = append(dst.otherDeferred, deferredOther{
			countedAny: d.countedAny,
			values:     intern.Translate(&arena, d.values, x),
		})
	}
	a.mergeGroups(dst.referrerCands, src.referrerCands, x)
	dst.persistedMS += src.persistedMS
	dst.persistedGC += src.persistedGC

	for ratio, c := range src.ratioHist {
		dst.ratioHist[ratio] += c
	}
	dst.ratioN += src.ratioN

	dst.requests += src.requests
	dst.thirdParty += src.thirdParty
	dst.clickBlocked += src.clickBlocked
}

// mergeGroups folds src's grouped value-id multisets into dst, re-keyed
// in a's id space: translated ids re-sort into canonical order, so two
// shards' sightings of the same value set land in one group. x is
// injective and src's sets are distinct, so no two of them land in one
// new group; the groups new to dst are copied into one slab, one id
// arena and one key string.
func (a *Accumulator) mergeGroups(dst, src map[string]*idGroup, x []uint32) {
	n := 0
	for _, g := range src {
		n += len(g.values)
	}
	ids := make([]uint32, n)
	keys := slices.Grow(a.keyScratch[:0], 4*n)[:4*n]
	a.keyScratch = keys
	fresh := slices.Grow(a.freshScratch[:0], len(src))[:len(src)]
	a.freshScratch = fresh
	off, nf := 0, 0
	for _, g := range src {
		set := ids[off : off+len(g.values) : off+len(g.values)]
		for i, v := range g.values {
			set[i] = x[v]
		}
		slices.Sort(set)
		key := keys[4*off : 4*(off+len(set))]
		for i, id := range set {
			key[4*i], key[4*i+1], key[4*i+2], key[4*i+3] = byte(id), byte(id>>8), byte(id>>16), byte(id>>24)
		}
		if dg := dst[string(key)]; dg != nil {
			dg.count += g.count
		} else {
			fresh[nf] = freshGroup{off: off, n: len(set), count: g.count}
			nf++
		}
		off += len(set)
	}
	if nf == 0 {
		return
	}
	slab := make([]idGroup, nf)
	keyStr := string(keys)
	for i, f := range fresh[:nf] {
		slab[i] = idGroup{values: ids[f.off : f.off+f.n : f.off+f.n], count: f.count}
		dst[keyStr[4*f.off:4*(f.off+f.n)]] = &slab[i]
	}
}

// freshGroup locates one group new to a mergeGroups target: its set at
// ids[off:off+n] and its key at keys[4*off:4*(off+n)].
type freshGroup struct{ off, n, count int }
