package crawler

import (
	"strconv"
	"sync/atomic"

	"searchads/internal/browser"
	"searchads/internal/netsim"
	"searchads/internal/storage"
)

// chainState is one engine chain's reusable storage: built for the
// chain's first crawled iteration and dropped with its last. A chain
// has at most one iteration in flight, so no lock guards it.
type chainState struct {
	// browser is Reset before each iteration after the first.
	browser *browser.Browser
	// stored, click and dest are scratch every crawl reuses: the jar
	// dump behind each cookie record stage and the click/destination
	// split of the post-click requests.
	stored      []storage.StoredCookie
	click, dest []*netsim.Request
	// lent is the record storage of a lending crawl (RunChains); nil
	// when every iteration gets fresh records.
	lent *lentRecords
}

// dumpJar returns the browser's cookie jar as it stands on the
// browser's clock, sorted (storage.Jar.All), in the chain's scratch:
// valid until the next dump.
func (cs *chainState) dumpJar(b *browser.Browser) []storage.StoredCookie {
	cs.stored = b.Jar().AppendAll(cs.stored[:0], b.Clock().Now())
	return cs.stored
}

// lentRecords is the storage one chain builds its lent iterations in:
// the Iteration itself, every record slice, the request records' cookie
// maps and the hops' set-cookie names. Each iteration rewinds it, so an
// iteration lent out is valid only until the chain starts its next one.
//
// A nil *lentRecords hands out fresh storage instead, for records a
// consumer may keep. Either way a stage with no records is empty and
// non-nil where the dataset has always written [] and nil where it has
// written null or nothing, so the records encode to the same bytes.
type lentRecords struct {
	it          Iteration
	reqRecs     [3][]RequestRecord // by serpRequests, clickRequests, destRequests
	cookieRecs  [3][]CookieRecord  // by serpCookies, dwellCookies, revisitCookies
	storageRecs [2][]StorageRecord // by dwellStorage, revisitStorage
	adRecs      []AdRecord
	hopRecs     []HopRecord
	names       []string
	maps        []map[string]string
	nmaps       int
}

// The record stages, indexing lentRecords' slices: requests while the
// results page loads, during the click and on the destination; cookies
// after the results page, after the dwell and after the revisit;
// localStorage after the dwell and after the revisit.
const (
	serpRequests = iota
	clickRequests
	destRequests
)

const (
	serpCookies = iota
	dwellCookies
	revisitCookies
)

const (
	dwellStorage = iota
	revisitStorage
)

// iteration rewinds the storage for a new iteration and returns its
// zeroed record.
func (l *lentRecords) iteration() *Iteration {
	if l == nil {
		return new(Iteration)
	}
	l.it = Iteration{}
	l.nmaps = 0
	return &l.it
}

// records returns buf rewound to hold n records, or a fresh slice of
// capacity n when buf is nil or too short (never nil itself, so an
// empty stage encodes as [] as it always has).
func records[T any](buf []T, n int) []T {
	if buf == nil || cap(buf) < n {
		return make([]T, 0, n)
	}
	return buf[:0]
}

// cookieMap returns an empty map for one request record's cookies.
func (l *lentRecords) cookieMap(n int) map[string]string {
	if l == nil {
		return make(map[string]string, n)
	}
	if l.nmaps == len(l.maps) {
		l.maps = append(l.maps, make(map[string]string, n))
	}
	m := l.maps[l.nmaps]
	l.nmaps++
	clear(m)
	return m
}

// requests records one request stage.
func (l *lentRecords) requests(stage int, reqs []*netsim.Request) []RequestRecord {
	var buf []RequestRecord
	if l != nil {
		buf = l.reqRecs[stage]
	}
	out := records(buf, len(reqs))
	for _, r := range reqs {
		rec := RequestRecord{
			URL:        r.URL.String(),
			Method:     r.Method,
			Type:       string(r.Type),
			FirstParty: r.FirstParty,
			Initiator:  r.Initiator,
			Referrer:   r.Referrer,
			ThirdParty: r.IsThirdParty(),
		}
		if len(r.Cookies) > 0 {
			rec.Cookies = l.cookieMap(len(r.Cookies))
			for _, ck := range r.Cookies {
				rec.Cookies[ck.Name] = ck.Value
			}
		}
		out = append(out, rec)
	}
	if l != nil {
		l.reqRecs[stage] = out
	}
	return out
}

// cookies records one stage's dump of the cookie jar.
func (l *lentRecords) cookies(stage int, all []storage.StoredCookie) []CookieRecord {
	var buf []CookieRecord
	if l != nil {
		buf = l.cookieRecs[stage]
	}
	out := records(buf, len(all))
	for i := range all {
		c := &all[i]
		out = append(out, CookieRecord{
			PartitionKey: c.PartitionKey,
			Domain:       c.Domain,
			Name:         c.Name,
			Value:        c.Value,
		})
	}
	if l != nil {
		l.cookieRecs[stage] = out
	}
	return out
}

// localStorage records the DOM storage contents at one stage.
func (l *lentRecords) localStorage(stage int, ls *storage.LocalStorage) []StorageRecord {
	all := ls.All()
	var buf []StorageRecord
	if l != nil {
		buf = l.storageRecs[stage]
	}
	out := records(buf, len(all))
	for _, e := range all {
		out = append(out, StorageRecord{
			PartitionKey: e.PartitionKey,
			Origin:       e.Origin,
			Key:          e.Key,
			Value:        e.Value,
		})
	}
	if l != nil {
		l.storageRecs[stage] = out
	}
	return out
}

// adRecords returns the storage for n displayed-ad records (nil for
// none, as a page without ads has always recorded).
func (l *lentRecords) adRecords(n int) []AdRecord {
	if n == 0 {
		return nil
	}
	var buf []AdRecord
	if l != nil {
		buf = l.adRecs
	}
	out := records(buf, n)
	if l != nil {
		l.adRecs = out
	}
	return out
}

// hopRecords converts a navigation chain to dataset form, copying each
// hop's set-cookie names out of the browser's navigation storage (nil
// for no hops, and for a hop that set no cookie).
func (l *lentRecords) hopRecords(hops []browser.Hop) []HopRecord {
	if len(hops) == 0 {
		return nil
	}
	var buf []HopRecord
	var names []string
	n := 0
	for i := range hops {
		n += len(hops[i].SetCookieNames)
	}
	if l != nil {
		buf, names = l.hopRecs, l.names
	}
	out := records(buf, len(hops))
	if n > 0 {
		names = records(names, n)
	}
	for _, h := range hops {
		var set []string
		if len(h.SetCookieNames) > 0 {
			start := len(names)
			names = append(names, h.SetCookieNames...)
			set = names[start:len(names):len(names)]
		}
		out = append(out, HopRecord{
			URL:            h.URL,
			Status:         h.Status,
			Location:       h.Location,
			Mechanism:      h.Mechanism,
			SetCookieNames: set,
			Retries:        h.Retries,
			FaultClass:     string(h.FaultClass),
		})
	}
	if l != nil {
		l.hopRecs, l.names = out, names
	}
	return out
}

// instanceLabel is an iteration's instance label: the engine name, a
// dash and the index zero-padded to four digits ("bing-0007").
func instanceLabel(name string, index int) string {
	var buf [32]byte
	b := append(buf[:0], name...)
	b = append(b, '-')
	for d := 1000; d > 1 && index < d; d /= 10 {
		b = append(b, '0')
	}
	b = strconv.AppendInt(b, int64(index), 10)
	return string(b)
}

// scribbleLent makes RunChains overwrite every record of an iteration
// it lent with sentinel values as soon as visit returns, so a consumer
// that keeps any part of one past its visit reads garbage instead of a
// plausible record. It is on in every race-detector build
// (lend_race.go); tests switch it on elsewhere.
var scribbleLent atomic.Bool

// scribbled is the sentinel every string field of a scribbled record
// reads.
const scribbled = "\x00lent record reused"

// scribble overwrites every record of it with sentinel values in place,
// keeping the storage (slices and maps) the chain reuses.
func scribble(it *Iteration) {
	reqs := func(rs []RequestRecord) {
		for i := range rs {
			m := rs[i].Cookies
			for k := range m {
				m[k] = scribbled
			}
			rs[i] = RequestRecord{URL: scribbled, Method: scribbled, Type: scribbled, FirstParty: scribbled,
				Initiator: scribbled, Referrer: scribbled, ThirdParty: !rs[i].ThirdParty, Cookies: m}
		}
	}
	cookies := func(cs []CookieRecord) {
		for i := range cs {
			cs[i] = CookieRecord{PartitionKey: scribbled, Domain: scribbled, Name: scribbled, Value: scribbled}
		}
	}
	stored := func(ss []StorageRecord) {
		for i := range ss {
			ss[i] = StorageRecord{PartitionKey: scribbled, Origin: scribbled, Key: scribbled, Value: scribbled}
		}
	}
	reqs(it.SERPRequests)
	reqs(it.ClickRequests)
	reqs(it.DestRequests)
	cookies(it.SERPCookies)
	cookies(it.Cookies)
	cookies(it.RevisitCookies)
	stored(it.LocalStorage)
	stored(it.RevisitLocalStorage)
	for i := range it.DisplayedAds {
		it.DisplayedAds[i] = AdRecord{Href: scribbled, LandingDomain: scribbled, Position: -1}
	}
	for i := range it.Hops {
		h := &it.Hops[i]
		for j := range h.SetCookieNames {
			h.SetCookieNames[j] = scribbled
		}
		*h = HopRecord{URL: scribbled, Status: -1, Location: scribbled, Mechanism: scribbled,
			SetCookieNames: h.SetCookieNames, Retries: -1, FaultClass: scribbled}
	}
	*it = Iteration{
		Engine: scribbled, EngineHost: scribbled, Index: -1, Instance: scribbled, Query: scribbled,
		SERPRequests: it.SERPRequests, SERPCookies: it.SERPCookies, DisplayedAds: it.DisplayedAds,
		ClickedAd: -1, ClickRequests: it.ClickRequests, Hops: it.Hops, FinalURL: scribbled,
		FinalReferrer: scribbled, DestRequests: it.DestRequests, Cookies: it.Cookies,
		LocalStorage: it.LocalStorage, RevisitCookies: it.RevisitCookies,
		RevisitLocalStorage: it.RevisitLocalStorage, CrawlerRequestCount: -1, ExtensionRequestCount: -1,
		SERPTrackerCount: -1, ClickTrackerCount: -1, DestTrackerCount: -1,
		Error: scribbled, ErrorClass: scribbled, Outcome: scribbled, Rotations: -1, CaptchaSolves: -1,
	}
}
