package tokens

import "searchads/internal/intern"

// Source says where a token was observed.
type Source string

// Token sources: "We consider all query parameters, localStorage, and
// cookie values. We call them tokens." (§3.2)
const (
	SourceQueryParam   Source = "queryparam"
	SourceCookie       Source = "cookie"
	SourceLocalStorage Source = "localstorage"
)

// Observation is one sighting of a token during the crawl.
type Observation struct {
	// Key is the parameter/cookie/storage key under which the value was
	// seen.
	Key string
	// Value is the token itself.
	Value string
	// Source says which storage or channel carried it.
	Source Source
	// Host is the domain (cookies), origin (localStorage), or request
	// host (query params) of the sighting.
	Host string
	// Instance identifies the browser instance (= crawl iteration); the
	// paper runs "each iteration ... in a new browser instance".
	Instance string
	// AdIndex is the index of the ad URL on the results page the token
	// came from, or -1 when not applicable. Filter (ii) compares token
	// values across the ad URLs of one results page.
	AdIndex int
	// Revisit marks observations from the extra iteration executed "one
	// day later" on the same profile (filter iii).
	Revisit bool
}

// Reason explains why a token was discarded (or kept).
type Reason string

// Discard reasons, in pipeline order.
const (
	ReasonCrossInstance Reason = "constant-across-instances" // filter (i)
	ReasonAdIdentifier  Reason = "ad-identifier"             // filter (ii)
	ReasonSessionID     Reason = "session-identifier"        // filter (iii)
	ReasonHeuristics    Reason = "value-heuristics"          // filter (iv)
	ReasonManualPass    Reason = "manual-pass"
	ReasonUserID        Reason = "user-identifier" // survived everything
)

// reasonCodes lists the reasons a Result stores per value, indexed by
// code; code 0 is "no verdict" (the id was not a value when Result ran).
var reasonCodes = [...]Reason{
	"", ReasonCrossInstance, ReasonAdIdentifier, ReasonSessionID,
	ReasonHeuristics, ReasonManualPass, ReasonUserID,
}

// reasonCode is the index of r in reasonCodes.
func reasonCode(r Reason) uint8 {
	for c, x := range reasonCodes {
		if x == r {
			return uint8(c)
		}
	}
	panic("tokens: unknown reason " + string(r))
}

// Result is the classification outcome. Verdicts are stored by intern
// id, so the string lookups (ReasonFor, IsUserID) resolve the value
// through the producing accumulator's table: do not call them while
// another goroutine observes into that accumulator. A value the table
// had not issued as a token value when Result was called has no verdict.
type Result struct {
	// TotalTokens is the number of unique token values observed (the
	// paper's dataset had 6,971).
	TotalTokens int
	// ByReason counts unique tokens per discard reason (UserID counts
	// the survivors; the paper ended with 1,258), reproducing the §3.2
	// funnel.
	ByReason map[Reason]int
	// tab is the accumulator's intern table; ids index the fields below.
	tab *intern.Table
	// reasonByID holds each value's reasonCodes index by intern id.
	reasonByID []uint8
	// uidByID marks user-identifier verdicts by intern id — the
	// allocation-free lookup id-keyed consumers (the analysis fold) use.
	uidByID bitset
}

// IsUserID reports whether value was classified as a user identifier.
func (r *Result) IsUserID(value string) bool { return r.uidByID.has(r.tab.Lookup(value)) }

// UserIDAt reports the verdict for an intern id issued by the table the
// producing accumulator observed through (see Accumulator.Table). Ids
// the table had not issued when Result was called are not user IDs.
func (r *Result) UserIDAt(id uint32) bool { return r.uidByID.has(id) }

// ReasonFor returns the classification of a value ("" if never seen).
func (r *Result) ReasonFor(value string) Reason {
	if id := r.tab.Lookup(value); id < uint32(len(r.reasonByID)) {
		return reasonCodes[r.reasonByID[id]]
	}
	return ""
}

// Classifier runs the §3.2 pipeline. The zero value is ready to use.
type Classifier struct {
	// KeepManualPass disables the final manual-equivalent pass when
	// false is wanted; default (false zero value) runs it. Set
	// SkipManualPass to compare the funnel before/after, as the paper
	// reports both counts.
	SkipManualPass bool
}

// Classify applies filters (i)–(iv) and the manual pass to the
// observations and returns the classification of every unique value.
func Classify(obs []Observation) *Result { return (&Classifier{}).Classify(obs) }

// Classify implements the pipeline as a fold over an Accumulator: the
// classification of a batch is identical to observing the same
// observations one at a time and asking for the Result.
func (c *Classifier) Classify(obs []Observation) *Result {
	acc := c.NewAccumulator()
	for _, o := range obs {
		acc.Observe(o)
	}
	return acc.Result()
}

// valueState tracks one token value's sightings (filter i). Values are
// overwhelmingly seen inside a single browser instance, so the state is
// the first instance plus a became-cross-instance flag — not a set.
type valueState struct {
	firstInstance uint32
	multi         bool
}

// adState groups filter-(ii) contexts: per (instance, key), the
// distinct ad indexes and distinct values seen across the ad URLs of
// one results page. Both slices stay tiny (one SERP's ads), so linear
// dedup beats a map.
type adState struct {
	adIdx []int32
	vals  []uint32
}

// sessKey identifies a filter-(iii) context: (instance, key, host,
// source), all interned.
type sessKey struct {
	inst, key, host, src uint32
}

// sessState holds a session context's distinct base-visit and revisit
// values.
type sessState struct {
	base, revisit []uint32
}

// Accumulator is the incremental form of the §3.2 pipeline: feed it
// observations one sighting (or one crawl iteration) at a time via
// Observe, then call Result to run the filters. Every string is
// interned into a shared Table on first sight, so retained state is
// flat integer-keyed structures — O(unique tokens), never the
// observation stream itself — which is what lets streaming consumers
// classify a crawl without retaining the dataset. Observation order
// does not affect the Result, and two accumulators over a partition of
// the same stream Merge into the state of the unpartitioned fold.
type Accumulator struct {
	cfg      Classifier
	tab      *intern.Table
	values   map[uint32]valueState
	adKeys   map[uint64]*adState
	sessKeys map[sessKey]*sessState
	// heur memoises the per-value heuristic verdict (filters iv + the
	// manual pass), which depends on nothing but the value bytes: a
	// stream whose Result is materialised repeatedly classifies each
	// distinct value once, not once per Result.
	heur map[uint32]Reason
}

// NewAccumulator returns an empty accumulator for this classifier's
// configuration, interning into its own table.
func (c *Classifier) NewAccumulator() *Accumulator {
	return c.NewAccumulatorTable(intern.New())
}

// NewAccumulatorTable returns an empty accumulator interning into tab —
// the form used by callers (the §4 analysis fold) that key their own
// aggregate state by the same ids and read verdicts via Result.UserIDAt.
func (c *Classifier) NewAccumulatorTable(tab *intern.Table) *Accumulator {
	return &Accumulator{
		cfg:      *c,
		tab:      tab,
		values:   make(map[uint32]valueState),
		adKeys:   make(map[uint64]*adState),
		sessKeys: make(map[sessKey]*sessState),
		heur:     make(map[uint32]Reason),
	}
}

// NewAccumulator returns an empty accumulator with the default pipeline
// (manual pass enabled), the incremental counterpart of Classify.
func NewAccumulator() *Accumulator { return (&Classifier{}).NewAccumulator() }

// NewAccumulatorTable returns a default-pipeline accumulator interning
// into tab.
func NewAccumulatorTable(tab *intern.Table) *Accumulator {
	return (&Classifier{}).NewAccumulatorTable(tab)
}

// Table exposes the accumulator's intern table so callers can pre-intern
// strings and use ObserveIDs on the hot path.
func (a *Accumulator) Table() *intern.Table { return a.tab }

// Observe folds one sighting into the accumulator.
func (a *Accumulator) Observe(o Observation) {
	if o.Value == "" {
		return
	}
	a.ObserveIDs(
		a.tab.ID(o.Key), a.tab.ID(o.Value), a.tab.ID(o.Host),
		a.tab.ID(o.Instance), a.tab.ID(string(o.Source)),
		o.AdIndex, o.Revisit)
}

// ObserveIDs is Observe with every string already interned in Table().
// The caller must not pass the id of the empty value (Observe's skip);
// hot paths check for "" before interning anything.
func (a *Accumulator) ObserveIDs(key, val, host, inst, src uint32, adIndex int, revisit bool) {
	if v, ok := a.values[val]; !ok {
		a.values[val] = valueState{firstInstance: inst}
	} else if !v.multi && v.firstInstance != inst {
		v.multi = true
		a.values[val] = v
	}

	if adIndex >= 0 {
		k := uint64(inst)<<32 | uint64(key)
		ad := a.adKeys[k]
		if ad == nil {
			ad = &adState{}
			a.adKeys[k] = ad
		}
		ad.adIdx = appendDistinct32(ad.adIdx, int32(adIndex))
		ad.vals = appendDistinct(ad.vals, val)
	}

	sk := sessKey{inst: inst, key: key, host: host, src: src}
	s := a.sessKeys[sk]
	if s == nil {
		s = &sessState{}
		a.sessKeys[sk] = s
	}
	if revisit {
		s.revisit = appendDistinct(s.revisit, val)
	} else {
		s.base = appendDistinct(s.base, val)
	}
}

// Merge folds another accumulator's state into a. The two may intern
// through different tables (shards build their own); ids are reconciled
// by string, each distinct string of b's table hashed once
// (intern.Table.Import). Merging any shard partition of an observation
// stream yields the state — and therefore the Result — of the
// unpartitioned fold. b is left unchanged. Heuristic verdicts b has
// memoised (see Warm) carry over when both sides share a configuration.
func (a *Accumulator) Merge(b *Accumulator) {
	if b == nil {
		return
	}
	a.MergeTranslated(b, a.tab.Import(b.tab))
}

// MergeTranslated is Merge with b's ids already translated into a's
// table: xlate must be a.Table().Import(b.Table()). A caller that
// re-keys its own id-keyed state from b's table (the §4 analysis merge)
// builds the translation once and shares it here.
func (a *Accumulator) MergeTranslated(b *Accumulator, xlate []uint32) {
	if b == nil {
		return
	}
	for id, bv := range b.values {
		nid, inst := xlate[id], xlate[bv.firstInstance]
		if av, ok := a.values[nid]; ok {
			if !av.multi && (bv.multi || av.firstInstance != inst) {
				av.multi = true
				a.values[nid] = av
			}
		} else {
			a.values[nid] = valueState{firstInstance: inst, multi: bv.multi}
		}
	}
	a.mergeAdKeys(b, xlate)
	a.mergeSessKeys(b, xlate)
	if a.cfg == b.cfg {
		for id, r := range b.heur {
			a.heur[xlate[id]] = r
		}
	}
}

// mergeAdKeys folds b's filter-(ii) contexts into a. Both key spaces
// lead with the instance, so shards that split the stream by iteration
// rarely share a key: a key new to a takes a copy of b's lists, already
// distinct. The copies come from one state slab and one arena per list
// type, sized for every key of b; each key's lists are capacity-capped
// windows of the arena, so a later append on a reallocates rather than
// overwriting the next key's ids.
func (a *Accumulator) mergeAdKeys(b *Accumulator, xlate []uint32) {
	nIdx, nVals := 0, 0
	for _, bad := range b.adKeys {
		nIdx += len(bad.adIdx)
		nVals += len(bad.vals)
	}
	slab := make([]adState, len(b.adKeys))
	idxArena := make([]int32, nIdx)
	valArena := make([]uint32, nVals)
	used := 0
	for k, bad := range b.adKeys {
		nk := uint64(xlate[k>>32])<<32 | uint64(xlate[uint32(k)])
		if ad := a.adKeys[nk]; ad != nil {
			for _, ai := range bad.adIdx {
				ad.adIdx = appendDistinct32(ad.adIdx, ai)
			}
			for _, v := range bad.vals {
				ad.vals = appendDistinct(ad.vals, xlate[v])
			}
			continue
		}
		ad := &slab[used]
		used++
		ad.adIdx = idxArena[:len(bad.adIdx):len(bad.adIdx)]
		idxArena = idxArena[len(bad.adIdx):]
		copy(ad.adIdx, bad.adIdx)
		ad.vals = intern.Translate(&valArena, bad.vals, xlate)
		a.adKeys[nk] = ad
	}
}

// mergeSessKeys folds b's filter-(iii) contexts into a, copying keys
// new to a into one slab and arena exactly as mergeAdKeys does.
func (a *Accumulator) mergeSessKeys(b *Accumulator, xlate []uint32) {
	n := 0
	for _, bs := range b.sessKeys {
		n += len(bs.base) + len(bs.revisit)
	}
	slab := make([]sessState, len(b.sessKeys))
	arena := make([]uint32, n)
	used := 0
	for k, bs := range b.sessKeys {
		nk := sessKey{inst: xlate[k.inst], key: xlate[k.key], host: xlate[k.host], src: xlate[k.src]}
		if s := a.sessKeys[nk]; s != nil {
			for _, v := range bs.base {
				s.base = appendDistinct(s.base, xlate[v])
			}
			for _, v := range bs.revisit {
				s.revisit = appendDistinct(s.revisit, xlate[v])
			}
			continue
		}
		s := &slab[used]
		used++
		s.base = intern.Translate(&arena, bs.base, xlate)
		s.revisit = intern.Translate(&arena, bs.revisit, xlate)
		a.sessKeys[nk] = s
	}
}

// Result runs filters (i)–(iv) and the manual pass over everything
// observed so far. It does not mutate the accumulator (beyond the pure
// per-value heuristic memo): observing more and asking again yields the
// classification of the larger stream.
func (a *Accumulator) Result() *Result {
	n := a.tab.Len()
	adValues, sessValues := a.contextFlags()
	res := &Result{
		TotalTokens: len(a.values),
		ByReason:    make(map[Reason]int),
		tab:         a.tab,
		reasonByID:  make([]uint8, n),
		uidByID:     newBitset(n),
	}
	// Each value gets exactly one verdict, a function of the state
	// alone, so the values are classified in map order.
	for id, v := range a.values {
		var reason Reason
		switch {
		case v.multi:
			reason = ReasonCrossInstance
		case adValues.has(id):
			reason = ReasonAdIdentifier
		case sessValues.has(id):
			reason = ReasonSessionID
		default:
			reason = a.heuristicReason(id, a.tab.Str(id))
			if reason == ReasonUserID {
				res.uidByID.set(id)
			}
		}
		res.reasonByID[id] = reasonCode(reason)
		res.ByReason[reason]++
	}
	return res
}

// contextFlags runs filters (ii) and (iii) over the retained contexts:
// the values flagged as ad identifiers and as session identifiers, as
// bitsets over the table's ids.
func (a *Accumulator) contextFlags() (adValues, sessValues bitset) {
	n := a.tab.Len()
	// Filter (ii): keys whose values differ across ad URLs on the same
	// page mark all their values as ad identifiers.
	adValues = newBitset(n)
	for _, ad := range a.adKeys {
		if len(ad.vals) > 1 && len(ad.adIdx) > 1 {
			for _, v := range ad.vals {
				adValues.set(v)
			}
		}
	}
	// Filter (iii): keys whose value changed between base visit and the
	// next-day revisit mark those values as session identifiers.
	sessValues = newBitset(n)
	for _, s := range a.sessKeys {
		if len(s.base) == 0 || len(s.revisit) == 0 {
			continue
		}
		changed := false
		for _, v := range s.base {
			if !contains(s.revisit, v) {
				changed = true
				break
			}
		}
		if changed {
			for _, v := range s.base {
				sessValues.set(v)
			}
			for _, v := range s.revisit {
				sessValues.set(v)
			}
		}
	}
	return adValues, sessValues
}

// Warm memoises the heuristic verdict of every value filters (i)–(iii)
// leave unflagged in this accumulator, so a later Result — of this
// accumulator or of one it is merged into — finds them computed. Shards
// warm on their own goroutines before a merge: ad and session contexts
// lead with the instance, which one iteration owns, so a value flagged
// in the shard that saw its iteration stays flagged after any merge, and
// the merged Result runs no heuristics at all. Warm changes no Result.
func (a *Accumulator) Warm() {
	adValues, sessValues := a.contextFlags()
	for id, v := range a.values {
		if !v.multi && !adValues.has(id) && !sessValues.has(id) {
			a.heuristicReason(id, a.tab.Str(id))
		}
	}
}

// heuristicReason classifies one value through filter (iv) and the
// manual pass, memoised by intern id: the verdict is a pure function of
// the value bytes, so it is computed once per distinct value however
// many times Result runs.
func (a *Accumulator) heuristicReason(id uint32, val string) Reason {
	if r, ok := a.heur[id]; ok {
		return r
	}
	var r Reason
	switch {
	case len(val) < MinIDLength || LooksLikeTimestamp(val) ||
		LooksLikeURL(val) || IsEnglishWords(val) || LooksLikePhrase(val):
		r = ReasonHeuristics
	case !a.cfg.SkipManualPass && (LooksLikeCoordinates(val) ||
		LooksLikeAcronym(val) || isWordCombination(val)):
		r = ReasonManualPass
	default:
		r = ReasonUserID
	}
	a.heur[id] = r
	return r
}

// PassesHeuristicsID reports whether the interned value survives the
// per-value filters under the accumulator's configuration — filter (iv)
// plus the manual pass, i.e. PassesValueHeuristics for the default
// pipeline — memoised so each distinct value is judged once across the
// whole fold however many sightings ask.
func (a *Accumulator) PassesHeuristicsID(id uint32) bool {
	return a.heuristicReason(id, a.tab.Str(id)) == ReasonUserID
}

// appendDistinct appends v if absent. The slices it maintains are one
// SERP's or one session context's distinct values — single digits — so
// the linear probe is cheaper than any map.
func appendDistinct(s []uint32, v uint32) []uint32 {
	if contains(s, v) {
		return s
	}
	return append(s, v)
}

func appendDistinct32(s []int32, v int32) []int32 {
	for _, x := range s {
		if x == v {
			return s
		}
	}
	return append(s, v)
}

func contains(s []uint32, v uint32) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// bitset is a dense id set sized to the intern table.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i uint32) { b[i>>6] |= 1 << (i & 63) }

func (b bitset) has(i uint32) bool {
	w := int(i >> 6)
	return w < len(b) && b[w]&(1<<(i&63)) != 0
}
