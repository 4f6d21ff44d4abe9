package tokens

import (
	"cmp"
	"slices"
	"strings"

	"searchads/internal/intern"
)

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
// observations, grouped by instance (a stable sort of a copy), one at a
// time and asking for the Result. Any order of a batch classifies alike.
func (c *Classifier) Classify(obs []Observation) *Result {
	grouped := slices.Clone(obs)
	slices.SortStableFunc(grouped, func(x, y Observation) int {
		return strings.Compare(x.Instance, y.Instance)
	})
	acc := c.NewAccumulator()
	for _, o := range grouped {
		acc.Observe(o)
	}
	return acc.Result()
}

// valueState is one token value's verdict state. Values are
// overwhelmingly seen inside a single browser instance, so filter (i)
// keeps the first instance plus a became-cross-instance flag — not a
// set. ad and sess record that filter (ii) or (iii) flagged the value
// in an instance already resolved.
type valueState struct {
	firstInstance   uint32
	multi, ad, sess bool
}

// sighting is one observation of the open instance, every string
// interned; adIndex is -1 off the ad URLs.
type sighting struct {
	key, host, src, val uint32
	adIndex             int32
	revisit             bool
}

// Accumulator is the incremental form of the §3.2 pipeline: feed it
// observations one sighting (or one crawl iteration) at a time via
// Observe, then call Result to run the filters. Every string is
// interned into a shared Table on first sight. Filters (ii) and (iii)
// look inside one browser instance, so only the open instance's
// sightings are held: when an observation names another instance, the
// open one's ad and session contexts are resolved into its values'
// verdict bits and dropped. Retained state is O(unique values), never
// the observation stream, which lets streaming consumers classify a
// crawl without retaining the dataset.
//
// One instance's observations must be contiguous, as a crawl's are
// (each iteration is one instance, observed in one go); an instance
// that recurs after a gap starts fresh contexts. Within that contract
// observation order does not affect the Result, and accumulators over
// a partition of the stream by instance Merge into the state of the
// unpartitioned fold.
type Accumulator struct {
	cfg    Classifier
	tab    *intern.Table
	values map[uint32]valueState
	// open holds the sightings of instance inst, the one being
	// observed, reused from instance to instance.
	open []sighting
	inst uint32
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
		cfg:    *c,
		tab:    tab,
		values: make(map[uint32]valueState),
		heur:   make(map[uint32]Reason),
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
	if inst != a.inst && len(a.open) > 0 {
		a.flag(a.open)
		a.open = a.open[:0]
	}
	a.inst = inst
	a.open = append(a.open, sighting{key: key, host: host, src: src, val: val, adIndex: int32(adIndex), revisit: revisit})
}

// flag resolves one instance's sightings (sorting s) into the ad and
// sess bits of the values filters (ii) and (iii) mark.
func (a *Accumulator) flag(s []sighting) {
	resolve(s, func(val uint32, ad bool) {
		v := a.values[val]
		if ad {
			v.ad = true
		} else {
			v.sess = true
		}
		a.values[val] = v
	})
}

// Merge folds another accumulator's state into a. The two may intern
// through different tables (shards build their own); ids are reconciled
// by string, each distinct string of b's table hashed once
// (intern.Table.Import). Merging any partition of an observation stream
// by instance yields the state — and therefore the Result — of the
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
		av, ok := a.values[nid]
		if !ok {
			av = valueState{firstInstance: inst}
		}
		nv := valueState{
			firstInstance: av.firstInstance,
			multi:         av.multi || bv.multi || av.firstInstance != inst,
			ad:            av.ad || bv.ad,
			sess:          av.sess || bv.sess,
		}
		if !ok || nv != av {
			a.values[nid] = nv
		}
	}
	// b's open instance is one a never saw: resolve a translated copy
	// into a's bits, leaving a's own open instance open.
	open := slices.Clone(b.open)
	for i := range open {
		o := &open[i]
		o.key, o.host, o.src, o.val = xlate[o.key], xlate[o.host], xlate[o.src], xlate[o.val]
	}
	a.flag(open)
	if a.cfg == b.cfg {
		for id, r := range b.heur {
			a.heur[xlate[id]] = r
		}
	}
}

// Result runs filters (i)–(iv) and the manual pass over everything
// observed so far. It does not mutate the accumulator (beyond the pure
// per-value heuristic memo): observing more and asking again yields the
// classification of the larger stream.
func (a *Accumulator) Result() *Result {
	n := a.tab.Len()
	adOpen, sessOpen := a.contextFlags()
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
		reason := contextReason(id, v, adOpen, sessOpen)
		if reason == "" {
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

// contextReason is the verdict filters (i)–(iii) give a value, or ""
// when they leave it to the heuristics: its own bits, or the open
// instance's flags (contextFlags).
func contextReason(id uint32, v valueState, adOpen, sessOpen bitset) Reason {
	switch {
	case v.multi:
		return ReasonCrossInstance
	case v.ad || adOpen.has(id):
		return ReasonAdIdentifier
	case v.sess || sessOpen.has(id):
		return ReasonSessionID
	}
	return ""
}

// contextFlags runs filters (ii) and (iii) over a copy of the open
// instance's sightings: the values flagged as ad identifiers and as
// session identifiers there, as bitsets over the table's ids.
func (a *Accumulator) contextFlags() (adValues, sessValues bitset) {
	n := a.tab.Len()
	adValues, sessValues = newBitset(n), newBitset(n)
	resolve(slices.Clone(a.open), func(val uint32, ad bool) {
		if ad {
			adValues.set(val)
		} else {
			sessValues.set(val)
		}
	})
	return adValues, sessValues
}

// resolve runs filters (ii) and (iii) over one instance's sightings and
// calls mark for each value they flag: ad for filter (ii), !ad for
// filter (iii); a value may be marked more than once. It sorts s by
// (key, host, source, revisit, value): a key's run is one filter-(ii)
// context, and each (key, host, source) run inside it one filter-(iii)
// context with its base-visit values before its revisit values.
func resolve(s []sighting, mark func(val uint32, ad bool)) {
	slices.SortFunc(s, compareSightings)
	for i := 0; i < len(s); {
		j := i + 1
		for j < len(s) && s[j].key == s[i].key {
			j++
		}
		adContext(s[i:j], mark)
		for k := i; k < j; {
			m := k + 1
			for m < j && s[m].host == s[k].host && s[m].src == s[k].src {
				m++
			}
			sessContext(s[k:m], mark)
			k = m
		}
		i = j
	}
}

func compareSightings(x, y sighting) int {
	switch {
	case x.key != y.key:
		return cmp.Compare(x.key, y.key)
	case x.host != y.host:
		return cmp.Compare(x.host, y.host)
	case x.src != y.src:
		return cmp.Compare(x.src, y.src)
	case x.revisit != y.revisit:
		if y.revisit {
			return -1
		}
		return 1
	}
	return cmp.Compare(x.val, y.val)
}

// adContext is filter (ii) over one key's sightings: a key whose values
// differ across the ad URLs of the page marks all its ad-URL values as
// ad identifiers.
func adContext(s []sighting, mark func(uint32, bool)) {
	first := -1
	manyAds, manyVals := false, false
	for i, o := range s {
		if o.adIndex >= 0 && first < 0 {
			first = i
		} else if o.adIndex >= 0 {
			manyAds = manyAds || o.adIndex != s[first].adIndex
			manyVals = manyVals || o.val != s[first].val
		}
	}
	if manyAds && manyVals {
		for _, o := range s {
			if o.adIndex >= 0 {
				mark(o.val, true)
			}
		}
	}
}

// sessContext is filter (iii) over one (key, host, source) context,
// sorted base visit first and by value: when a base value is missing
// from the next-day revisit, the value changed, and every value of the
// context is a session identifier.
func sessContext(s []sighting, mark func(uint32, bool)) {
	n := slices.IndexFunc(s, func(o sighting) bool { return o.revisit })
	if n <= 0 {
		return // no revisit, or no base visit
	}
	base, rev := s[:n], s[n:]
	j := 0
	for _, o := range base {
		for j < len(rev) && rev[j].val < o.val {
			j++
		}
		if j == len(rev) || rev[j].val != o.val {
			for _, x := range s {
				mark(x.val, false)
			}
			return
		}
	}
}

// Warm memoises the heuristic verdict of every value filters (i)–(iii)
// leave unflagged in this accumulator, so a later Result — of this
// accumulator or of one it is merged into — finds them computed. Shards
// warm on their own goroutines before a merge: ad and session contexts
// lie inside one instance, which one shard owns, so a value flagged in
// that shard stays flagged after any merge, and the merged Result runs
// no heuristics at all. Warm changes no Result.
func (a *Accumulator) Warm() {
	adOpen, sessOpen := a.contextFlags()
	for id, v := range a.values {
		if contextReason(id, v, adOpen, sessOpen) == "" {
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

// bitset is a dense id set sized to the intern table.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i uint32) { b[i>>6] |= 1 << (i & 63) }

func (b bitset) has(i uint32) bool {
	w := int(i >> 6)
	return w < len(b) && b[w]&(1<<(i&63)) != 0
}
