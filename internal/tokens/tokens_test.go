package tokens

import (
	"fmt"
	"hash/fnv"
	"maps"
	"math/rand/v2"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestLooksLikeTimestamp(t *testing.T) {
	sep2022 := time.Date(2022, 9, 15, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		v    string
		want bool
	}{
		{strconv.FormatInt(sep2022.Unix(), 10), true},
		{strconv.FormatInt(sep2022.UnixMilli(), 10), true},
		{strconv.FormatInt(time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC).Unix(), 10), false},
		{strconv.FormatInt(time.Date(2023, 6, 1, 0, 0, 0, 0, time.UTC).Unix(), 10), false},
		{"notanumber", false},
		{"", false},
		{"12.5", false},
	}
	for _, c := range cases {
		if got := LooksLikeTimestamp(c.v); got != c.want {
			t.Errorf("LooksLikeTimestamp(%q) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestLooksLikeURL(t *testing.T) {
	for _, v := range []string{
		"https://example.com/x",
		"http://a.b/c?d=1",
		"https%3A%2F%2Fshop.example%2Fland", // URL-encoded
		"//cdn.example/x.js",
		"www.example.com",
	} {
		if !LooksLikeURL(v) {
			t.Errorf("LooksLikeURL(%q) = false, want true", v)
		}
	}
	for _, v := range []string{"CAESbeD2ZWCwqFv3e2k", "hello", "1663243200", ""} {
		if LooksLikeURL(v) {
			t.Errorf("LooksLikeURL(%q) = true, want false", v)
		}
	}
}

func TestIsEnglishWords(t *testing.T) {
	for _, v := range []string{"search", "dark-mode", "accept_cookies", "light theme", "SEARCH"} {
		if !IsEnglishWords(v) {
			t.Errorf("IsEnglishWords(%q) = false, want true", v)
		}
	}
	for _, v := range []string{"xk42jq", "CAESbeD2ZWCwq", "", "---"} {
		if IsEnglishWords(v) {
			t.Errorf("IsEnglishWords(%q) = true, want false", v)
		}
	}
}

func TestLooksLikeCoordinates(t *testing.T) {
	if !LooksLikeCoordinates("48.8566,2.3522") || !LooksLikeCoordinates("-33.86, 151.20") {
		t.Error("valid coordinates not detected")
	}
	for _, v := range []string{"48.8566", "a,b", "999.0,10.0", "12,34"} {
		if LooksLikeCoordinates(v) {
			t.Errorf("LooksLikeCoordinates(%q) = true", v)
		}
	}
}

func TestLooksLikeAcronym(t *testing.T) {
	for _, v := range []string{"NASA", "GDPR", "CCPA"} {
		if !LooksLikeAcronym(v) {
			t.Errorf("acronym %q not detected", v)
		}
	}
	for _, v := range []string{"NaSA", "TOOLONGACRONYM", "A", "1234"} {
		if LooksLikeAcronym(v) {
			t.Errorf("%q wrongly detected as acronym", v)
		}
	}
}

func TestShannonEntropy(t *testing.T) {
	if ShannonEntropy("") != 0 {
		t.Error("empty string entropy must be 0")
	}
	if ShannonEntropy("aaaaaaaa") != 0 {
		t.Error("uniform string entropy must be 0")
	}
	id := "CAESbeD2ZWCwqFv3e2k9fQ"
	if ShannonEntropy(id) < 3 {
		t.Errorf("identifier entropy too low: %f", ShannonEntropy(id))
	}
	if ShannonEntropy("the the the the") >= ShannonEntropy(id) {
		t.Error("natural language should have lower entropy than an ID")
	}
}

func TestPassesValueHeuristics(t *testing.T) {
	pass := []string{
		"CAESbeD2ZWCwqFv3e2k9fQ",               // Google click id style
		"2f5c9a1e77b04d2a8c31",                 // hex id
		"1A2b3C4d5E6f7G8h",                     // mixed
		"06cbba7a-51a8-4a0b-bc3a-9b2c1f1e2d3a", // uuid
	}
	for _, v := range pass {
		if !PassesValueHeuristics(v) {
			t.Errorf("id-like %q rejected", v)
		}
	}
	fail := []string{
		"short",                    // < 8 chars
		"1663243200",               // timestamp in window
		"https://example.com/page", // URL
		"dark-mode-enabled",        // word combination
		"48.8566,2.3522",           // coordinates
		"acceptCookies",            // camel-case words
		"settings",                 // single word
	}
	for _, v := range fail {
		if PassesValueHeuristics(v) {
			t.Errorf("non-id %q accepted", v)
		}
	}
}

func obs(key, value, instance string, adIndex int, revisit bool) Observation {
	return Observation{
		Key: key, Value: value, Source: SourceCookie, Host: "x.example",
		Instance: instance, AdIndex: adIndex, Revisit: revisit,
	}
}

func TestClassifyCrossInstanceConstant(t *testing.T) {
	// Filter (i): same value across browser instances = not a user ID.
	res := Classify([]Observation{
		obs("v", "constantvalue123", "i1", -1, false),
		obs("v", "constantvalue123", "i2", -1, false),
	})
	if res.IsUserID("constantvalue123") {
		t.Fatal("cross-instance constant classified as UID")
	}
	if res.ReasonFor("constantvalue123") != ReasonCrossInstance {
		t.Fatalf("reason = %q", res.ReasonFor("constantvalue123"))
	}
}

func TestClassifyAdIdentifier(t *testing.T) {
	// Filter (ii): same key, different values across ads on one page.
	res := Classify([]Observation{
		obs("cid", "AdIdValue11AAABBB", "i1", 0, false),
		obs("cid", "AdIdValue22CCCDDD", "i1", 1, false),
	})
	for _, v := range []string{"AdIdValue11AAABBB", "AdIdValue22CCCDDD"} {
		if res.ReasonFor(v) != ReasonAdIdentifier {
			t.Fatalf("reason for %q = %q, want ad-identifier", v, res.ReasonFor(v))
		}
	}
	// Same key, same value across ads: NOT an ad identifier.
	res = Classify([]Observation{
		obs("uid", "SameAcrossAds1234", "i1", 0, false),
		obs("uid", "SameAcrossAds1234", "i1", 1, false),
	})
	if !res.IsUserID("SameAcrossAds1234") {
		t.Fatalf("stable-across-ads value should be a UID, got %q", res.ReasonFor("SameAcrossAds1234"))
	}
}

func TestClassifySessionIdentifier(t *testing.T) {
	// Filter (iii): value changed between base visit and next-day
	// revisit of the same profile = session ID.
	res := Classify([]Observation{
		obs("sid", "SessValA99887766", "i1", -1, false),
		obs("sid", "SessValB11223344", "i1", -1, true),
	})
	for _, v := range []string{"SessValA99887766", "SessValB11223344"} {
		if res.ReasonFor(v) != ReasonSessionID {
			t.Fatalf("reason for %q = %q, want session-identifier", v, res.ReasonFor(v))
		}
	}
	// Stable across the revisit: stays a UID candidate.
	res = Classify([]Observation{
		obs("uid", "StableUid12345678", "i1", -1, false),
		obs("uid", "StableUid12345678", "i1", -1, true),
	})
	if !res.IsUserID("StableUid12345678") {
		t.Fatalf("persistent value should be UID, got %q", res.ReasonFor("StableUid12345678"))
	}
}

func TestClassifyHeuristicsAndManual(t *testing.T) {
	res := Classify([]Observation{
		obs("t", "1663243200", "i1", -1, false),
		obs("u", "https://dest.example/page", "i1", -1, false),
		obs("w", "acceptCookies", "i1", -1, false),
		obs("id", "Xk42jqP9Lm3TzQ8v", "i1", -1, false),
	})
	if res.ReasonFor("1663243200") != ReasonHeuristics {
		t.Errorf("timestamp reason = %q", res.ReasonFor("1663243200"))
	}
	if res.ReasonFor("https://dest.example/page") != ReasonHeuristics {
		t.Errorf("URL reason = %q", res.ReasonFor("https://dest.example/page"))
	}
	if res.ReasonFor("acceptCookies") != ReasonManualPass {
		t.Errorf("manual-pass reason = %q", res.ReasonFor("acceptCookies"))
	}
	if !res.IsUserID("Xk42jqP9Lm3TzQ8v") {
		t.Errorf("identifier reason = %q", res.ReasonFor("Xk42jqP9Lm3TzQ8v"))
	}
	if res.TotalTokens != 4 {
		t.Errorf("TotalTokens = %d", res.TotalTokens)
	}
	if got := res.ByReason[ReasonUserID]; got != 1 {
		t.Errorf("UserID count = %d", got)
	}
}

func TestClassifySkipManualPass(t *testing.T) {
	c := &Classifier{SkipManualPass: true}
	res := c.Classify([]Observation{obs("w", "acceptCookies", "i1", -1, false)})
	if !res.IsUserID("acceptCookies") {
		t.Fatal("manual pass should be skipped")
	}
}

func TestClassifyEmptyValuesIgnored(t *testing.T) {
	res := Classify([]Observation{obs("k", "", "i1", -1, false)})
	if res.TotalTokens != 0 {
		t.Fatal("empty values must be ignored")
	}
}

// funnelCorpus is a synthetic corpus shaped like the paper's:
// constants, ad IDs, session IDs, heuristic-droppable values, and true
// UIDs, 50 browser instances each.
func funnelCorpus() []Observation {
	var all []Observation
	for i := 0; i < 50; i++ {
		inst := fmt.Sprintf("i%d", i)
		all = append(all,
			obs("ver", "version-constant-9", inst, -1, false), // filter i
			obs("cid", fmt.Sprintf("AdClick%dXyZ%dQq", i*7, i), inst, 0, false),
			obs("cid", fmt.Sprintf("AdClick%dXyZ%dQq", i*7+1, i), inst, 1, false),
			obs("sess", fmt.Sprintf("SessionA%dBbCc%d", i, i*3), inst, -1, false),
			obs("sess", fmt.Sprintf("SessionB%dDdEe%d", i, i*5), inst, -1, true),
			obs("ts", strconv.FormatInt(time.Date(2022, 9, 1, 0, 0, 0, 0, time.UTC).Unix()+int64(i), 10), inst, -1, false),
			obs("uid", fmt.Sprintf("Uid%dKq9ZtP%dv8Lw", i*13, i*11), inst, -1, false),
		)
	}
	return all
}

func TestClassifyFunnelShape(t *testing.T) {
	all := funnelCorpus()
	res := Classify(all)
	if res.ByReason[ReasonCrossInstance] != 1 {
		t.Errorf("cross-instance = %d, want 1", res.ByReason[ReasonCrossInstance])
	}
	if res.ByReason[ReasonAdIdentifier] != 100 {
		t.Errorf("ad ids = %d, want 100", res.ByReason[ReasonAdIdentifier])
	}
	if res.ByReason[ReasonSessionID] != 100 {
		t.Errorf("session ids = %d, want 100", res.ByReason[ReasonSessionID])
	}
	if res.ByReason[ReasonHeuristics] != 50 {
		t.Errorf("heuristics = %d, want 50", res.ByReason[ReasonHeuristics])
	}
	if res.ByReason[ReasonUserID] != 50 {
		t.Errorf("user ids = %d, want 50", res.ByReason[ReasonUserID])
	}
	// Funnel property: every token is classified exactly once.
	sum := 0
	for _, n := range res.ByReason {
		sum += n
	}
	if sum != res.TotalTokens {
		t.Fatalf("classification not a partition: %d != %d", sum, res.TotalTokens)
	}
}

// Property: classification is deterministic regardless of observation
// order: every observed value gets the same verdict either way.
func TestClassifyOrderInvariance(t *testing.T) {
	a := []Observation{
		obs("k1", "ValueOne1234567", "i1", -1, false),
		obs("k2", "ValueTwo1234567", "i1", -1, false),
		obs("k1", "ValueOne1234567", "i2", -1, false),
	}
	b := []Observation{a[2], a[0], a[1]}
	ra, rb := Classify(a), Classify(b)
	for _, o := range a {
		if ra.ReasonFor(o.Value) != rb.ReasonFor(o.Value) {
			t.Fatalf("order-dependent classification for %q", o.Value)
		}
	}
}

// TestResultRepeatable asks one accumulator for its Result 20 times:
// values are classified in map order, so the funnel and every per-value
// verdict must not depend on that order. Values the Result never
// classified — never seen, or first observed after the call — have no
// verdict, even when the string was already interned as a key.
func TestResultRepeatable(t *testing.T) {
	all := append(funnelCorpus(),
		obs("pref", "acceptCookies", "i0", -1, false), // manual pass
		obs("LateValueAsKey9x", "Qz8vLp2KxWm4Tn6R", "i0", -1, false))
	acc := NewAccumulator()
	for _, o := range all {
		acc.Observe(o)
	}
	first := acc.Result()
	for _, r := range []Reason{ReasonCrossInstance, ReasonAdIdentifier, ReasonSessionID,
		ReasonHeuristics, ReasonManualPass, ReasonUserID} {
		if first.ByReason[r] == 0 {
			t.Fatalf("corpus exercises no %q verdict: %v", r, first.ByReason)
		}
	}
	for round := 1; round < 20; round++ {
		res := acc.Result()
		if !maps.Equal(res.ByReason, first.ByReason) || res.TotalTokens != first.TotalTokens {
			t.Fatalf("round %d: funnel %d %v, first %d %v",
				round, res.TotalTokens, res.ByReason, first.TotalTokens, first.ByReason)
		}
		for _, o := range all {
			reason, uid := res.ReasonFor(o.Value), res.IsUserID(o.Value)
			if reason == "" || reason != first.ReasonFor(o.Value) || uid != first.IsUserID(o.Value) {
				t.Fatalf("round %d: %q = (%q, %v), first (%q, %v)", round, o.Value,
					reason, uid, first.ReasonFor(o.Value), first.IsUserID(o.Value))
			}
			if uid != (reason == ReasonUserID) {
				t.Fatalf("round %d: %q IsUserID = %v with reason %q", round, o.Value, uid, reason)
			}
		}
	}

	unseen := []string{"NeverObserved7Kq2Zp", "LateValueAsKey9x", "i3"}
	for _, v := range unseen {
		if r, uid := first.ReasonFor(v), first.IsUserID(v); r != "" || uid {
			t.Errorf("unseen value %q = (%q, %v), want (\"\", false)", v, r, uid)
		}
	}
	late := []string{"LateFreshValue5Hw8Rj", "LateValueAsKey9x"}
	for _, v := range late {
		acc.Observe(obs("late", v, "i9", -1, false))
	}
	for _, v := range late {
		if r, uid := first.ReasonFor(v), first.IsUserID(v); r != "" || uid {
			t.Errorf("value %q observed after Result = (%q, %v), want (\"\", false)", v, r, uid)
		}
		if !acc.Result().IsUserID(v) {
			t.Errorf("a fresh Result does not classify late value %q as a user ID", v)
		}
	}
}

// Property: PassesValueHeuristics never accepts values shorter than
// MinIDLength.
func TestHeuristicsLengthProperty(t *testing.T) {
	f := func(s string) bool {
		if len(s) >= MinIDLength {
			return true
		}
		return !PassesValueHeuristics(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestLooksLikePhraseUnicodeWhitespace(t *testing.T) {
	// Non-breaking-space-separated words split like strings.Fields
	// splits them: still a phrase.
	if !LooksLikePhrase("foo bar") {
		t.Fatal("NBSP-separated words must read as a phrase")
	}
	if !LooksLikePhrase("running shoes sale") || !LooksLikePhrase("top 10 deals") {
		t.Fatal("plain phrases must pass")
	}
	for _, v := range []string{"foo©bar baz", "id-12345 x", "single", ""} {
		if LooksLikePhrase(v) {
			t.Fatalf("LooksLikePhrase(%q) = true, want false", v)
		}
	}
}

// TestIsDictionaryWordMatchesToLower holds the stack-buffer lowercasing
// to the strings.ToLower lookup it replaces, on mixed-case, non-ASCII
// and long words.
func TestIsDictionaryWordMatchesToLower(t *testing.T) {
	words := []string{
		"", "a", "A", "paris", "Paris", "PARIS", "pArIs", "Weather",
		"forecast2", "xyzzy", "CAFÉ", "café", "Ünïcode",
		"\u212aEY", // Kelvin sign K: lowercases to the ASCII "key"
		"İstanbul",
		strings.Repeat("Ab", 16),       // 32 bytes: the buffer's length
		strings.Repeat("Ab", 16) + "c", // 33 bytes: over it
		strings.Repeat("theme", 20),
	}
	for _, w := range words {
		_, want := dictionary[strings.ToLower(w)]
		if got := IsDictionaryWord(w); got != want {
			t.Errorf("IsDictionaryWord(%q) = %v, want %v", w, got, want)
		}
	}
	if !IsDictionaryWord("\u212aEY") {
		t.Error(`IsDictionaryWord("\u212aEY") = false; strings.ToLower folds it to "key"`)
	}
}

// TestIsDictionaryWordNoAllocs checks that an ASCII lookup allocates
// nothing, hit or miss.
func TestIsDictionaryWordNoAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		IsDictionaryWord("Weather")
		IsDictionaryWord("XYZZY42")
	})
	if allocs != 0 {
		t.Errorf("ASCII IsDictionaryWord allocated %.0f times per run, want 0", allocs)
	}
}

// TestMergeThenObserveMatchesSequential holds Merge to its contract on
// the classifier fold: shards split by instance merge into the state of
// one accumulator that saw every observation, the merged-from shard's
// Result is unchanged, and observations made on the merge target
// afterwards still give the sequential Result. The late observations
// revisit instances the corpus already closed, so in both folds they
// open fresh contexts: no context is carried across the merge, only
// the values' verdict bits. Warmed shards leave the merged Result no
// heuristic to compute.
func TestMergeThenObserveMatchesSequential(t *testing.T) {
	corpus := funnelCorpus()
	var late []Observation
	for i := 0; i < 50; i++ {
		inst := fmt.Sprintf("i%d", i)
		late = append(late,
			obs("cid", fmt.Sprintf("LateAd%dQq7ZxW", i), inst, 2, false),
			obs("sess", fmt.Sprintf("SessionC%dFfGg%d", i, i*7), inst, -1, false),
			obs("uid", fmt.Sprintf("Uid%dKq9ZtP%dv8Lw", i*13, i*11), inst, -1, true),
		)
	}
	seq := NewAccumulator()
	for _, o := range append(append([]Observation(nil), corpus...), late...) {
		seq.Observe(o)
	}
	want := seq.Result()

	a, b := NewAccumulator(), NewAccumulator()
	for _, o := range corpus {
		n, _ := strconv.Atoi(strings.TrimPrefix(o.Instance, "i"))
		if n%2 == 0 {
			a.Observe(o)
		} else {
			b.Observe(o)
		}
	}
	a.Warm()
	b.Warm()
	bBefore := b.Result()
	a.Merge(b)
	memo := len(a.heur)
	merged := a.Result()
	if len(a.heur) != memo {
		t.Errorf("merged Result ran heuristics for %d values the warm-up left out", len(a.heur)-memo)
	}
	bAfter := b.Result()
	if !maps.Equal(bAfter.ByReason, bBefore.ByReason) || bAfter.TotalTokens != bBefore.TotalTokens {
		t.Fatalf("Merge changed its source: funnel %v, was %v", bAfter.ByReason, bBefore.ByReason)
	}
	for _, o := range corpus {
		if bAfter.ReasonFor(o.Value) != bBefore.ReasonFor(o.Value) {
			t.Fatalf("Merge changed its source's verdict for %q", o.Value)
		}
	}
	if merged.TotalTokens != Classify(corpus).TotalTokens {
		t.Fatalf("merged TotalTokens = %d, want %d", merged.TotalTokens, Classify(corpus).TotalTokens)
	}

	for _, o := range late {
		a.Observe(o)
	}
	got := a.Result()
	if !maps.Equal(got.ByReason, want.ByReason) || got.TotalTokens != want.TotalTokens {
		t.Fatalf("merge then observe: funnel %d %v, sequential %d %v",
			got.TotalTokens, got.ByReason, want.TotalTokens, want.ByReason)
	}
	for _, o := range append(corpus, late...) {
		if got.ReasonFor(o.Value) != want.ReasonFor(o.Value) {
			t.Fatalf("merge then observe: %q = %q, sequential %q", o.Value, got.ReasonFor(o.Value), want.ReasonFor(o.Value))
		}
	}
}

// refClassify is the retained-context classifier the accumulator
// replaced, kept as its oracle: it holds every (instance, key) ad
// context and every (instance, key, host, source) session context until
// the stream ends, and only then runs filters (ii) and (iii). It
// returns each value's verdict under the default pipeline.
func refClassify(obs []Observation) map[string]Reason {
	type adCtx struct {
		idx  map[int]bool
		vals map[string]bool
	}
	type sessCtx struct{ base, revisit map[string]bool }
	type sessKey struct {
		inst, key, host string
		src             Source
	}
	insts := map[string]map[string]bool{}
	ads := map[[2]string]*adCtx{}
	sess := map[sessKey]*sessCtx{}
	for _, o := range obs {
		if o.Value == "" {
			continue
		}
		if insts[o.Value] == nil {
			insts[o.Value] = map[string]bool{}
		}
		insts[o.Value][o.Instance] = true
		if o.AdIndex >= 0 {
			k := [2]string{o.Instance, o.Key}
			if ads[k] == nil {
				ads[k] = &adCtx{idx: map[int]bool{}, vals: map[string]bool{}}
			}
			ads[k].idx[o.AdIndex] = true
			ads[k].vals[o.Value] = true
		}
		sk := sessKey{o.Instance, o.Key, o.Host, o.Source}
		if sess[sk] == nil {
			sess[sk] = &sessCtx{base: map[string]bool{}, revisit: map[string]bool{}}
		}
		if o.Revisit {
			sess[sk].revisit[o.Value] = true
		} else {
			sess[sk].base[o.Value] = true
		}
	}
	adVals, sessVals := map[string]bool{}, map[string]bool{}
	for _, c := range ads {
		if len(c.idx) > 1 && len(c.vals) > 1 {
			for v := range c.vals {
				adVals[v] = true
			}
		}
	}
	for _, c := range sess {
		if len(c.base) == 0 || len(c.revisit) == 0 {
			continue
		}
		changed := false
		for v := range c.base {
			changed = changed || !c.revisit[v]
		}
		if changed {
			for v := range c.base {
				sessVals[v] = true
			}
			for v := range c.revisit {
				sessVals[v] = true
			}
		}
	}
	out := make(map[string]Reason, len(insts))
	for v, in := range insts {
		switch {
		case len(in) > 1:
			out[v] = ReasonCrossInstance
		case adVals[v]:
			out[v] = ReasonAdIdentifier
		case sessVals[v]:
			out[v] = ReasonSessionID
		case len(v) < MinIDLength || LooksLikeTimestamp(v) || LooksLikeURL(v) ||
			IsEnglishWords(v) || LooksLikePhrase(v):
			out[v] = ReasonHeuristics
		case LooksLikeCoordinates(v) || LooksLikeAcronym(v) || isWordCombination(v):
			out[v] = ReasonManualPass
		default:
			out[v] = ReasonUserID
		}
	}
	return out
}

// fuzzValues is fuzzStream's pool of values shared by all instances:
// identifier-like values, one value each that the heuristics and the
// manual pass drop, and the empty value Observe skips.
var fuzzValues = []string{
	"Qz8vLp2KxWm4Tn6R", "Hb7cNq3JsYe9Ud1F", "Wk5rMg8PaZt2Xv4C",
	"1663243200", "acceptCookies", "",
}

// fuzzStream decodes data into an observation stream, four bytes per
// observation, in which one instance's observations are contiguous:
// byte 0 starts the next instance when below 32; byte 1 picks the key
// (4), host (2) and source (2); byte 2 the value, odd for one of eight
// values local to the instance and even for the shared pool; byte 3
// the ad index (0 to 3, and -1 for 4 to 7) and, in its top bit, the
// revisit.
func fuzzStream(data []byte) []Observation {
	sources := []Source{SourceCookie, SourceQueryParam}
	var out []Observation
	inst := 0
	for i := 0; i+4 <= len(data); i += 4 {
		b := data[i : i+4]
		if b[0] < 32 && i > 0 {
			inst++
		}
		val := fuzzValues[int(b[2]/2)%len(fuzzValues)]
		if b[2]%2 == 1 {
			val = fmt.Sprintf("Zq%02dTk%dvW8pLm", inst, b[2]/2%8)
		}
		ad := int(b[3] & 7)
		if ad > 3 {
			ad = -1
		}
		out = append(out, Observation{
			Key:      fmt.Sprintf("k%d", b[1]%4),
			Host:     fmt.Sprintf("h%d.example", b[1]/4%2),
			Source:   sources[int(b[1]/8)%len(sources)],
			Value:    val,
			Instance: fmt.Sprintf("inst%03d", inst),
			AdIndex:  ad,
			Revisit:  b[3]&0x80 != 0,
		})
	}
	return out
}

// fuzzObs encodes one fuzzStream observation: next starts a new
// instance, val is the value byte, ad the ad index (-1 for none).
func fuzzObs(next bool, key, val byte, ad int, revisit bool) []byte {
	b := []byte{255, key, val, byte(ad)}
	if ad < 0 {
		b[3] = 4
	}
	if next {
		b[0] = 0
	}
	if revisit {
		b[3] |= 0x80
	}
	return b
}

// fuzzSeed is a reproducible pseudo-random stream of n observations.
func fuzzSeed(seed uint64, n int) []byte {
	r := rand.New(rand.NewPCG(seed, 0))
	data := make([]byte, 4*n)
	for i := range data {
		data[i] = byte(r.Uint32())
	}
	return data
}

// FuzzClassifyMatchesReference holds the classifier, which resolves each
// instance's ad and session contexts when the instance's observations
// end, to the retained-context oracle (refClassify) on streams with
// contiguous instances. Every value's verdict must match the oracle's in
// a direct fold, in Classify of the stream shuffled, and in two shards
// split at random by instance, warmed and then merged; the merged
// Result must run no heuristics the warm-up left out.
func FuzzClassifyMatchesReference(f *testing.F) {
	// One instance: local values 0 and 1 differ across ads 0 and 1 on
	// key 0 (ad identifiers), local value 2 changes to 3 on key 1's
	// revisit (session identifiers), and value 4 stays on key 2's
	// revisit. Every context is still open when Result runs.
	one := slices.Concat(
		fuzzObs(false, 0, 1, 0, false), fuzzObs(false, 0, 3, 1, false),
		fuzzObs(false, 1, 5, -1, false), fuzzObs(false, 1, 7, -1, true),
		fuzzObs(false, 2, 9, -1, false), fuzzObs(false, 2, 9, -1, true),
	)
	f.Add(one)
	// Three such instances, each also holding pool value 0 on key 3 (a
	// cross-instance constant): the first two are closed when Result
	// runs, the third is open.
	three := slices.Concat(one, fuzzObs(false, 3, 0, -1, false))
	for range 2 {
		three = slices.Concat(three, fuzzObs(true, 3, 0, -1, false), one)
	}
	f.Add(three)
	for seed := range uint64(4) {
		f.Add(fuzzSeed(seed, 150))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		obs := fuzzStream(data)
		want := refClassify(obs)
		check := func(path string, res *Result) {
			t.Helper()
			if res.TotalTokens != len(want) {
				t.Fatalf("%s: TotalTokens = %d, oracle %d", path, res.TotalTokens, len(want))
			}
			counts := map[Reason]int{}
			for v, r := range want {
				counts[r]++
				if got := res.ReasonFor(v); got != r {
					t.Fatalf("%s: %q = %q, oracle %q", path, v, got, r)
				}
				if res.IsUserID(v) != (r == ReasonUserID) {
					t.Fatalf("%s: IsUserID(%q) = %v with reason %q", path, v, res.IsUserID(v), r)
				}
			}
			if !maps.Equal(res.ByReason, counts) {
				t.Fatalf("%s: funnel %v, oracle %v", path, res.ByReason, counts)
			}
		}

		direct := NewAccumulator()
		for _, o := range obs {
			direct.Observe(o)
		}
		check("direct fold", direct.Result())

		h := fnv.New64a()
		h.Write(data)
		r := rand.New(rand.NewPCG(h.Sum64(), uint64(len(data))))
		shuffled := slices.Clone(obs)
		r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		check("shuffled Classify", Classify(shuffled))

		inB := map[string]bool{}
		a, b := NewAccumulator(), NewAccumulator()
		for _, o := range obs {
			in, ok := inB[o.Instance]
			if !ok {
				in = r.IntN(2) == 1
				inB[o.Instance] = in
			}
			if in {
				b.Observe(o)
			} else {
				a.Observe(o)
			}
		}
		a.Warm()
		b.Warm()
		a.Merge(b)
		memo := len(a.heur)
		check("warmed shards merged", a.Result())
		if len(a.heur) != memo {
			t.Fatalf("merged Result ran heuristics for %d values the warm-up left out", len(a.heur)-memo)
		}
	})
}
