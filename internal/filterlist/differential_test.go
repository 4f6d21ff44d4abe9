package filterlist

import (
	"fmt"
	"strings"
	"testing"

	"searchads/internal/detrand"
	"searchads/internal/netsim"
)

var corpusTypes = []netsim.ResourceType{
	netsim.TypeDocument, netsim.TypeScript, netsim.TypeImage,
	netsim.TypeXHR, netsim.TypePing, netsim.TypeStylesheet,
}

// differentialCorpus builds a request corpus that exercises every rule
// of the engine: its anchor domains at subdomain, bare, port, and
// lookalike positions, its generic paths, and clean traffic.
func differentialCorpus(e *Engine) []RequestInfo {
	var urls []string
	seen := map[string]bool{}
	for _, r := range e.Rules() {
		d := r.AnchorDomain()
		if d == "" || seen[d] {
			continue
		}
		seen[d] = true
		urls = append(urls,
			"https://"+d+"/",
			"https://"+d,
			"https://sub."+d+"/unit.js?x=1",
			"HTTPS://AD."+strings.ToUpper(d)+"/PX",
			"http://"+d+":8080/path",
			"https://"+d+".evil.example/",
			"https://not"+d+"/",
			"https://clean.example/?u="+d,
		)
	}
	for _, path := range []string{
		"/adframe/unit", "/adserver/x", "/pagead/ads?slot=1", "/x?q=1&ad_slot=3",
		"/banners/12", "/collect?v=1", "/beacon/7", "/pixel?id=9", "/track?e=c",
		"/telemetry/boot", "/app.js", "/index.html", "/pixelate?id=1", "/collection",
	} {
		urls = append(urls,
			"https://anything.example"+path,
			"https://metric-analytics.example"+path,
		)
	}
	var reqs []RequestInfo
	parties := []string{"a.example", "shop-checkout.example", "optout-demo.example", "selfservice-ads.example"}
	for i, u := range urls {
		reqs = append(reqs, RequestInfo{
			URL:        u,
			Type:       corpusTypes[i%len(corpusTypes)],
			FirstParty: parties[i%len(parties)],
			ThirdParty: i%3 != 0,
		})
	}
	return reqs
}

// TestDifferentialEmbeddedLists proves the hand-rolled matcher agrees
// with the regex oracle rule-for-rule over the full embedded lists.
func TestDifferentialEmbeddedLists(t *testing.T) {
	e := DefaultEngine()
	reqs := differentialCorpus(e)
	rules := e.Rules()
	comparisons := 0
	for _, r := range rules {
		for _, req := range reqs {
			got, want := r.Matches(req), r.matchesOracle(req)
			if got != want {
				t.Errorf("rule %q vs %q (type=%s 3p=%v): matcher=%v oracle=%v",
					r.Raw, req.URL, req.Type, req.ThirdParty, got, want)
			}
			comparisons++
		}
	}
	t.Logf("%d rules x %d requests = %d verdicts compared", len(rules), len(reqs), comparisons)
}

// TestDifferentialEngineVerdicts proves the token-indexed engine's
// blocked verdict equals a seed-style linear scan of every rule through
// the oracle, request-for-request.
func TestDifferentialEngineVerdicts(t *testing.T) {
	e := DefaultEngine()
	rules := e.Rules()
	oracleBlocked := func(req RequestInfo) bool {
		matched := false
		for _, r := range rules {
			if !r.Exception && r.matchesOracle(req) {
				matched = true
				break
			}
		}
		if !matched {
			return false
		}
		for _, r := range rules {
			if r.Exception && r.matchesOracle(req) {
				return false
			}
		}
		return true
	}
	for _, req := range differentialCorpus(e) {
		if got, want := e.IsTracker(req), oracleBlocked(req); got != want {
			t.Errorf("engine verdict for %q (type=%s 3p=%v): index=%v oracle=%v",
				req.URL, req.Type, req.ThirdParty, got, want)
		}
	}
}

// patternAlphabet mixes token bytes, separators, anchors-in-body, ABP
// specials, and case so generated patterns cover tokenizer edges.
const patternAlphabet = "abcdeXY019-._%&=/?:^*"

// TestPropertyRandomPatternsAgainstOracle generates random ABP patterns
// and URLs with detrand and asserts the tokenized matcher and the regex
// oracle return identical verdicts — including URLs built to embed the
// pattern's literal bytes, so positive matches are well represented.
func TestPropertyRandomPatternsAgainstOracle(t *testing.T) {
	src := detrand.New(20260728)
	patterns := 0
	for i := 0; i < 400; i++ {
		g := src.DeriveN("pattern", i).Rand()
		rng := &g
		pat := randomPattern(rng)
		r, err := ParseRule(pat)
		if err != nil {
			continue
		}
		patterns++
		for j := 0; j < 40; j++ {
			ug := src.DeriveN(fmt.Sprintf("url-%d", i), j).Rand()
			urlRng := &ug
			u := randomURL(urlRng, pat)
			req := RequestInfo{URL: u, Type: netsim.TypeScript, FirstParty: "a.example", ThirdParty: true}
			if got, want := r.Matches(req), r.matchesOracle(req); got != want {
				t.Fatalf("pattern %q vs url %q: matcher=%v oracle=%v", pat, u, got, want)
			}
		}
	}
	if patterns < 200 {
		t.Fatalf("only %d parseable patterns generated", patterns)
	}
}

func randomPattern(rng detrand.Rng) string {
	var b strings.Builder
	switch rng.Intn(4) {
	case 0:
		b.WriteString("||")
	case 1:
		b.WriteString("|")
	}
	n := 1 + rng.Intn(12)
	for i := 0; i < n; i++ {
		b.WriteByte(patternAlphabet[rng.Intn(len(patternAlphabet))])
	}
	if rng.Intn(4) == 0 {
		b.WriteString("|")
	}
	return b.String()
}

// randomURL builds a URL that, half the time, embeds a mutation of the
// pattern body ('*' expanded to junk, '^' replaced by a separator) so
// the comparison sees true matches, near-misses, and clean URLs alike.
func randomURL(rng detrand.Rng, pat string) string {
	hosts := []string{"ads.example", "x.test", "sub.tracker.example", "abcde019.example"}
	paths := []string{"/", "/abc/de?x=1", "/xy-01._%/e", "/abcdeXY019", ""}
	u := "https://" + hosts[rng.Intn(len(hosts))] + paths[rng.Intn(len(paths))]
	if rng.Intn(2) == 0 {
		body := strings.TrimSuffix(strings.TrimPrefix(strings.TrimPrefix(pat, "||"), "|"), "|")
		var m strings.Builder
		for i := 0; i < len(body); i++ {
			switch body[i] {
			case '*':
				m.WriteString([]string{"", "zz", "/q8"}[rng.Intn(3)])
			case '^':
				m.WriteByte("/?:&="[rng.Intn(5)])
			default:
				m.WriteByte(body[i])
			}
		}
		switch rng.Intn(3) {
		case 0:
			u = "https://h.example/" + m.String()
		case 1:
			u = "https://" + m.String()
		default:
			u += m.String()
		}
	}
	return u
}

// TestOracleMatchesSeedRegexTranslation pins the oracle's regex text
// generation against hand-derived expectations, so the oracle itself
// cannot silently drift from the seed semantics the differential tests
// anchor on.
func TestOracleMatchesSeedRegexTranslation(t *testing.T) {
	r, err := ParseRule("||doubleclick.net^")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		url  string
		want bool
	}{
		{"https://doubleclick.net/", true},
		{"https://ad.doubleclick.net/ddm/clk?x=1", true},
		{"https://doubleclick.net.evil.com/", false},
		{"https://example.com/?u=doubleclick.net", false},
		{"ftp://doubleclick.net/", true},
		{"doubleclick.net/", false}, // no scheme: the || prefix requires one
	} {
		req := RequestInfo{URL: c.url, Type: netsim.TypeScript, FirstParty: "a.com", ThirdParty: true}
		if got := r.matchesOracle(req); got != c.want {
			t.Errorf("oracle(%q) = %v, want %v", c.url, got, c.want)
		}
		if got := r.Matches(req); got != c.want {
			t.Errorf("matcher(%q) = %v, want %v", c.url, got, c.want)
		}
	}
}
