package filterlist

import (
	"regexp"
	"strings"
	"sync"
)

// compiledOracle is one pattern's oracle regexp, or the error its
// translation failed with.
type compiledOracle struct {
	re  *regexp.Regexp
	err error
}

// oracles caches compiledOracle values by pattern text, so each pattern
// is compiled once however many rules, requests and tests use it.
var oracles sync.Map

// matchesOracle evaluates the rule through the seed implementation's
// regexp translation instead of the hand-rolled matcher: the reference
// the differential tests hold Rule.Matches to. A pattern whose regexp
// fails to compile matches nothing.
func (r *Rule) matchesOracle(req RequestInfo) bool {
	if !r.optionsMatch(&req, req.Type.Bit()) {
		return false
	}
	v, ok := oracles.Load(r.patSrc)
	if !ok {
		re, err := oracleRegex(r.patSrc)
		v, _ = oracles.LoadOrStore(r.patSrc, compiledOracle{re, err})
	}
	o := v.(compiledOracle)
	if o.err != nil {
		return false
	}
	return o.re.MatchString(req.URL)
}

// oracleRegex translates the ABP pattern into the regexp the seed engine
// compiled eagerly for every rule.
func oracleRegex(pat string) (*regexp.Regexp, error) {
	var b strings.Builder
	b.WriteString("(?i)")
	rest := pat
	switch {
	case strings.HasPrefix(pat, "||"):
		rest = pat[2:]
		// After the scheme, optionally any subdomain chain.
		b.WriteString(`^[a-z][a-z0-9+.-]*://(?:[^/?#]*\.)?`)
	case strings.HasPrefix(pat, "|"):
		rest = pat[1:]
		b.WriteString("^")
	}
	endAnchor := false
	if strings.HasSuffix(rest, "|") && !strings.HasSuffix(rest, "||") {
		endAnchor = true
		rest = rest[:len(rest)-1]
	}
	for _, c := range rest {
		switch c {
		case '*':
			b.WriteString(".*")
		case '^':
			b.WriteString(`(?:[^a-zA-Z0-9_.%-]|$)`)
		default:
			b.WriteString(regexp.QuoteMeta(string(c)))
		}
	}
	if endAnchor {
		b.WriteString("$")
	}
	return regexp.Compile(b.String())
}
