package filterlist

import "strings"

// anchorKind says how a pattern binds to the start of the URL.
type anchorKind uint8

const (
	// anchorNone is a plain substring pattern: it may match at any offset.
	anchorNone anchorKind = iota
	// anchorStart is a |pattern: it must match at offset 0.
	anchorStart
	// anchorDomain is a ||pattern: it must match immediately after the
	// scheme's "://" or after a later '.' inside the host (a subdomain
	// boundary).
	anchorDomain
)

// pattern is a compiled ABP pattern: ASCII-lowercased literal segments
// separated by '*' wildcards, plus anchoring. Inside a segment the byte
// '^' is the ABP separator class — it matches any byte outside
// [a-zA-Z0-9_.%-], or, zero-width, the end of the URL.
//
// match operates directly on the raw URL bytes with per-byte ASCII
// case-folding and performs no allocation; it is the hot-path
// replacement for the compiled regexp the seed engine evaluated per
// rule.
type pattern struct {
	segs      []string
	anchor    anchorKind
	endAnchor bool
}

// compilePattern parses the ABP pattern text (anchors, '*', '^') into
// its segment form. It mirrors exactly the translation the tests'
// oracleRegex performs into a regexp.
func compilePattern(pat string) pattern {
	rest := pat
	anchor := anchorNone
	switch {
	case strings.HasPrefix(pat, "||"):
		rest = pat[2:]
		anchor = anchorDomain
	case strings.HasPrefix(pat, "|"):
		rest = pat[1:]
		anchor = anchorStart
	}
	endAnchor := false
	if strings.HasSuffix(rest, "|") && !strings.HasSuffix(rest, "||") {
		endAnchor = true
		rest = rest[:len(rest)-1]
	}
	return pattern{segs: strings.Split(lowerASCII(rest), "*"), anchor: anchor, endAnchor: endAnchor}
}

// match reports whether the pattern matches the URL.
func (p *pattern) match(url string) bool {
	switch p.anchor {
	case anchorStart:
		return p.matchAt(url, 0)
	case anchorDomain:
		return p.matchDomainAnchored(url)
	default:
		// Substring pattern: try every start offset. The token index
		// means this runs for a handful of candidate rules per request,
		// and each offset fails on the first byte almost always.
		for i := 0; i <= len(url); i++ {
			if p.matchAt(url, i) {
				return true
			}
		}
		return false
	}
}

// matchAt matches the full segment list with the first segment anchored
// exactly at pos.
func (p *pattern) matchAt(url string, pos int) bool {
	end, ok := matchSeg(url, pos, p.segs[0])
	if !ok {
		return false
	}
	return matchTail(url, end, p.segs[1:], p.endAnchor)
}

// matchTail matches the remaining segments, each free to float rightward
// (they were preceded by a '*' wildcard).
func matchTail(url string, pos int, segs []string, endAnchor bool) bool {
	if len(segs) == 0 {
		return !endAnchor || pos == len(url)
	}
	for i := pos; i <= len(url); i++ {
		if end, ok := matchSeg(url, i, segs[0]); ok {
			if matchTail(url, end, segs[1:], endAnchor) {
				return true
			}
			// Keep scanning: a later occurrence may let the rest of the
			// pattern (or the end anchor) succeed.
		}
	}
	return false
}

// matchSeg matches one literal segment at url[pos:]. '^' bytes match the
// ABP separator class; every other byte matches ASCII-case-insensitively.
// The match is deterministic: '^' is zero-width only at the end of the
// URL, where no consuming alternative exists.
func matchSeg(url string, pos int, seg string) (int, bool) {
	for i := 0; i < len(seg); i++ {
		c := seg[i]
		if c == '^' {
			if pos == len(url) {
				continue // '^' matches the end of the URL, zero-width
			}
			if !isSeparator(url[pos]) {
				return 0, false
			}
			pos++
			continue
		}
		if pos >= len(url) || lowerByte(url[pos]) != c {
			return 0, false
		}
		pos++
	}
	return pos, true
}

// matchDomainAnchored implements the '||' anchor. Candidate start
// positions are the byte after "scheme://" and the byte after any '.'
// that occurs before the first '/', '?' or '#' — exactly the positions
// the oracle prefix ^[a-z][a-z0-9+.-]*://(?:[^/?#]*\.)? admits.
func (p *pattern) matchDomainAnchored(url string) bool {
	start := schemeEnd(url)
	if start < 0 {
		return false
	}
	if p.matchAt(url, start) {
		return true
	}
	for i := start; i < len(url); i++ {
		switch url[i] {
		case '/', '?', '#':
			return false
		case '.':
			if p.matchAt(url, i+1) {
				return true
			}
		}
	}
	return false
}

// schemeEnd validates the URL scheme ([a-z][a-z0-9+.-]*, ASCII
// case-insensitive) and returns the index just past "://", or -1. The
// scheme class cannot contain ':', so maximal munch is unambiguous.
func schemeEnd(url string) int {
	if len(url) == 0 || !isAlpha(url[0]) {
		return -1
	}
	i := 1
	for i < len(url) && isSchemeByte(url[i]) {
		i++
	}
	if i+3 <= len(url) && url[i] == ':' && url[i+1] == '/' && url[i+2] == '/' {
		return i + 3
	}
	return -1
}

// isSeparator implements the ABP '^' class: any byte that is not a
// letter, digit, or one of '_', '.', '%', '-'.
func isSeparator(b byte) bool {
	if isAlnum(b) {
		return false
	}
	switch b {
	case '_', '.', '%', '-':
		return false
	}
	return true
}

func isAlpha(b byte) bool {
	return b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z'
}

func isAlnum(b byte) bool {
	return isAlpha(b) || b >= '0' && b <= '9'
}

func isSchemeByte(b byte) bool {
	switch b {
	case '+', '.', '-':
		return true
	}
	return isAlnum(b)
}

func lowerByte(b byte) byte {
	if b >= 'A' && b <= 'Z' {
		return b + 'a' - 'A'
	}
	return b
}

// lowerASCII lowercases A-Z only, leaving every other byte untouched, so
// compiled segments compare byte-for-byte against lowerByte-folded URLs.
func lowerASCII(s string) string {
	hasUpper := false
	for i := 0; i < len(s); i++ {
		if s[i] >= 'A' && s[i] <= 'Z' {
			hasUpper = true
			break
		}
	}
	if !hasUpper {
		return s
	}
	b := []byte(s)
	for i, c := range b {
		b[i] = lowerByte(c)
	}
	return string(b)
}
