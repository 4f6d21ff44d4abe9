// Package urlx provides URL utilities used throughout the measurement
// pipeline: registrable-domain (eTLD+1) extraction, origin computation,
// query-parameter manipulation, and URL decoration helpers.
//
// The paper reasons about "sites" at the eTLD+1 granularity (§4.2.2,
// "Number of sites visited"). Because the module must build offline, the
// public-suffix data is an embedded subset sufficient for the simulated web
// plus the common real-world suffixes that appear in the paper's tables
// (e.g. .com, .net, .de, .co.uk).
package urlx

import (
	"fmt"
	"net/url"
	"sort"
	"strings"
	"sync/atomic"
)

// publicSuffixes is an embedded subset of the public-suffix list. Keys are
// suffixes without a leading dot; values are the number of labels in the
// suffix. Multi-label suffixes (co.uk) must be listed explicitly.
var publicSuffixes = map[string]int{
	"com": 1, "net": 1, "org": 1, "io": 1, "dev": 1, "app": 1,
	"de": 1, "fr": 1, "eu": 1, "ai": 1, "co": 1, "info": 1, "biz": 1,
	"gov": 1, "edu": 1, "example": 1, "test": 1, "localhost": 1, "search": 1,
	"co.uk": 2, "org.uk": 2, "gov.uk": 2, "ac.uk": 2,
	"com.au": 2, "net.au": 2, "co.jp": 2, "com.br": 2,
}

// IsPublicSuffix reports whether host is exactly a public suffix (e.g.
// "com", "co.uk"). Browsers refuse Domain cookie attributes naming a bare
// public suffix.
func IsPublicSuffix(host string) bool {
	h := strings.ToLower(Hostname(host))
	n, ok := publicSuffixes[h]
	return ok && n == strings.Count(h, ".")+1
}

// rdSlots is the size of the RegistrableDomain memo: a power of two
// comfortably above the ~1k distinct hosts one study resolves, so
// slot collisions stay rare.
const rdSlots = 4096

// rdEntry is one immutable memo entry. A slot is overwritten by
// storing a new entry, never by mutating one, so a reader that loads
// a pointer sees a consistent host/site pair.
type rdEntry struct {
	host string
	site string
}

// rdMemo is a direct-mapped, lock-free memo for RegistrableDomain.
// A crawl resolves the same few hundred hosts millions of times (every
// request record, every cookie, every filter match) from every crawl
// worker at once, so the suffix walk below — ToLower, Split, Join — is
// worth caching and the cache must not serialise its readers. Each host
// owns one slot: a hit is one atomic load and one string compare, a
// miss recomputes and overwrites the slot. The fixed table bounds the
// memo however many distinct hosts a hostile stream presents.
var rdMemo [rdSlots]atomic.Pointer[rdEntry]

// rdSlot returns host's memo slot index (FNV-1a, masked).
func rdSlot(host string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(host); i++ {
		h = (h ^ uint32(host[i])) * 16777619
	}
	return h & (rdSlots - 1)
}

// RegistrableDomain returns the eTLD+1 for host: the public suffix plus one
// label. If host is itself a public suffix, an IP literal, or empty, the
// host is returned unchanged (lowercased, without port). Results are
// memoised in a fixed-size, lock-free direct-mapped table: the lookup
// is on the request hot path of every crawl worker.
func RegistrableDomain(host string) string {
	if host == "" {
		return ""
	}
	slot := &rdMemo[rdSlot(host)]
	if e := slot.Load(); e != nil && e.host == host {
		return e.site
	}
	site := registrableDomain(host)
	slot.Store(&rdEntry{host: host, site: site})
	return site
}

func registrableDomain(host string) string {
	h := strings.ToLower(Hostname(host))
	if h == "" {
		return ""
	}
	if isIPLiteral(h) {
		return h
	}
	labels := strings.Split(h, ".")
	// Find the longest matching public suffix.
	for i := 0; i < len(labels); i++ {
		suffix := strings.Join(labels[i:], ".")
		if n, ok := publicSuffixes[suffix]; ok && n == len(labels)-i {
			if i == 0 {
				return h // host is itself a suffix
			}
			return strings.Join(labels[i-1:], ".")
		}
	}
	// Unknown TLD: treat the last two labels as the registrable domain.
	if len(labels) >= 2 {
		return strings.Join(labels[len(labels)-2:], ".")
	}
	return h
}

// Hostname strips an optional :port from a host string.
func Hostname(host string) string {
	if i := strings.LastIndexByte(host, ':'); i >= 0 && !strings.Contains(host, "]") {
		// Only strip when the tail looks like a port.
		port := host[i+1:]
		if port != "" && isDigits(port) {
			return host[:i]
		}
	}
	return host
}

func isDigits(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return len(s) > 0
}

func isIPLiteral(h string) bool {
	if strings.Contains(h, ":") { // IPv6
		return true
	}
	parts := strings.Split(h, ".")
	if len(parts) != 4 {
		return false
	}
	for _, p := range parts {
		if !isDigits(p) || len(p) > 3 {
			return false
		}
	}
	return true
}

// SameSite reports whether two hosts belong to the same eTLD+1.
func SameSite(a, b string) bool {
	return RegistrableDomain(a) != "" && RegistrableDomain(a) == RegistrableDomain(b)
}

// Origin is a (scheme, host) pair identifying a security origin. Ports are
// not modelled: the simulated web runs everything on the default port.
type Origin struct {
	Scheme string
	Host   string
}

// OriginOf extracts the origin of a parsed URL.
func OriginOf(u *url.URL) Origin {
	return Origin{Scheme: u.Scheme, Host: strings.ToLower(u.Host)}
}

// String renders the origin in scheme://host form.
func (o Origin) String() string { return o.Scheme + "://" + o.Host }

// Site returns the origin's eTLD+1.
func (o Origin) Site() string { return RegistrableDomain(o.Host) }

// MustParse parses a raw URL and panics on failure. It is intended for
// compile-time-constant URLs inside the simulator.
func MustParse(raw string) *url.URL {
	u, err := url.Parse(raw)
	if err != nil {
		panic(fmt.Sprintf("urlx: bad constant URL %q: %v", raw, err))
	}
	return u
}

// WithParam returns a copy of u with the query parameter key set to value.
// The original URL is not modified. When the key is not already present
// the pair is appended to the raw query without re-encoding it (the
// request hot path decorates URLs with fresh tracking parameters far more
// often than it overwrites existing ones).
func WithParam(u *url.URL, key, value string) *url.URL {
	cp := *u
	if _, present := Param(u, key); !present {
		var b strings.Builder
		b.Grow(len(cp.RawQuery) + 1 + len(key) + 1 + len(value))
		b.WriteString(cp.RawQuery)
		if cp.RawQuery != "" {
			b.WriteByte('&')
		}
		appendQueryEscape(&b, key)
		b.WriteByte('=')
		appendQueryEscape(&b, value)
		cp.RawQuery = b.String()
		return &cp
	}
	q := cp.Query()
	q.Set(key, value)
	cp.RawQuery = q.Encode()
	return &cp
}

// WithParams returns a copy of u with every key/value pair of params set
// (in sorted key order, so the result is deterministic).
func WithParams(u *url.URL, params map[string]string) *url.URL {
	keys := make([]string, 0, len(params))
	for k := range params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	kv := make([]string, 0, 2*len(keys))
	for _, k := range keys {
		kv = append(kv, k, params[k])
	}
	cp := *u
	cp.RawQuery = setParams(u, kv)
	return &cp
}

// Decorate returns the string form of u with the query parameters kv
// (key1, value1, key2, value2, ...) set in order: byte-identical to
// folding WithParam over the pairs and calling String on the result,
// without a URL copy per pair. It panics on an odd number of pairs.
func Decorate(u *url.URL, kv ...string) string {
	cp := *u
	cp.RawQuery = setParams(u, kv)
	return cp.String()
}

// setParams returns u's raw query with the pairs kv set in order, as
// folding WithParam over them would. When no key is already present —
// in u's query or earlier in kv — every pair takes WithParam's append
// path, so the escaped pairs are appended in one pass; otherwise the
// replace-if-present fold runs as written.
func setParams(u *url.URL, kv []string) string {
	if len(kv)%2 != 0 {
		panic("urlx: parameter pairs must be even")
	}
	if len(kv) == 0 {
		return u.RawQuery
	}
	n := len(u.RawQuery)
	for i := 0; i < len(kv); i += 2 {
		if _, present := Param(u, kv[i]); present || keyIn(kv[:i], kv[i]) {
			cp := u
			for j := 0; j < len(kv); j += 2 {
				cp = WithParam(cp, kv[j], kv[j+1])
			}
			return cp.RawQuery
		}
		n += 1 + QueryEscapeLen(kv[i]) + 1 + QueryEscapeLen(kv[i+1])
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(u.RawQuery)
	for i := 0; i < len(kv); i += 2 {
		if b.Len() > 0 {
			b.WriteByte('&')
		}
		AppendQuery(&b, kv[i], kv[i+1])
	}
	return b.String()
}

// keyIn reports whether key is one of the keys of the pairs kv.
func keyIn(kv []string, key string) bool {
	for i := 0; i < len(kv); i += 2 {
		if kv[i] == key {
			return true
		}
	}
	return false
}

// Param returns the first value of the named query parameter and whether
// it was present. It scans RawQuery directly instead of materialising a
// url.Values map — this sits on the simulated-server hot path (every
// bounce reads its next-hop parameter, every SERP its query) — and
// allocates only when the matched value is actually escaped.
func Param(u *url.URL, key string) (string, bool) {
	q := u.RawQuery
	for q != "" {
		var pair string
		if i := strings.IndexByte(q, '&'); i >= 0 {
			pair, q = q[:i], q[i+1:]
		} else {
			pair, q = q, ""
		}
		if pair == "" || strings.IndexByte(pair, ';') >= 0 {
			continue // net/url rejects ';' pairs; mirror that
		}
		k, v := pair, ""
		if i := strings.IndexByte(pair, '='); i >= 0 {
			k, v = pair[:i], pair[i+1:]
		}
		if !queryEq(k, key) {
			continue
		}
		if !strings.ContainsAny(v, "%+") {
			return v, true
		}
		dec, err := url.QueryUnescape(v)
		if err != nil {
			continue // invalid escape: net/url drops the pair
		}
		return dec, true
	}
	return "", false
}

// queryEq reports whether the raw (possibly escaped) query key k decodes
// to key, without allocating in the common unescaped case.
func queryEq(k, key string) bool {
	if k == key {
		return true
	}
	if !strings.ContainsAny(k, "%+") {
		return false
	}
	dec, err := url.QueryUnescape(k)
	return err == nil && dec == key
}

const upperhex = "0123456789ABCDEF"

// queryByteSafe reports whether b needs no escaping in a query component,
// matching url.QueryEscape's character class.
func queryByteSafe(b byte) bool {
	switch {
	case b >= 'a' && b <= 'z', b >= 'A' && b <= 'Z', b >= '0' && b <= '9':
		return true
	case b == '-' || b == '_' || b == '.' || b == '~':
		return true
	}
	return false
}

// QueryEscapeLen returns len(url.QueryEscape(s)) without building it.
func QueryEscapeLen[S ~string | ~[]byte](s S) int {
	n := len(s)
	for i := 0; i < len(s); i++ {
		if c := s[i]; !queryByteSafe(c) && c != ' ' {
			n += 2
		}
	}
	return n
}

// AppendQueryEscape appends url.QueryEscape(s) to dst. s may be a byte
// slice, so a nested redirect URL can escape the level below it
// straight out of a reused buffer.
func AppendQueryEscape[S ~string | ~[]byte](dst []byte, s S) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case queryByteSafe(c):
			dst = append(dst, c)
		case c == ' ':
			dst = append(dst, '+')
		default:
			dst = append(dst, '%', upperhex[c>>4], upperhex[c&0xf])
		}
	}
	return dst
}

// appendQueryEscape writes url.QueryEscape(s) into b without the
// intermediate string, escaping through a stack buffer a chunk at a
// time.
func appendQueryEscape(b *strings.Builder, s string) {
	var buf [192]byte
	for len(s) > 0 {
		n := min(len(s), len(buf)/3)
		b.Write(AppendQueryEscape(buf[:0], s[:n]))
		s = s[n:]
	}
}

// AppendQuery writes "key=value" (query-escaped) into b; it is the
// zero-intermediate-allocation building block the hot URL constructors
// (engine search URLs, redirect chains) use instead of url.Values.Encode.
func AppendQuery(b *strings.Builder, key, value string) {
	appendQueryEscape(b, key)
	b.WriteByte('=')
	appendQueryEscape(b, value)
}

// EncodeQuery returns the single escaped "key=value" pair, grown once
// to its exact length. Redirect-chain construction
// wraps a full URL as one query pair at every nesting level, so this is
// the shared spelling for that hot path.
func EncodeQuery(key, value string) string {
	var b strings.Builder
	b.Grow(QueryEscapeLen(key) + 1 + QueryEscapeLen(value))
	AppendQuery(&b, key, value)
	return b.String()
}

// QueryPairs iterates a raw query string's key=value pairs in order,
// with exactly net/url.ParseQuery's splitting and unescaping semantics:
// pairs split on '&', pairs containing ';' or failing to unescape are
// skipped, empty segments are skipped, and a pair without '=' yields an
// empty value. Unescaping allocates only for keys or values that are
// actually escaped. Iteration stops early when fn returns false.
//
// It is the zero-materialisation counterpart of url.Values for the
// analysis hot path, which walks every recorded URL's parameters once
// per crawl iteration and must not build a map per URL.
func QueryPairs(rawQuery string, fn func(key, value string) bool) {
	q := rawQuery
	for q != "" {
		var pair string
		if i := strings.IndexByte(q, '&'); i >= 0 {
			pair, q = q[:i], q[i+1:]
		} else {
			pair, q = q, ""
		}
		if pair == "" || strings.IndexByte(pair, ';') >= 0 {
			continue
		}
		k, v := pair, ""
		if i := strings.IndexByte(pair, '='); i >= 0 {
			k, v = pair[:i], pair[i+1:]
		}
		if strings.ContainsAny(k, "%+") {
			dec, err := url.QueryUnescape(k)
			if err != nil {
				continue
			}
			k = dec
		}
		if strings.ContainsAny(v, "%+") {
			dec, err := url.QueryUnescape(v)
			if err != nil {
				continue
			}
			v = dec
		}
		if !fn(k, v) {
			return
		}
	}
}

// splitHostByte reports whether b may appear in SplitURL's fast-path
// authority: the hostname/port alphabet whose parse net/url accepts
// verbatim. Anything else (userinfo '@', IPv6 brackets, spaces,
// %-escapes) forces the url.Parse fallback.
func splitHostByte(b byte) bool {
	switch {
	case b >= 'a' && b <= 'z', b >= 'A' && b <= 'Z', b >= '0' && b <= '9':
		return true
	case b == '.' || b == '-' || b == '_' || b == ':':
		return true
	}
	return false
}

// SplitURL splits an absolute URL into host, path, and raw query
// without allocating, for the shape the overwhelming majority of
// recorded request URLs take: "scheme://host[:port]/path[?query]" with
// a plain hostname and no %-escapes in the path. ok reports whether the
// fast split is faithful to url.Parse (host matching u.Host, path
// matching the decoded u.Path, query matching u.RawQuery); when it is
// false the caller must fall back to url.Parse.
func SplitURL(raw string) (host, path, query string, ok bool) {
	// Validate the scheme ([a-zA-Z][a-zA-Z0-9+.-]*://), like url.Parse.
	if len(raw) == 0 || !isSchemeAlpha(raw[0]) {
		return "", "", "", false
	}
	i := 1
	for i < len(raw) && isSchemeTail(raw[i]) {
		i++
	}
	if i+3 > len(raw) || raw[i] != ':' || raw[i+1] != '/' || raw[i+2] != '/' {
		return "", "", "", false
	}
	i += 3
	hostStart := i
	colon := -1
	for i < len(raw) {
		b := raw[i]
		if b == '/' || b == '?' || b == '#' {
			break
		}
		if !splitHostByte(b) {
			return "", "", "", false
		}
		if colon >= 0 && (b < '0' || b > '9') {
			return "", "", "", false // url.Parse rejects non-numeric ports
		}
		if b == ':' {
			if colon >= 0 {
				return "", "", "", false
			}
			colon = i
		}
		i++
	}
	host = raw[hostStart:i]
	pathStart := i
	for i < len(raw) && raw[i] != '?' && raw[i] != '#' {
		if raw[i] == '%' {
			return "", "", "", false // escaped path: url.Parse would decode
		}
		i++
	}
	path = raw[pathStart:i]
	if i < len(raw) && raw[i] == '?' {
		i++
		queryStart := i
		for i < len(raw) && raw[i] != '#' {
			i++
		}
		query = raw[queryStart:i]
	}
	return host, path, query, true
}

func isSchemeAlpha(b byte) bool {
	return b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z'
}

func isSchemeTail(b byte) bool {
	return isSchemeAlpha(b) || b >= '0' && b <= '9' || b == '+' || b == '-' || b == '.'
}

// IsHTTP reports whether the URL uses an http(s) scheme.
func IsHTTP(u *url.URL) bool { return u.Scheme == "http" || u.Scheme == "https" }

// Resolve resolves ref against base, mirroring browser link resolution.
// Absolute http(s) references without dot segments — the overwhelming
// majority of simulated-web URLs — skip ResolveReference entirely: it
// would only clone the URL and re-normalise a path that has nothing to
// normalise.
func Resolve(base *url.URL, ref string) (*url.URL, error) {
	r, err := url.Parse(ref)
	if err != nil {
		return nil, fmt.Errorf("urlx: resolve %q: %w", ref, err)
	}
	// "/." catches every dot-segment shape — "/./", "/../", and paths
	// *ending* in "/." or "/.." — at the cost of also sending rare
	// "/.hidden" paths down the (correct, slower) slow path.
	if IsHTTP(r) && r.Host != "" && r.Path != "" && r.Path[0] == '/' && !strings.Contains(r.Path, "/.") {
		return r, nil
	}
	return base.ResolveReference(r), nil
}
