// Package urlx provides URL utilities used throughout the measurement
// pipeline: URL, the request path's one URL form (canonical string,
// split once), registrable-domain (eTLD+1) extraction, query-parameter
// access, and URL decoration helpers.
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

// URL is the one URL form of the request path: an immutable value
// holding a URL's canonical string, exactly what (*url.URL).String
// returns for it, plus its scheme, host, decoded path and raw query,
// which equal the url.URL fields of the same names. Each part is split
// once, when the URL is built by Parse, MustParse, Resolve, FromURL,
// Decorate or WithParams; a URL is never assembled field by field, so
// its parts and its string always agree. The zero URL stands for "no
// URL".
type URL struct {
	Scheme   string
	Host     string
	Path     string
	RawQuery string
	s        string
}

// String returns the canonical string.
func (u URL) String() string { return u.s }

// IsZero reports whether u is the zero URL.
func (u URL) IsZero() bool { return u.s == "" }

// FromURL returns the URL form of a parsed *url.URL.
func FromURL(u *url.URL) URL {
	return URL{Scheme: u.Scheme, Host: u.Host, Path: u.Path, RawQuery: u.RawQuery, s: u.String()}
}

// canonical splits raw without parsing or allocating when raw is
// already canonical: url.Parse(raw).String() == raw, and a reference
// that ResolveReference returns unchanged whatever the base. That holds
// when the scheme is a lowercase http or https, the host is non-empty
// and uses only the plain host alphabet, every path byte is one
// EscapedPath keeps, the path has no dot segment, there is no fragment,
// and the query has no control byte. Every URL the simulated web mints
// has this shape; ok is false for any other.
func canonical(raw string) (URL, bool) {
	p, ok := split(raw)
	if !ok || p.hasFragment || p.host == "" || p.scheme != "http" && p.scheme != "https" {
		return URL{}, false
	}
	for i := 0; i < len(p.path); i++ {
		if !pathByteKept(p.path[i]) {
			return URL{}, false
		}
	}
	// "/." catches every dot-segment shape — "/./", "/../", and paths
	// ending in "/." or "/.." — at the cost of also sending rare
	// "/.hidden" paths down the (correct, slower) fallback.
	if strings.Contains(p.path, "/.") {
		return URL{}, false
	}
	return URL{Scheme: p.scheme, Host: p.host, Path: p.path, RawQuery: p.query, s: raw}, true
}

// pathByteKept reports whether EscapedPath writes b as is: the
// unreserved bytes and the reserved ones a path may hold unescaped.
func pathByteKept(b byte) bool {
	switch {
	case b >= 'a' && b <= 'z', b >= 'A' && b <= 'Z', b >= '0' && b <= '9':
		return true
	}
	switch b {
	case '-', '_', '.', '~', '$', '&', '+', ',', '/', ':', ';', '=', '@':
		return true
	}
	return false
}

// Parse parses raw into its URL form: a canonical raw string is split
// in place, anything else goes through url.Parse and String. The error
// is url.Parse's, unwrapped.
func Parse(raw string) (URL, error) {
	if u, ok := canonical(raw); ok {
		return u, nil
	}
	u, err := url.Parse(raw)
	if err != nil {
		return URL{}, err
	}
	return FromURL(u), nil
}

// MustParse parses a raw URL and panics on failure. It is intended for
// compile-time-constant URLs inside the simulator.
func MustParse(raw string) URL {
	u, err := Parse(raw)
	if err != nil {
		panic(fmt.Sprintf("urlx: bad constant URL %q: %v", raw, err))
	}
	return u
}

// Resolve resolves ref against base, mirroring browser link resolution:
// the result is what url.Parse, ResolveReference and String give. A
// canonical reference — every URL the simulated web mints — is
// returned as is, with no parse and no allocation; any other goes
// through net/url.
func Resolve(base URL, ref string) (URL, error) {
	if u, ok := canonical(ref); ok {
		return u, nil
	}
	r, err := url.Parse(ref)
	if err != nil {
		return URL{}, fmt.Errorf("urlx: resolve %q: %w", ref, err)
	}
	b, err := url.Parse(base.s)
	if err != nil {
		return URL{}, fmt.Errorf("urlx: resolve against %q: %w", base.s, err)
	}
	return FromURL(b.ResolveReference(r)), nil
}

// cut splits u's canonical string around its query: head is everything
// before the '?', tail the '#' fragment, if any. hasQuery reports a '?'
// (a ForceQuery URL has one with an empty RawQuery). No other part of
// a canonical string holds an unescaped '#', nor a '?' before it.
func (u URL) cut() (head string, hasQuery bool, tail string) {
	head = u.s
	if i := strings.IndexByte(head, '#'); i >= 0 {
		head, tail = head[:i], head[i:]
	}
	if i := strings.IndexByte(head, '?'); i >= 0 {
		return head[:i], true, tail
	}
	return head, false, tail
}

// rebuild returns u with its raw query replaced by q followed by the
// escaped pairs kv, built in one pass: what setting RawQuery on the
// url.URL and calling String would give.
func (u URL) rebuild(q string, kv []string) URL {
	head, hasQuery, tail := u.cut()
	n := len(head) + 1 + len(q) + len(tail)
	for i := 0; i < len(kv); i += 2 {
		n += 1 + QueryEscapeLen(kv[i]) + 1 + QueryEscapeLen(kv[i+1])
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(head)
	qStart := b.Len()
	if q != "" || len(kv) > 0 || hasQuery && u.RawQuery == "" { // the last: ForceQuery
		b.WriteByte('?')
		qStart++
	}
	b.WriteString(q)
	for i := 0; i < len(kv); i += 2 {
		if b.Len() > qStart {
			b.WriteByte('&')
		}
		AppendQuery(&b, kv[i], kv[i+1])
	}
	qEnd := b.Len()
	b.WriteString(tail)
	s := b.String()
	return URL{Scheme: u.Scheme, Host: u.Host, Path: u.Path, RawQuery: s[qStart:qEnd], s: s}
}

// WithParams returns u with every key/value pair of params set (in
// sorted key order, so the result is deterministic).
func WithParams(u URL, params map[string]string) URL {
	keys := make([]string, 0, len(params))
	for k := range params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	kv := make([]string, 0, 2*len(keys))
	for _, k := range keys {
		kv = append(kv, k, params[k])
	}
	return Decorate(u, kv...)
}

// Decorate returns u with the query parameters kv (key1, value1, key2,
// value2, ...) set in order. A key not yet in the query is appended
// without re-encoding the query; a key already there is replaced, and
// the query re-encoded, as url.Values.Set and Encode would. When every
// key is fresh — in u's query and earlier in kv — the result is built
// in one pass. It panics on an odd number of pairs.
func Decorate(u URL, kv ...string) URL {
	if len(kv)%2 != 0 {
		panic("urlx: parameter pairs must be even")
	}
	if len(kv) == 0 {
		return u
	}
	for i := 0; i < len(kv); i += 2 {
		if _, present := queryParam(u.RawQuery, kv[i]); present || keyIn(kv[:i], kv[i]) {
			q := u.RawQuery
			for j := 0; j < len(kv); j += 2 {
				q = setParam(q, kv[j], kv[j+1])
			}
			return u.rebuild(q, nil)
		}
	}
	return u.rebuild(u.RawQuery, kv)
}

// setParam returns the raw query q with key set to value: appended,
// escaped, when the key is absent; otherwise every value of the key is
// replaced and the query re-encoded.
func setParam(q, key, value string) string {
	if _, present := queryParam(q, key); !present {
		if q == "" {
			return EncodeQuery(key, value)
		}
		return q + "&" + EncodeQuery(key, value)
	}
	vals, _ := url.ParseQuery(q) // the valid pairs survive an error
	vals.Set(key, value)
	return vals.Encode()
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
func Param(u URL, key string) (string, bool) { return queryParam(u.RawQuery, key) }

// queryParam is Param over a raw query string.
func queryParam(q, key string) (string, bool) {
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
func QueryEscapeLen(s string) int { return QueryEscapeNLen(s, 1) }

// QueryEscapeNLen returns the length of s query-escaped n times, what
// AppendQueryEscapeN appends, without building it.
func QueryEscapeNLen(s string, n int) int {
	if n == 0 {
		return len(s)
	}
	size := len(s)
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case queryByteSafe(c):
		case c == ' ':
			size += 2*n - 2
		default:
			size += 2 * n
		}
	}
	return size
}

// AppendQueryEscapeN appends s query-escaped n times — url.QueryEscape
// applied n times over — to dst; n = 0 appends s as is. Escaping works
// byte by byte, so each byte of s has a closed form at depth n: a safe
// byte stays as it is; a space is "+" at n = 1 and "%" + "25"×(n−2) +
// "2B" deeper (the '+' escaped, then its '%' escaped again at every
// further level); any other byte is "%" + "25"×(n−1) + its two hex
// digits. A nested redirect chain escapes its landing URL once per hop
// outside it, and writes it in one pass this way.
func AppendQueryEscapeN(dst []byte, s string, n int) []byte {
	if n < 0 {
		panic("urlx: negative escape depth")
	}
	if n == 0 {
		return append(dst, s...)
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case queryByteSafe(c):
			dst = append(dst, c)
		case c == ' ' && n == 1:
			dst = append(dst, '+')
		case c == ' ':
			dst = appendPercent25(dst, n-2)
			dst = append(dst, '2', 'B')
		default:
			dst = appendPercent25(dst, n-1)
			dst = append(dst, upperhex[c>>4], upperhex[c&0xf])
		}
	}
	return dst
}

// appendPercent25 appends '%' followed by k copies of "25": the escape
// of a '%' k levels down.
func appendPercent25(dst []byte, k int) []byte {
	dst = append(dst, '%')
	for range k {
		dst = append(dst, '2', '5')
	}
	return dst
}

// WriteQueryEscapeN writes s query-escaped n times into b, as
// AppendQueryEscapeN would append it, without an intermediate string:
// it escapes through a stack buffer a chunk at a time.
func WriteQueryEscapeN(b *strings.Builder, s string, n int) {
	var buf [192]byte
	chunk := max(1, len(buf)/(2*n+1)) // a byte escapes to at most 2n+1
	for len(s) > 0 {
		k := min(len(s), chunk)
		b.Write(AppendQueryEscapeN(buf[:0], s[:k], n))
		s = s[k:]
	}
}

// AppendQuery writes "key=value" (query-escaped) into b; it is the
// zero-intermediate-allocation building block the hot URL constructors
// (engine search URLs, click beacons) use instead of url.Values.Encode.
func AppendQuery(b *strings.Builder, key, value string) {
	WriteQueryEscapeN(b, key, 1)
	b.WriteByte('=')
	WriteQueryEscapeN(b, value, 1)
}

// EncodeQuery returns the single escaped "key=value" pair, grown once
// to its exact length.
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

// parts is a URL split in place by split.
type parts struct {
	scheme, host, path, query, fragment string
	hasFragment                         bool
}

// split splits raw into scheme, host, path, raw query and fragment
// without allocating, for the shape nearly every URL of a crawl takes:
// "scheme://host[:port][/path][?query][#fragment]" with a plain
// hostname and no %-escape in the path. ok is false for any other
// shape, and for a control byte anywhere (url.Parse rejects those).
func split(raw string) (p parts, ok bool) {
	// Validate the scheme ([a-zA-Z][a-zA-Z0-9+.-]*://), like url.Parse.
	if len(raw) == 0 || !isSchemeAlpha(raw[0]) {
		return p, false
	}
	i := 1
	for i < len(raw) && isSchemeTail(raw[i]) {
		i++
	}
	if i+3 > len(raw) || raw[i] != ':' || raw[i+1] != '/' || raw[i+2] != '/' {
		return p, false
	}
	p.scheme = raw[:i]
	i += 3
	hostStart := i
	colon := -1
	for i < len(raw) {
		b := raw[i]
		if b == '/' || b == '?' || b == '#' {
			break
		}
		if !splitHostByte(b) {
			return p, false
		}
		if colon >= 0 && (b < '0' || b > '9') {
			return p, false // url.Parse rejects non-numeric ports
		}
		if b == ':' {
			if colon >= 0 {
				return p, false
			}
			colon = i
		}
		i++
	}
	p.host = raw[hostStart:i]
	pathStart := i
	for i < len(raw) && raw[i] != '?' && raw[i] != '#' {
		if raw[i] == '%' || isCTL(raw[i]) {
			return p, false // an escaped path decodes; a control byte fails
		}
		i++
	}
	p.path = raw[pathStart:i]
	if i < len(raw) && raw[i] == '?' {
		i++
		queryStart := i
		for i < len(raw) && raw[i] != '#' {
			if isCTL(raw[i]) {
				return p, false
			}
			i++
		}
		p.query = raw[queryStart:i]
	}
	if i < len(raw) {
		p.hasFragment = true
		p.fragment = raw[i+1:]
		for j := 0; j < len(p.fragment); j++ {
			if isCTL(p.fragment[j]) {
				return p, false
			}
		}
	}
	return p, true
}

// isCTL reports an ASCII control byte, which url.Parse rejects.
func isCTL(b byte) bool { return b < 0x20 || b == 0x7f }

// SplitURL splits an absolute URL into host, path, and raw query
// without allocating, for the shape the overwhelming majority of
// recorded request URLs take: "scheme://host[:port]/path[?query]" with
// a plain hostname and no %-escapes in the path. ok reports whether the
// fast split is faithful to url.Parse (host matching u.Host, path
// matching the decoded u.Path, query matching u.RawQuery); when it is
// false — including every input url.Parse rejects — the caller must
// fall back to url.Parse.
func SplitURL(raw string) (host, path, query string, ok bool) {
	p, ok := split(raw)
	if !ok || strings.IndexByte(p.fragment, '%') >= 0 {
		// url.Parse validates a fragment's escapes; leave that to it.
		return "", "", "", false
	}
	return p.host, p.path, p.query, true
}

func isSchemeAlpha(b byte) bool {
	return b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z'
}

func isSchemeTail(b byte) bool {
	return isSchemeAlpha(b) || b >= '0' && b <= '9' || b == '+' || b == '-' || b == '.'
}
