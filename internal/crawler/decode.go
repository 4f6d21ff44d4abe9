package crawler

import (
	"strconv"
	"time"
	"unicode/utf16"
	"unicode/utf8"
)

// decodeDataset is Load's fast path: one pass over exactly the shape
// Save writes, with a key switch per type instead of reflection. It
// reports ok=false for anything else — a syntax error, a type
// mismatch, a non-integer number in an int field, a key that is
// unknown, escaped, case-folded or repeated, a null iteration — and
// the caller hands the whole input to encoding/json. When ok is true
// the Dataset is reflect.DeepEqual to json.Unmarshal's for the same
// bytes, nil and empty slices and maps included.
func decodeDataset(data []byte) (ds *Dataset, ok bool) {
	d := decoder{data: data, strs: make(map[string]string)}
	ds = new(Dataset)
	d.dataset(ds)
	if d.peek(); d.bad || d.pos != len(data) {
		return nil, false
	}
	return ds, true
}

// decoder is a byte cursor over one JSON document. Failure is sticky:
// fail moves the cursor to the end, so every later read fails too and
// the caller's loops end.
type decoder struct {
	data []byte
	pos  int
	bad  bool

	// strs interns every string value for the length of one decode: a
	// saved dataset repeats a few thousand distinct hosts, URLs and
	// cookie names tens of thousands of times.
	strs map[string]string
	// buf holds a string's value while its escapes are decoded.
	buf []byte

	// Per-type element scratch: an array decodes into one and is copied
	// out at its exact length. No array nests inside one of its own
	// element type, so one of each suffices.
	its      []*Iteration
	requests []RequestRecord
	cookies  []CookieRecord
	storage  []StorageRecord
	hops     []HopRecord
	ads      []AdRecord
	names    []string
}

func (d *decoder) fail() {
	d.bad = true
	d.pos = len(d.data)
}

// peek skips whitespace and returns the next byte, 0 at the end.
func (d *decoder) peek() byte {
	for ; d.pos < len(d.data); d.pos++ {
		switch c := d.data[d.pos]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// lit consumes the literal s if it is next.
func (d *decoder) lit(s string) bool {
	d.peek()
	if len(d.data)-d.pos >= len(s) && string(d.data[d.pos:d.pos+len(s)]) == s {
		d.pos += len(s)
		return true
	}
	return false
}

// null consumes a null if one is next. Decoding null into a string,
// number, bool or struct leaves it as it was; into a slice or map, it
// sets nil.
func (d *decoder) null() bool { return d.lit("null") }

// open consumes the opening bracket of an object or array and reports
// whether a member follows; next consumes the separator after a member
// and reports whether another one follows:
//
//	for more := d.open('{', '}'); more; more = d.next('}') { ... }
func (d *decoder) open(open, close byte) bool {
	if d.peek() != open {
		d.fail()
		return false
	}
	d.pos++
	if d.peek() == close {
		d.pos++
		return false
	}
	return true
}

func (d *decoder) next(close byte) bool {
	switch d.peek() {
	case ',':
		d.pos++
		return true
	case close:
		d.pos++
		return false
	}
	d.fail()
	return false
}

func (d *decoder) colon() {
	if d.peek() != ':' {
		d.fail()
		return
	}
	d.pos++
}

// key reads an object member's name and the colon after it. Names are
// read raw, so only printable ASCII without escapes is accepted: no
// other name can equal a field name byte for byte, and encoding/json
// decides what those match.
func (d *decoder) key() []byte {
	if d.peek() == '"' {
		start := d.pos + 1
		i := start
		for i < len(d.data) && plain[d.data[i]] {
			i++
		}
		if i < len(d.data) && d.data[i] == '"' {
			d.pos = i + 1
			d.colon()
			return d.data[start:i]
		}
	}
	d.fail()
	return nil
}

// once records a member's bit in seen and fails on a repeated member:
// encoding/json decodes a repeat into what the first one left, which
// this decoder does not reproduce.
func (d *decoder) once(seen, bit uint32) uint32 {
	if seen&bit != 0 {
		d.fail()
	}
	return seen | bit
}

func (d *decoder) intern(b []byte) string {
	if s, ok := d.strs[string(b)]; ok {
		return s
	}
	s := string(b)
	d.strs[s] = s
	return s
}

func (d *decoder) string() string {
	if d.null() {
		return ""
	}
	if d.peek() != '"' {
		d.fail()
		return ""
	}
	return d.intern(d.str())
}

// str reads the string literal at the cursor and returns its value as
// encoding/json unquotes it. The result aliases the input when the
// literal has no escape and is valid UTF-8, and d.buf otherwise; it is
// valid until the next call.
func (d *decoder) str() []byte {
	start := d.pos + 1
	for i := start; i < len(d.data); {
		for i < len(d.data) && plain[d.data[i]] {
			i++
		}
		if i == len(d.data) {
			break
		}
		switch c := d.data[i]; {
		case c == '"':
			d.pos = i + 1
			return d.data[start:i]
		case c == '\\':
			return d.unquote(start, i)
		case c < ' ':
			d.fail()
			return nil
		default:
			r, size := utf8.DecodeRune(d.data[i:])
			if r == utf8.RuneError && size == 1 {
				return d.unquote(start, i)
			}
			i += size
		}
	}
	d.fail()
	return nil
}

// plain marks the bytes that stand for themselves in a string literal:
// printable ASCII other than '"' and '\\'.
var plain = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// unquote finishes str from d.data[i], the literal's first byte that
// does not stand for itself, building the value in d.buf: escapes are
// decoded, a UTF-16 surrogate pair becomes one rune, and a lone
// surrogate or an invalid UTF-8 byte becomes U+FFFD, as in
// encoding/json.
func (d *decoder) unquote(start, i int) []byte {
	data := d.data
	b := append(d.buf[:0], data[start:i]...)
	for i < len(data) {
		c := data[i]
		switch {
		case c == '"':
			d.pos = i + 1
			d.buf = b
			return b
		case c < ' ':
			d.fail()
			return nil
		case c < utf8.RuneSelf && c != '\\':
			b = append(b, c)
			i++
		case c >= utf8.RuneSelf:
			// An invalid byte decodes as utf8.RuneError, size 1.
			r, size := utf8.DecodeRune(data[i:])
			b = utf8.AppendRune(b, r)
			i += size
		case i+1 < len(data) && data[i+1] != 'u': // a one-letter escape
			e := data[i+1]
			switch e {
			case '"', '\\', '/':
			case 'b':
				e = '\b'
			case 'f':
				e = '\f'
			case 'n':
				e = '\n'
			case 'r':
				e = '\r'
			case 't':
				e = '\t'
			default:
				d.fail()
				return nil
			}
			b = append(b, e)
			i += 2
		default: // \uXXXX, or a backslash at the end
			r := hex4(data, i+2)
			if r < 0 {
				d.fail()
				return nil
			}
			i += 6
			if utf16.IsSurrogate(r) {
				r2 := rune(-1)
				if i+1 < len(data) && data[i] == '\\' && data[i+1] == 'u' {
					r2 = hex4(data, i+2)
				}
				if r = utf16.DecodeRune(r, r2); r != utf8.RuneError {
					i += 6
				}
			}
			b = utf8.AppendRune(b, r)
		}
	}
	d.fail()
	return nil
}

// hex4 decodes the four hex digits at data[i:], or returns -1.
func hex4(data []byte, i int) rune {
	if i+4 > len(data) {
		return -1
	}
	var r rune
	for _, c := range data[i : i+4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// int reads an integer of the given bit size. JSON numbers with a
// fraction or an exponent fail here: the cursor stops at the '.' or
// 'e', which no caller accepts next.
func (d *decoder) int(bits int) int64 {
	if d.null() {
		return 0
	}
	start := d.pos
	if d.pos < len(d.data) && d.data[d.pos] == '-' {
		d.pos++
	}
	digits := d.pos
	for d.pos < len(d.data) && '0' <= d.data[d.pos] && d.data[d.pos] <= '9' {
		d.pos++
	}
	if d.pos == digits || d.data[digits] == '0' && d.pos-digits > 1 {
		d.fail()
		return 0
	}
	n, err := strconv.ParseInt(string(d.data[start:d.pos]), 10, bits)
	if err != nil {
		d.fail()
	}
	return n
}

func (d *decoder) bool() bool {
	switch {
	case d.lit("true"):
		return true
	case d.lit("false"), d.null():
		return false
	}
	d.fail()
	return false
}

// time decodes the way encoding/json does for a time.Time: the raw
// string literal, quotes and escapes included, goes to UnmarshalJSON.
func (d *decoder) time(t *time.Time) {
	if d.null() {
		return
	}
	if d.peek() != '"' {
		d.fail()
		return
	}
	start := d.pos
	if d.str(); !d.bad {
		if err := t.UnmarshalJSON(d.data[start:d.pos]); err != nil {
			d.fail()
		}
	}
}

// array decodes a JSON array of T, each element by elem, into scratch
// and returns an exact-length copy: nil for null, empty but non-nil
// for [].
func array[T any](d *decoder, scratch *[]T, elem func(*decoder, *T)) []T {
	if d.null() {
		return nil
	}
	buf := (*scratch)[:0]
	for more := d.open('[', ']'); more; more = d.next(']') {
		var zero T
		buf = append(buf, zero)
		elem(d, &buf[len(buf)-1])
	}
	*scratch = buf
	return append(make([]T, 0, len(buf)), buf...)
}

func (d *decoder) name(s *string) { *s = d.string() }

// cookieMap decodes a request's cookies: nil for null, empty but non-nil
// for {}, and the last value for a repeated name, as in encoding/json.
func (d *decoder) cookieMap() map[string]string {
	if d.null() {
		return nil
	}
	m := make(map[string]string)
	for more := d.open('{', '}'); more; more = d.next('}') {
		if d.peek() != '"' {
			d.fail()
			break
		}
		k := d.intern(d.str())
		d.colon()
		m[k] = d.string()
	}
	return m
}

func (d *decoder) dataset(ds *Dataset) {
	if d.null() {
		return
	}
	var seen uint32
	for more := d.open('{', '}'); more; more = d.next('}') {
		var bit uint32
		switch string(d.key()) {
		case "version":
			bit, ds.Version = 1<<0, int(d.int(strconv.IntSize))
		case "seed":
			bit, ds.Seed = 1<<1, d.int(64)
		case "storage_mode":
			bit, ds.StorageMode = 1<<2, d.string()
		case "created_at":
			bit = 1 << 3
			d.time(&ds.CreatedAt)
		case "filter_annotated":
			bit, ds.FilterAnnotated = 1<<4, d.bool()
		case "iterations":
			bit, ds.Iterations = 1<<5, array(d, &d.its, (*decoder).iteration)
		default:
			d.fail()
		}
		seen = d.once(seen, bit)
	}
}

func (d *decoder) iteration(p **Iteration) {
	if d.null() {
		d.fail() // Load refuses null iterations; the fallback says so
		return
	}
	it := new(Iteration)
	*p = it
	var seen uint32
	for more := d.open('{', '}'); more; more = d.next('}') {
		var bit uint32
		switch string(d.key()) {
		case "engine":
			bit, it.Engine = 1<<0, d.string()
		case "engine_host":
			bit, it.EngineHost = 1<<1, d.string()
		case "index":
			bit, it.Index = 1<<2, int(d.int(strconv.IntSize))
		case "instance":
			bit, it.Instance = 1<<3, d.string()
		case "query":
			bit, it.Query = 1<<4, d.string()
		case "serp_requests":
			bit, it.SERPRequests = 1<<5, array(d, &d.requests, (*decoder).request)
		case "serp_cookies":
			bit, it.SERPCookies = 1<<6, array(d, &d.cookies, (*decoder).cookie)
		case "displayed_ads":
			bit, it.DisplayedAds = 1<<7, array(d, &d.ads, (*decoder).ad)
		case "clicked_ad":
			bit, it.ClickedAd = 1<<8, int(d.int(strconv.IntSize))
		case "click_requests":
			bit, it.ClickRequests = 1<<9, array(d, &d.requests, (*decoder).request)
		case "hops":
			bit, it.Hops = 1<<10, array(d, &d.hops, (*decoder).hop)
		case "final_url":
			bit, it.FinalURL = 1<<11, d.string()
		case "final_referrer":
			bit, it.FinalReferrer = 1<<12, d.string()
		case "dest_requests":
			bit, it.DestRequests = 1<<13, array(d, &d.requests, (*decoder).request)
		case "cookies":
			bit, it.Cookies = 1<<14, array(d, &d.cookies, (*decoder).cookie)
		case "local_storage":
			bit, it.LocalStorage = 1<<15, array(d, &d.storage, (*decoder).storageEntry)
		case "revisit_cookies":
			bit, it.RevisitCookies = 1<<16, array(d, &d.cookies, (*decoder).cookie)
		case "revisit_local_storage":
			bit, it.RevisitLocalStorage = 1<<17, array(d, &d.storage, (*decoder).storageEntry)
		case "crawler_request_count":
			bit, it.CrawlerRequestCount = 1<<18, int(d.int(strconv.IntSize))
		case "extension_request_count":
			bit, it.ExtensionRequestCount = 1<<19, int(d.int(strconv.IntSize))
		case "serp_tracker_count":
			bit, it.SERPTrackerCount = 1<<20, int(d.int(strconv.IntSize))
		case "click_tracker_count":
			bit, it.ClickTrackerCount = 1<<21, int(d.int(strconv.IntSize))
		case "dest_tracker_count":
			bit, it.DestTrackerCount = 1<<22, int(d.int(strconv.IntSize))
		case "error":
			bit, it.Error = 1<<23, d.string()
		case "error_class":
			bit, it.ErrorClass = 1<<24, d.string()
		case "outcome":
			bit, it.Outcome = 1<<25, d.string()
		case "rotations":
			bit, it.Rotations = 1<<26, int(d.int(strconv.IntSize))
		case "captcha_solves":
			bit, it.CaptchaSolves = 1<<27, int(d.int(strconv.IntSize))
		default:
			d.fail()
		}
		seen = d.once(seen, bit)
	}
}

func (d *decoder) request(r *RequestRecord) {
	if d.null() {
		return
	}
	var seen uint32
	for more := d.open('{', '}'); more; more = d.next('}') {
		var bit uint32
		switch string(d.key()) {
		case "url":
			bit, r.URL = 1<<0, d.string()
		case "method":
			bit, r.Method = 1<<1, d.string()
		case "type":
			bit, r.Type = 1<<2, d.string()
		case "first_party":
			bit, r.FirstParty = 1<<3, d.string()
		case "initiator":
			bit, r.Initiator = 1<<4, d.string()
		case "referrer":
			bit, r.Referrer = 1<<5, d.string()
		case "third_party":
			bit, r.ThirdParty = 1<<6, d.bool()
		case "cookies":
			bit, r.Cookies = 1<<7, d.cookieMap()
		default:
			d.fail()
		}
		seen = d.once(seen, bit)
	}
}

func (d *decoder) hop(h *HopRecord) {
	if d.null() {
		return
	}
	var seen uint32
	for more := d.open('{', '}'); more; more = d.next('}') {
		var bit uint32
		switch string(d.key()) {
		case "url":
			bit, h.URL = 1<<0, d.string()
		case "status":
			bit, h.Status = 1<<1, int(d.int(strconv.IntSize))
		case "location":
			bit, h.Location = 1<<2, d.string()
		case "mechanism":
			bit, h.Mechanism = 1<<3, d.string()
		case "set_cookie_names":
			bit, h.SetCookieNames = 1<<4, array(d, &d.names, (*decoder).name)
		case "retries":
			bit, h.Retries = 1<<5, int(d.int(strconv.IntSize))
		case "fault_class":
			bit, h.FaultClass = 1<<6, d.string()
		default:
			d.fail()
		}
		seen = d.once(seen, bit)
	}
}

func (d *decoder) ad(a *AdRecord) {
	if d.null() {
		return
	}
	var seen uint32
	for more := d.open('{', '}'); more; more = d.next('}') {
		var bit uint32
		switch string(d.key()) {
		case "href":
			bit, a.Href = 1<<0, d.string()
		case "landing_domain":
			bit, a.LandingDomain = 1<<1, d.string()
		case "position":
			bit, a.Position = 1<<2, int(d.int(strconv.IntSize))
		default:
			d.fail()
		}
		seen = d.once(seen, bit)
	}
}

func (d *decoder) cookie(c *CookieRecord) {
	if d.null() {
		return
	}
	var seen uint32
	for more := d.open('{', '}'); more; more = d.next('}') {
		var bit uint32
		switch string(d.key()) {
		case "partition_key":
			bit, c.PartitionKey = 1<<0, d.string()
		case "domain":
			bit, c.Domain = 1<<1, d.string()
		case "name":
			bit, c.Name = 1<<2, d.string()
		case "value":
			bit, c.Value = 1<<3, d.string()
		default:
			d.fail()
		}
		seen = d.once(seen, bit)
	}
}

func (d *decoder) storageEntry(s *StorageRecord) {
	if d.null() {
		return
	}
	var seen uint32
	for more := d.open('{', '}'); more; more = d.next('}') {
		var bit uint32
		switch string(d.key()) {
		case "partition_key":
			bit, s.PartitionKey = 1<<0, d.string()
		case "origin":
			bit, s.Origin = 1<<1, d.string()
		case "key":
			bit, s.Key = 1<<2, d.string()
		case "value":
			bit, s.Value = 1<<3, d.string()
		default:
			d.fail()
		}
		seen = d.once(seen, bit)
	}
}
