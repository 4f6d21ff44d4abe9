package crawler

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"unicode/utf8"
)

// AppendIteration appends the bytes of json.Marshal(it) to dst: the
// compact encoding, with encoding/json's HTML-safe string escapes and
// sorted cookie names. A nil it is an error, and dst comes back
// unchanged.
func AppendIteration(dst []byte, it *Iteration) ([]byte, error) {
	if it == nil {
		return dst, errors.New("crawler: nil iteration")
	}
	e := encoder{buf: dst}
	e.iteration(it)
	return e.buf, nil
}

// Save's output is written in chunks of saveChunk bytes: a new chunk is
// started, instead of the last one regrown and copied, once less than
// saveChunkFree bytes are left in it, which holds most iterations.
const (
	saveChunk     = 256 << 10
	saveChunkFree = 32 << 10
)

// encode returns the bytes of json.MarshalIndent in chunks for d
// stamped with DatasetVersion: the version written is always
// DatasetVersion, and d itself is only read, so goroutines may encode
// one dataset at once. It fails on a nil iteration, and where
// encoding/json fails: on a created_at that time.Time cannot encode.
func (d *Dataset) encode() ([][]byte, error) {
	if i := slices.Index(d.Iterations, nil); i >= 0 {
		return nil, fmt.Errorf("iteration %d is nil", i)
	}
	created, err := d.CreatedAt.MarshalJSON()
	if err != nil {
		return nil, err
	}
	e := encoder{buf: make([]byte, 0, saveChunk), indent: true}
	e.open('{')
	e.omitInt(`"version":`, DatasetVersion)
	e.key(`"seed":`)
	e.buf = strconv.AppendInt(e.buf, d.Seed, 10)
	e.strField(`"storage_mode":`, d.StorageMode)
	e.key(`"created_at":`)
	e.buf = append(e.buf, created...)
	if d.FilterAnnotated {
		e.key(`"filter_annotated":`)
		e.bool(true)
	}
	listField(&e, `"iterations":`, d.Iterations, func(e *encoder, it **Iteration) {
		if cap(e.buf)-len(e.buf) < saveChunkFree {
			e.chunks = append(e.chunks, e.buf)
			e.buf = make([]byte, 0, saveChunk)
		}
		e.iteration(*it)
	})
	e.close('}')
	return append(e.chunks, e.buf), nil
}

// encoder appends one JSON value to buf, either compact as json.Marshal
// writes it or indented one space per level as json.MarshalIndent(v,
// "", " ") does. Each type's fields are listed once, in its method
// below, in struct order with their omitempty rules.
type encoder struct {
	buf    []byte
	chunks [][]byte // filled chunks before buf (Save only)
	indent bool
	depth  int
	// more reports that a member precedes the next one in the innermost
	// open object or array.
	more bool
}

// open starts a non-empty object or array; close ends it. An empty one
// is written whole, as json.MarshalIndent keeps it on one line.
func (e *encoder) open(c byte) {
	e.buf = append(e.buf, c)
	e.depth++
	e.more = false
}

func (e *encoder) close(c byte) {
	e.depth--
	e.newline()
	e.buf = append(e.buf, c)
	e.more = true
}

// member starts an object member or array element: the comma after the
// previous one, then its line.
func (e *encoder) member() {
	if e.more {
		e.buf = append(e.buf, ',')
	}
	e.more = true
	e.newline()
}

// key starts an object member named by k, a quoted name and its colon.
func (e *encoder) key(k string) {
	e.member()
	e.buf = append(e.buf, k...)
	if e.indent {
		e.buf = append(e.buf, ' ')
	}
}

// spaces is the indentation source: newline appends depth bytes of it.
// The dataset schema nests six levels deep, a request's cookie map
// being the innermost.
const spaces = "      "

func (e *encoder) newline() {
	if e.indent {
		e.buf = append(append(e.buf, '\n'), spaces[:e.depth]...)
	}
}

func (e *encoder) int(n int) { e.buf = strconv.AppendInt(e.buf, int64(n), 10) }

func (e *encoder) bool(b bool) { e.buf = strconv.AppendBool(e.buf, b) }

// htmlSafe marks the bytes json.Marshal copies into a string literal
// as they are: printable ASCII other than '"', '\\', '<', '>' and '&'.
var htmlSafe = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// str appends s as json.Marshal quotes it: '"' and '\\' escaped with a
// backslash, \b \f \n \r \t by name, other control bytes and '<', '>',
// '&' as \u00XX, U+2028 and U+2029 as \u202X, and each invalid UTF-8
// byte as \ufffd.
func (e *encoder) str(s string) {
	b := append(e.buf, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if htmlSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	e.buf = append(append(b, s[start:]...), '"')
}

// list appends s as a JSON array, each element by elem: null for a nil
// slice, [] for an empty one, as encoding/json writes them.
func list[T any](e *encoder, s []T, elem func(*encoder, *T)) {
	switch {
	case s == nil:
		e.buf = append(e.buf, "null"...)
	case len(s) == 0:
		e.buf = append(e.buf, "[]"...)
	default:
		e.open('[')
		for i := range s {
			e.member()
			elem(e, &s[i])
		}
		e.close(']')
	}
}

func (e *encoder) name(s *string) { e.str(*s) }

// cookieMap appends a non-empty cookie map with its names sorted, as
// encoding/json orders map keys.
func (e *encoder) cookieMap(m map[string]string) {
	names := make([]string, 0, 16) // on the stack for most maps
	for k := range m {
		names = append(names, k)
	}
	slices.Sort(names)
	e.open('{')
	for _, k := range names {
		e.member()
		e.str(k)
		e.buf = append(e.buf, ':')
		if e.indent {
			e.buf = append(e.buf, ' ')
		}
		e.str(m[k])
	}
	e.close('}')
}

// Member writers: k is a quoted name and its colon. The omit forms
// write nothing for a zero value, as omitempty does.
func (e *encoder) strField(k, v string) {
	e.key(k)
	e.str(v)
}

func (e *encoder) intField(k string, v int) {
	e.key(k)
	e.int(v)
}

func (e *encoder) omitStr(k, v string) {
	if v != "" {
		e.strField(k, v)
	}
}

func (e *encoder) omitInt(k string, v int) {
	if v != 0 {
		e.intField(k, v)
	}
}

func listField[T any](e *encoder, k string, s []T, elem func(*encoder, *T)) {
	e.key(k)
	list(e, s, elem)
}

func (e *encoder) iteration(it *Iteration) {
	e.open('{')
	e.strField(`"engine":`, it.Engine)
	e.strField(`"engine_host":`, it.EngineHost)
	e.intField(`"index":`, it.Index)
	e.strField(`"instance":`, it.Instance)
	e.strField(`"query":`, it.Query)
	listField(e, `"serp_requests":`, it.SERPRequests, (*encoder).request)
	listField(e, `"serp_cookies":`, it.SERPCookies, (*encoder).cookie)
	listField(e, `"displayed_ads":`, it.DisplayedAds, (*encoder).ad)
	e.intField(`"clicked_ad":`, it.ClickedAd)
	listField(e, `"click_requests":`, it.ClickRequests, (*encoder).request)
	listField(e, `"hops":`, it.Hops, (*encoder).hop)
	e.strField(`"final_url":`, it.FinalURL)
	e.omitStr(`"final_referrer":`, it.FinalReferrer)
	listField(e, `"dest_requests":`, it.DestRequests, (*encoder).request)
	listField(e, `"cookies":`, it.Cookies, (*encoder).cookie)
	listField(e, `"local_storage":`, it.LocalStorage, (*encoder).storageEntry)
	if len(it.RevisitCookies) > 0 {
		listField(e, `"revisit_cookies":`, it.RevisitCookies, (*encoder).cookie)
	}
	if len(it.RevisitLocalStorage) > 0 {
		listField(e, `"revisit_local_storage":`, it.RevisitLocalStorage, (*encoder).storageEntry)
	}
	e.intField(`"crawler_request_count":`, it.CrawlerRequestCount)
	e.intField(`"extension_request_count":`, it.ExtensionRequestCount)
	e.omitInt(`"serp_tracker_count":`, it.SERPTrackerCount)
	e.omitInt(`"click_tracker_count":`, it.ClickTrackerCount)
	e.omitInt(`"dest_tracker_count":`, it.DestTrackerCount)
	e.omitStr(`"error":`, it.Error)
	e.omitStr(`"error_class":`, it.ErrorClass)
	e.omitStr(`"outcome":`, it.Outcome)
	e.omitInt(`"rotations":`, it.Rotations)
	e.omitInt(`"captcha_solves":`, it.CaptchaSolves)
	e.close('}')
}

func (e *encoder) request(r *RequestRecord) {
	e.open('{')
	e.strField(`"url":`, r.URL)
	e.strField(`"method":`, r.Method)
	e.strField(`"type":`, r.Type)
	e.strField(`"first_party":`, r.FirstParty)
	e.strField(`"initiator":`, r.Initiator)
	e.omitStr(`"referrer":`, r.Referrer)
	e.key(`"third_party":`)
	e.bool(r.ThirdParty)
	if len(r.Cookies) > 0 {
		e.key(`"cookies":`)
		e.cookieMap(r.Cookies)
	}
	e.close('}')
}

func (e *encoder) hop(h *HopRecord) {
	e.open('{')
	e.strField(`"url":`, h.URL)
	e.intField(`"status":`, h.Status)
	e.omitStr(`"location":`, h.Location)
	e.strField(`"mechanism":`, h.Mechanism)
	if len(h.SetCookieNames) > 0 {
		listField(e, `"set_cookie_names":`, h.SetCookieNames, (*encoder).name)
	}
	e.omitInt(`"retries":`, h.Retries)
	e.omitStr(`"fault_class":`, h.FaultClass)
	e.close('}')
}

func (e *encoder) ad(a *AdRecord) {
	e.open('{')
	e.strField(`"href":`, a.Href)
	e.strField(`"landing_domain":`, a.LandingDomain)
	e.intField(`"position":`, a.Position)
	e.close('}')
}

func (e *encoder) cookie(c *CookieRecord) {
	e.open('{')
	e.omitStr(`"partition_key":`, c.PartitionKey)
	e.strField(`"domain":`, c.Domain)
	e.strField(`"name":`, c.Name)
	e.strField(`"value":`, c.Value)
	e.close('}')
}

func (e *encoder) storageEntry(s *StorageRecord) {
	e.open('{')
	e.omitStr(`"partition_key":`, s.PartitionKey)
	e.strField(`"origin":`, s.Origin)
	e.strField(`"key":`, s.Key)
	e.strField(`"value":`, s.Value)
	e.close('}')
}
