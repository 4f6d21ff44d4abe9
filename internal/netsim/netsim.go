// Package netsim implements the virtual network the measurement study runs
// against: HTTP request/response semantics, a host registry that routes
// requests to simulated origin servers, a virtual clock, and a wire log.
//
// The paper crawled the live web; this package is the offline substitute
// (see the README's opening section). Every simulated origin — search
// engines, ad-tech redirectors, advertiser sites — is a Handler
// registered on a Network. The browser (package browser) issues
// Requests through Network.RoundTrip exactly the way Chromium issues
// them through the real network stack, and all of the paper's
// observations (redirect chains, Set-Cookie headers, query parameters)
// are properties of this traffic.
//
// # Fault injection
//
// The live web is adversarial — DNS failures, TLS errors, timeouts,
// 403/429 rate limiting, 5xx brownouts, and bot walls all degrade a
// crawl — and a Network can reproduce that deterministically: install
// a FaultPlan with InstallFaults and RoundTrip injects seeded failures
// before a request reaches its origin handler. Decisions derive from
// detrand keyed by (plan seed, Request.Client, per-client serial), so
// the same seed produces the same faults and Parallel crawls fault
// byte-identically to sequential ones. Connection-stage faults (dns,
// tls, timeout) return a *FaultError; response-stage faults (http_403,
// http_429 with Retry-After, http_5xx, botwall interstitials) return a
// *Response carrying the in-memory Fault marker, which is how an
// injected 403 stays distinguishable from an origin's organic one. A
// zero plan is a strict no-op: behaviour and every serialized byte
// match a network with no plan installed. See fault.go.
package netsim

import (
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"searchads/internal/telemetry"
	"searchads/internal/urlx"
)

// ResourceType classifies a request the way browser engines and filter
// lists do. It matches the type options understood by the filter engine.
type ResourceType string

// Resource types observed by the crawler. Document is a top-level
// navigation; the others are subresource fetches.
const (
	TypeDocument    ResourceType = "document"
	TypeScript      ResourceType = "script"
	TypeImage       ResourceType = "image"
	TypeStylesheet  ResourceType = "stylesheet"
	TypeXHR         ResourceType = "xmlhttprequest"
	TypeSubdocument ResourceType = "subdocument"
	TypePing        ResourceType = "ping"
	TypeOther       ResourceType = "other"
)

// Resource-type bits, the compact form filter-engine type masks use.
const (
	BitDocument uint16 = 1 << iota
	BitScript
	BitImage
	BitStylesheet
	BitXHR
	BitSubdocument
	BitPing
	BitOther

	// AllTypeBits covers every known resource type.
	AllTypeBits uint16 = 1<<iota - 1
)

// Bit returns the type's bitmask form. Unknown types map to 0, so a
// typed filter rule (nonzero mask) never matches them.
func (t ResourceType) Bit() uint16 {
	switch t {
	case TypeDocument:
		return BitDocument
	case TypeScript:
		return BitScript
	case TypeImage:
		return BitImage
	case TypeStylesheet:
		return BitStylesheet
	case TypeXHR:
		return BitXHR
	case TypeSubdocument:
		return BitSubdocument
	case TypePing:
		return BitPing
	case TypeOther:
		return BitOther
	}
	return 0
}

// Request is a browser-originated HTTP request.
type Request struct {
	Method string
	// URL is the request URL in its one request-path form: the
	// canonical string (what (*url.URL).String returns) with its scheme,
	// host, decoded path and raw query split once, when the URL was
	// built. Handlers read URL.Host, URL.Path and URL.RawQuery;
	// recorders, the filter engine and the dataset writer read
	// URL.String(), which costs nothing.
	URL    urlx.URL
	Header http.Header
	// Cookies carries the cookies the browser attached for this request's
	// host, after partitioning rules were applied.
	Cookies []*Cookie
	Body    string

	// Type is the resource type, used by filter-list matching.
	Type ResourceType
	// FirstParty is the eTLD+1 of the top-level document on whose behalf
	// the request is made. For top-level navigations it equals the
	// request's own site.
	FirstParty string
	// Initiator describes what triggered the request: "navigation",
	// "redirect", "page", "script:<host>", "click", "ping".
	Initiator string
	// Referrer is the document.referrer / Referer value: for top-level
	// navigations, the initiating document; unchanged across HTTP 30x
	// hops; for meta/JS redirects, the redirecting page — the property
	// referrer-based UID smuggling exploits (paper §5).
	Referrer string
	// Time is the virtual time at which the request was sent. If the
	// sender (the browser) stamps it, RoundTrip leaves it alone and does
	// not touch the network's shared clock; a zero Time is stamped from
	// the network clock, which then advances by the per-exchange latency.
	Time time.Time
	// Client labels the logical browser profile the request belongs to
	// (the crawler uses its iteration instance, e.g. "bing-0042").
	// Simulated origin servers key their identifier-minting streams by
	// this label so that concurrently-crawled engines mint identical
	// values regardless of request interleaving — the property that makes
	// Parallel crawl datasets byte-identical to sequential ones. Empty
	// for ad-hoc requests (tests, the HTTP bridge); those fall back to a
	// shared "" stream, which is still deterministic in request order.
	Client string
}

// IsThirdParty reports whether the request crosses the first-party site
// boundary, the criterion used by $third-party filter options.
func (r *Request) IsThirdParty() bool {
	if r.FirstParty == "" {
		return false
	}
	return urlx.RegistrableDomain(r.URL.Host) != r.FirstParty
}

// Cookie returns the request cookie with the given name, if attached.
func (r *Request) Cookie(name string) (*Cookie, bool) {
	for _, c := range r.Cookies {
		if c.Name == name {
			return c, true
		}
	}
	return nil, false
}

// Query returns the first value of a query parameter ("" if absent).
func (r *Request) Query(key string) string {
	v, _ := urlx.Param(r.URL, key)
	return v
}

// Response is a simulated HTTP response.
type Response struct {
	Status     int
	Header     http.Header
	SetCookies []*Cookie
	Body       string

	// Page is the parsed document for HTML responses; nil otherwise.
	Page *Page
	// Script is the behaviour delivered by a script response; the browser
	// executes it in the context of the including page.
	Script ScriptProgram

	// Fault marks a response that was injected by the network's fault
	// stage rather than served by the origin ("" for organic responses,
	// including organic 4xx/5xx). In-memory only — never serialized —
	// so a zero FaultPlan leaves datasets byte-identical.
	Fault FaultClass
}

// NewResponse returns an empty response with the given status. The
// header map is left nil — http.Header reads treat nil as empty, and
// most simulated responses never set a header, so allocating one per
// response was pure garbage on the crawl hot path. Use SetHeader (or
// allocate Header explicitly) to add headers.
func NewResponse(status int) *Response {
	return &Response{Status: status}
}

// SetHeader sets a response header, allocating the map on first use.
func (r *Response) SetHeader(key, value string) *Response {
	if r.Header == nil {
		r.Header = make(http.Header, 1)
	}
	r.Header.Set(key, value)
	return r
}

// Redirect constructs a 30x response with a Location header, the mechanism
// behind the paper's bounce-tracking detection (§3.2: "the 'Location'
// header contains the new redirection URL, and status codes such as 301,
// 302, 307, 308 indicate the occurrence of redirection").
func Redirect(status int, location string) *Response {
	return NewResponse(status).SetHeader("Location", location)
}

// IsRedirect reports whether the response status signals an HTTP redirect.
func (r *Response) IsRedirect() bool {
	switch r.Status {
	case http.StatusMovedPermanently, http.StatusFound,
		http.StatusTemporaryRedirect, http.StatusPermanentRedirect,
		http.StatusSeeOther:
		return true
	}
	return false
}

// Location returns the redirect target, if any.
func (r *Response) Location() (string, bool) {
	loc := r.Header.Get("Location")
	return loc, loc != ""
}

// AddCookie appends a Set-Cookie to the response.
func (r *Response) AddCookie(c *Cookie) *Response {
	r.SetCookies = append(r.SetCookies, c)
	return r
}

// Handler is a simulated origin server.
type Handler interface {
	Serve(req *Request) *Response
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(*Request) *Response

// Serve calls f(req).
func (f HandlerFunc) Serve(req *Request) *Response { return f(req) }

// ErrNoSuchHost is returned by RoundTrip for unregistered hosts, the
// virtual equivalent of an NXDOMAIN failure.
var ErrNoSuchHost = errors.New("netsim: no such host")

// WireEvent records one request/response exchange on the virtual wire.
type WireEvent struct {
	Request  *Request
	Response *Response
}

// Network routes requests to registered hosts and keeps the virtual clock.
// The zero value is not usable; construct with NewNetwork.
type Network struct {
	mu    sync.RWMutex
	hosts map[string]Handler // exact hostname match
	sites map[string]Handler // eTLD+1 fallback (any subdomain)
	clock *Clock
	wire  []WireEvent
	// keepWire is atomic so the (almost always disabled) wire log costs
	// RoundTrip one load instead of a mutex round trip per exchange.
	keepWire atomic.Bool
	// faults is the armed fault-injection state (nil = off), a pointer
	// load per exchange for the same reason as keepWire.
	faults atomic.Pointer[faultState]
	// tele is the installed telemetry registry (nil = off), a pointer
	// load per exchange for the same reason as keepWire and faults.
	tele atomic.Pointer[telemetry.Registry]
}

// NewNetwork returns an empty network whose clock starts at the study
// epoch (the paper crawled June–December 2022; the token heuristics use
// that window for timestamp detection).
func NewNetwork() *Network {
	return &Network{
		hosts: make(map[string]Handler),
		sites: make(map[string]Handler),
		clock: NewClock(StudyEpoch),
	}
}

// StudyEpoch is the virtual time at which every study begins. It falls in
// the paper's crawl window (June–December 2022).
var StudyEpoch = time.Date(2022, time.September, 1, 9, 0, 0, 0, time.UTC)

// Clock returns the network's virtual clock.
func (n *Network) Clock() *Clock { return n.clock }

// RecordWire enables (or disables) wire logging of every exchange.
func (n *Network) RecordWire(on bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.keepWire.Store(on)
	if !on {
		n.wire = nil
	}
}

// Wire returns a copy of the logged exchanges.
func (n *Network) Wire() []WireEvent {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]WireEvent, len(n.wire))
	copy(out, n.wire)
	return out
}

// Handle registers a handler for an exact hostname, replacing any previous
// registration.
func (n *Network) Handle(host string, h Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.hosts[strings.ToLower(host)] = h
}

// HandleSite registers a handler for a whole eTLD+1, serving any subdomain
// without an exact-host registration. Redirector services such as
// xg4ken.com use numbered subdomains (6102.xg4ken.com, 3825.xg4ken.com);
// HandleSite lets one handler own them all.
func (n *Network) HandleSite(site string, h Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.sites[strings.ToLower(site)] = h
}

// Lookup resolves the handler for a host, consulting exact registrations
// before site-wide ones.
func (n *Network) Lookup(host string) (Handler, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	h := strings.ToLower(urlx.Hostname(host))
	if hd, ok := n.hosts[h]; ok {
		return hd, true
	}
	if hd, ok := n.sites[urlx.RegistrableDomain(h)]; ok {
		return hd, true
	}
	return nil, false
}

// Hosts returns the sorted list of exact-host registrations (diagnostics).
func (n *Network) Hosts() []string {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]string, 0, len(n.hosts))
	for h := range n.hosts {
		out = append(out, h)
	}
	sortStrings(out)
	return out
}

// InstallTelemetry arms (nil disarms) run-time metrics on the network:
// every RoundTrip records its wall latency, per-exchange virtual
// latency, and any injected fault's class. Installing is cheap and
// atomic; a disarmed network costs RoundTrip one pointer load.
func (n *Network) InstallTelemetry(r *telemetry.Registry) {
	if r == nil {
		n.tele.Store(nil)
		return
	}
	n.tele.Store(r)
}

// RoundTrip delivers the request to the registered origin and returns its
// response. The request's Time field is stamped from the virtual clock,
// and a small per-exchange latency advances that clock so that consecutive
// requests never share a timestamp.
func (n *Network) RoundTrip(req *Request) (*Response, error) {
	tele := n.tele.Load()
	if tele == nil {
		return n.roundTrip(req)
	}
	start := time.Now() //lint:allow detclock wall-clock round-trip timing feeds telemetry percentiles, never outputs
	resp, err := n.roundTrip(req)
	tele.Inc(telemetry.CounterRoundTrips)
	tele.ObserveWall(telemetry.StageRoundTrip, time.Since(start)) //lint:allow detclock wall-clock round-trip timing feeds telemetry percentiles, never outputs
	tele.ObserveVirtual(telemetry.StageRoundTrip, latencyPerExchange)
	if fe, ok := AsFault(err); ok {
		tele.IncFault(string(fe.Class))
		tele.Emit(telemetry.Event{Type: "fault", Class: string(fe.Class)})
	} else if resp != nil && resp.Fault != "" {
		tele.IncFault(string(resp.Fault))
		tele.Emit(telemetry.Event{Type: "fault", Class: string(resp.Fault)})
	}
	return resp, err
}

func (n *Network) roundTrip(req *Request) (*Response, error) {
	if req.URL.IsZero() {
		return nil, errors.New("netsim: request has no URL")
	}
	if req.URL.Scheme != "http" && req.URL.Scheme != "https" {
		return nil, fmt.Errorf("netsim: unsupported scheme %q", req.URL.Scheme)
	}
	handler, ok := n.Lookup(req.URL.Host)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchHost, req.URL.Host)
	}
	if req.Method == "" {
		req.Method = http.MethodGet
	}
	if req.Header == nil {
		req.Header = make(http.Header)
	}
	if req.Time.IsZero() {
		// Ad-hoc senders use the network's shared clock; browsers stamp
		// their own per-profile clock before RoundTrip, keeping the crawl
		// timeline independent of cross-engine scheduling.
		req.Time = n.clock.Now()
		n.clock.Advance(latencyPerExchange)
	}
	var resp *Response
	if fs := n.faults.Load(); fs != nil {
		injected, err := fs.inject(req)
		if err != nil {
			// Connection-stage fault: no response ever reached the wire.
			return nil, err
		}
		resp = injected
	}
	if resp == nil {
		resp = handler.Serve(req)
	}
	if resp == nil {
		resp = NewResponse(http.StatusNoContent)
	}
	if n.keepWire.Load() {
		// The log keeps its own copy of the request: a browser reuses
		// its request storage from one crawl iteration to the next.
		logged := *req
		logged.Cookies = slices.Clone(req.Cookies)
		n.mu.Lock()
		n.wire = append(n.wire, WireEvent{Request: &logged, Response: resp})
		n.mu.Unlock()
	}
	return resp, nil
}

// LatencyPerExchange is the virtual time one HTTP exchange consumes;
// browser-side clocks advance by it per request.
const LatencyPerExchange = latencyPerExchange

// latencyPerExchange is the virtual time consumed by one HTTP exchange.
const latencyPerExchange = 35 * time.Millisecond

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// Clock is a virtual monotonic clock shared by the whole simulated world.
// The crawler advances it for page dwell time ("waiting for 15 seconds on
// the ad's destination website", §3.1) and for the next-day re-visit used
// to filter session identifiers (§3.2 filter iii).
type Clock struct {
	mu  sync.Mutex
	now time.Time
}

// NewClock returns a clock starting at the given instant.
func NewClock(start time.Time) *Clock { return &Clock{now: start} }

// Reset sets the clock to start, as NewClock(start) would.
func (c *Clock) Reset(start time.Time) {
	c.mu.Lock()
	c.now = start
	c.mu.Unlock()
}

// Now returns the current virtual time.
func (c *Clock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward by d (negative values are ignored).
func (c *Clock) Advance(d time.Duration) {
	if d < 0 {
		return
	}
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// Rewind moves the clock backward by d (negative values are ignored).
// The crawler uses it to undo the next-day revisit jump so a long crawl
// stays inside the study window; real time cannot rewind, but each
// iteration runs in a fresh profile, so no cross-iteration state can
// observe the rollback.
func (c *Clock) Rewind(d time.Duration) {
	if d < 0 {
		return
	}
	c.mu.Lock()
	c.now = c.now.Add(-d)
	c.mu.Unlock()
}
