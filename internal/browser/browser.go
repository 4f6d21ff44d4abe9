// Package browser models the instrumented browser the paper drives with
// Puppeteer (§3.1): top-level navigation with full redirect chasing
// (HTTP 30x, meta refresh, and JS location changes), subresource and
// iframe loading, script execution with first-party storage access, click
// handling (onclick handlers and ping attributes), and request recording.
//
// Two recorders run side by side: the crawler's own log and an
// "extension" log, reproducing the paper's cross-check ("We use a Chrome
// extension alongside Puppeteer crawlers to record web requests during
// all the crawling time ... In median, the crawlers recorded 97% of the
// requests recorded by the extension").
package browser

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"searchads/internal/detrand"
	"searchads/internal/netsim"
	"searchads/internal/storage"
	"searchads/internal/telemetry"
	"searchads/internal/urlx"
)

// Fingerprint is the surface websites can probe for bot detection. The
// stealth plugin the paper uses ("puppeteer-extra-plugin-stealth ...
// applies various techniques to make the detection of headless Puppeteer
// crawlers by websites harder") manipulates exactly these signals.
type Fingerprint struct {
	UserAgent string
	// Headless leaks through the default headless-Chrome user agent.
	Headless bool
	// WebDriver is the navigator.webdriver flag.
	WebDriver bool
	// Plugins is the plugin count (zero in naive headless browsers).
	Plugins int
	// Languages is the navigator.languages length.
	Languages int
}

// DefaultHeadlessFingerprint is what a bare Puppeteer browser exposes.
func DefaultHeadlessFingerprint() Fingerprint {
	return Fingerprint{
		UserAgent: "Mozilla/5.0 (X11; Linux x86_64) HeadlessChrome/106.0",
		Headless:  true,
		WebDriver: true,
		Plugins:   0,
		Languages: 0,
	}
}

// StealthFingerprint is the surface after puppeteer-extra-plugin-stealth.
func StealthFingerprint() Fingerprint {
	return Fingerprint{
		UserAgent: "Mozilla/5.0 (X11; Linux x86_64) Chrome/106.0.0.0 Safari/537.36",
		Headless:  false,
		WebDriver: false,
		Plugins:   3,
		Languages: 2,
	}
}

// Options configure a browser instance.
type Options struct {
	// StorageMode selects flat or partitioned cookie/localStorage
	// behaviour (§2.2.1).
	StorageMode storage.Mode
	// CaptureProb is the probability the crawler-side recorder captures
	// any given request; the extension recorder always captures. 0 means
	// 1.0 (capture everything).
	CaptureProb float64
	// Fingerprint is the bot-detection surface; zero value means the
	// stealth fingerprint.
	Fingerprint Fingerprint
	// Seed drives the recorder's capture-loss stream. The zero Source
	// falls back to a fixed default stream.
	Seed detrand.Source
	// MaxRedirects caps a navigation's hop chain. 0 means 25.
	MaxRedirects int
	// Client labels this browser profile on every request it sends (see
	// netsim.Request.Client); the crawler passes its iteration instance.
	Client string
	// Retry bounds document-navigation retries against injected faults
	// (zero fields take the defaults — 3 attempts, 500ms base backoff
	// capped at 8s, all on the browser's virtual clock).
	Retry RetryPolicy
	// Countermeasures arms the anti-adversary survival kit — pacing,
	// session rotation, CAPTCHA solving (zero value = fully disarmed,
	// byte-identical to the pre-arms-race browser).
	Countermeasures Countermeasures
	// Telemetry records navigation latency and retry/backoff counts
	// (nil = off).
	Telemetry *telemetry.Registry
}

// Hop is one step of a navigation chain, as reconstructed by the paper's
// methodology ("we trace the series of URLs the browser navigates
// through after clicking an ad", §3.2).
type Hop struct {
	// URL is the document URL requested at this hop.
	URL string
	// Status is the HTTP status returned.
	Status int
	// Location is the Location header for 30x hops ("" otherwise).
	Location string
	// Mechanism is how the browser got here: "initial", "http" (30x),
	// "meta" (meta refresh), or "js" (script-driven location change).
	Mechanism string
	// SetCookieNames lists cookies set by this hop's response.
	SetCookieNames []string
	// Retries counts the extra attempts the retry policy spent on this
	// hop (0 when the first attempt settled it).
	Retries int
	// FaultClass classifies the failure when this hop ended the
	// navigation: injected faults carry their class, and an organic
	// resolution failure classifies as dns. "" for successful hops.
	FaultClass netsim.FaultClass
}

// NavResult is the outcome of a top-level navigation. The browser owns
// it: the result, its Hops and every hop's SetCookieNames are built in
// storage the next Navigate, Click or Reset rewinds, so a result is
// valid until then. Copy out what must outlive it.
type NavResult struct {
	// FinalURL is the settled document URL (zero if none settled).
	FinalURL urlx.URL
	// Page is the settled document.
	Page *netsim.Page
	// Hops is the navigation chain, including the initial request and
	// the final document.
	Hops []Hop
}

// Browser is one instance. The paper runs "each iteration in a new
// browser instance to ensure no stale data is cached from previous
// iterations"; the crawler keeps one Browser per engine chain and
// restores it to that fresh-profile state with Reset before each
// iteration after the first. Reset leaves exactly the state New builds,
// so an iteration's bytes do not depend on which of the two made its
// browser.
//
// The browser owns the storage of its request path: the requests it
// sends come from its request slab and the cookies attached to them
// from its cookie slab. Both are rewound by Reset, so the requests in
// the two logs, and the cookie lists they carry, are valid until the
// next Reset; a request kept past it reads as zero values. A
// navigation's result (NavResult) lives in browser storage too, valid
// until the next Navigate, Click or Reset.
type Browser struct {
	net   *netsim.Network
	jar   *storage.Jar
	local *storage.LocalStorage
	opts  Options
	// clock is the browser's own virtual clock, started from the
	// network clock at construction. Each profile advancing private time
	// keeps an iteration's timeline — and therefore every timestamp an
	// origin server observes — independent of how many other profiles
	// run concurrently, which Parallel-crawl byte-identity relies on.
	clock *netsim.Clock
	// baseHeader carries the fingerprint headers shared (read-only) by
	// every request this browser sends; one map for the whole profile
	// instead of one per request.
	baseHeader http.Header

	captureRand detrand.Source
	captureN    int

	// Arms-race state: baseClient keeps the label New was given so
	// session rotation can mint "-rN" successors; paceRand/paceN drive
	// the pacing jitter stream; signals/rotations/solves track the
	// countermeasure budgets spent so far.
	baseClient string
	paceRand   detrand.Source
	paceN      int
	signals    int
	rotations  int
	solves     int

	crawlerLog   []*netsim.Request
	extensionLog []*netsim.Request

	// reqSlab holds the requests sent since New or Reset, reqN of them,
	// in fixed-size chunks that never move, so the logs' pointers stay
	// valid while the slab grows.
	reqSlab [][]netsim.Request
	reqN    int
	// cookieSlab is the append-only backing of every request's (and
	// every document.cookie read's) cookie list since New or Reset.
	cookieSlab []*netsim.Cookie
	// nav is the current public navigation's result and navNames the
	// backing of its hops' SetCookieNames; both are rewound by the next
	// Navigate, Click or Reset.
	nav      NavResult
	navNames []string

	currentURL urlx.URL
	page       *netsim.Page
	firstParty string
	// docReferrer is the settled document's document.referrer value.
	docReferrer string

	pendingRedirect string
}

// reqChunk is the number of requests in one request-slab chunk.
const reqChunk = 64

// withDefaults fills the unset options the way New documents them.
func (opts Options) withDefaults() Options {
	if opts.CaptureProb == 0 {
		opts.CaptureProb = 1.0
	}
	if opts.MaxRedirects == 0 {
		opts.MaxRedirects = 25
	}
	if opts.Fingerprint == (Fingerprint{}) {
		opts.Fingerprint = StealthFingerprint()
	}
	if opts.Seed == (detrand.Source{}) {
		opts.Seed = detrand.New(1)
	}
	opts.Retry = opts.Retry.withDefaults()
	opts.Countermeasures = opts.Countermeasures.withDefaults()
	return opts
}

// fingerprintHeader builds the request headers a fingerprint exposes.
func fingerprintHeader(fp Fingerprint) http.Header {
	h := make(http.Header, 3)
	h.Set("User-Agent", fp.UserAgent)
	if fp.Headless {
		h.Set("X-Headless", "1")
	}
	if fp.WebDriver {
		h.Set("X-Webdriver", "1")
	}
	return h
}

// New constructs a browser on the given network.
func New(net *netsim.Network, opts Options) *Browser {
	b := &Browser{}
	b.Reset(net, opts)
	return b
}

// Reset turns b into the browser New(net, opts) would build: an empty
// jar and localStorage, a clock restarted from the network clock, the
// recorder and pacing streams re-derived from opts.Seed, zeroed
// countermeasure budgets, and no document. The storage b already owns —
// jar and localStorage maps, clock, logs, request and cookie slabs — is
// emptied in place and reused. Requests handed out before Reset read as
// zero values after it.
func (b *Browser) Reset(net *netsim.Network, opts Options) {
	opts = opts.withDefaults()
	jar, local := b.jar, b.local
	if jar == nil || jar.Mode() != opts.StorageMode {
		jar = storage.NewJar(opts.StorageMode)
		local = storage.NewLocalStorage(opts.StorageMode)
	} else {
		jar.Clear()
		local.Clear()
	}
	clock := b.clock
	if clock == nil {
		clock = netsim.NewClock(net.Clock().Now())
	} else {
		clock.Reset(net.Clock().Now())
	}
	header := b.baseHeader
	if header == nil || opts.Fingerprint != b.opts.Fingerprint {
		header = fingerprintHeader(opts.Fingerprint)
	}
	crawlerLog, extensionLog := b.crawlerLog, b.extensionLog
	if crawlerLog == nil {
		crawlerLog = make([]*netsim.Request, 0, 96)
		extensionLog = make([]*netsim.Request, 0, 96)
	}
	clear(crawlerLog)
	clear(extensionLog)
	for i, n := 0, b.reqN; n > 0; i, n = i+1, n-reqChunk {
		clear(b.reqSlab[i][:min(n, reqChunk)])
	}
	clear(b.cookieSlab)
	clear(b.nav.Hops)
	clear(b.navNames)
	*b = Browser{
		net:          net,
		jar:          jar,
		local:        local,
		opts:         opts,
		clock:        clock,
		baseHeader:   header,
		captureRand:  opts.Seed.Derive("capture"),
		baseClient:   opts.Client,
		paceRand:     opts.Seed.Derive("pace"),
		crawlerLog:   crawlerLog[:0],
		extensionLog: extensionLog[:0],
		reqSlab:      b.reqSlab,
		cookieSlab:   b.cookieSlab[:0],
		nav:          NavResult{Hops: b.nav.Hops[:0]},
		navNames:     b.navNames[:0],
	}
}

// beginNav rewinds the navigation result storage for a new public
// navigation.
func (b *Browser) beginNav() {
	b.nav = NavResult{Hops: b.nav.Hops[:0]}
	b.navNames = b.navNames[:0]
}

// newRequest returns the next zeroed request of the request slab.
func (b *Browser) newRequest() *netsim.Request {
	c, i := b.reqN/reqChunk, b.reqN%reqChunk
	if c == len(b.reqSlab) {
		b.reqSlab = append(b.reqSlab, make([]netsim.Request, reqChunk))
	}
	b.reqN++
	return &b.reqSlab[c][i]
}

// cookiesFor appends the cookies the jar attaches to a request for u to
// the cookie slab and returns them (nil when none match). The returned
// slice has no spare capacity, so appending to it copies rather than
// overwriting the slab.
func (b *Browser) cookiesFor(now time.Time, u urlx.URL, firstParty string, topLevelNav bool) []*netsim.Cookie {
	start := len(b.cookieSlab)
	b.cookieSlab = b.jar.AppendCookies(b.cookieSlab, now, u, firstParty, topLevelNav)
	end := len(b.cookieSlab)
	if end == start {
		return nil
	}
	return b.cookieSlab[start:end:end]
}

// Clock returns the browser's private virtual clock.
func (b *Browser) Clock() *netsim.Clock { return b.clock }

// Jar exposes the cookie jar for dataset dumps.
func (b *Browser) Jar() *storage.Jar { return b.jar }

// LocalStorage exposes DOM storage for dataset dumps.
func (b *Browser) LocalStorage() *storage.LocalStorage { return b.local }

// CrawlerRequests returns the crawler-side request log.
func (b *Browser) CrawlerRequests() []*netsim.Request { return b.crawlerLog }

// ExtensionRequests returns the extension-side request log (always
// complete).
func (b *Browser) ExtensionRequests() []*netsim.Request { return b.extensionLog }

// Page returns the settled top-level document (nil before navigation).
func (b *Browser) Page() *netsim.Page { return b.page }

// FirstParty returns the current top-level site.
func (b *Browser) FirstParty() string { return b.firstParty }

// DocumentReferrer returns the settled document's document.referrer.
func (b *Browser) DocumentReferrer() string { return b.docReferrer }

// send issues one request through the network with cookies attached, logs
// it on both recorders, and stores response cookies.
func (b *Browser) send(req *netsim.Request, topLevelNav bool) (*netsim.Response, error) {
	now := b.clock.Now()
	req.Cookies = b.cookiesFor(now, req.URL, req.FirstParty, topLevelNav)
	if req.Header == nil {
		// The fingerprint headers are identical for every request of
		// this profile; handlers only read them, so one shared map does.
		req.Header = b.baseHeader
	}
	req.Client = b.opts.Client
	req.Time = now
	b.clock.Advance(netsim.LatencyPerExchange)

	resp, err := b.net.RoundTrip(req)

	// The extension records everything, including failed requests; the
	// crawler drops a deterministic fraction ("it does not guarantee
	// that it can attach request handlers to a web page before it sends
	// any requests", §3.1).
	b.extensionLog = append(b.extensionLog, req)
	b.captureN++
	g := b.captureRand.DeriveN("req", b.captureN).Rand()
	if detrand.Bernoulli(&g, b.opts.CaptureProb) {
		b.crawlerLog = append(b.crawlerLog, req)
	}
	if err != nil {
		return nil, err
	}
	if len(resp.SetCookies) > 0 {
		b.jar.SetCookies(b.clock.Now(), req.URL, req.FirstParty, resp.SetCookies)
	}
	return resp, nil
}

// ErrTooManyRedirects is returned when a navigation loops past the
// configured hop budget.
var ErrTooManyRedirects = errors.New("browser: too many redirects")

// Navigate performs a top-level navigation, following HTTP redirects,
// meta refreshes, and script-driven location changes until the document
// settles, then loads the settled page's subresources and frames and runs
// its scripts.
func (b *Browser) Navigate(rawURL string) (*NavResult, error) {
	b.pace()
	defer b.observeNavigation()()
	b.beginNav()
	return b.navigate(rawURL, "initial", "")
}

// observeNavigation times one public navigation (Navigate or Click) on
// both clocks. It wraps only the public entry points: the internal
// navigate recurses for meta-refresh and JS-driven hops, and those must
// not double-count.
func (b *Browser) observeNavigation() func() {
	tele := b.opts.Telemetry
	if tele == nil {
		return func() {}
	}
	start := time.Now() //lint:allow detclock wall-clock navigate timing feeds telemetry percentiles, never outputs
	vstart := b.clock.Now()
	return func() {
		tele.Inc(telemetry.CounterNavigations)
		tele.ObserveWall(telemetry.StageNavigate, time.Since(start)) //lint:allow detclock wall-clock navigate timing feeds telemetry percentiles, never outputs
		tele.ObserveVirtual(telemetry.StageNavigate, b.clock.Now().Sub(vstart))
	}
}

// navigate starts a navigation to a raw URL: an absolute one as parsed,
// a relative one resolved against the current document. Its hops extend
// the public navigation's result (b.nav), whose settled document is this
// navigation's (none when the URL is bad).
func (b *Browser) navigate(rawURL, mechanism, referrer string) (*NavResult, error) {
	u, err := urlx.Parse(rawURL)
	if err == nil && u.Scheme == "" && !b.currentURL.IsZero() {
		u, err = urlx.Resolve(b.currentURL, rawURL)
	}
	if err != nil {
		b.nav.FinalURL, b.nav.Page = urlx.URL{}, nil
		return &b.nav, fmt.Errorf("browser: bad navigation URL %q: %w", rawURL, err)
	}
	return b.follow(u, mechanism, referrer)
}

// follow navigates to u and chases its redirects until the document
// settles, appending each hop to b.nav. Each hop's URL is built once: a
// 30x Location resolves straight into the next hop's request URL.
func (b *Browser) follow(u urlx.URL, mechanism, referrer string) (*NavResult, error) {
	res := &b.nav
	res.FinalURL, res.Page = urlx.URL{}, nil
	for hop := 0; ; hop++ {
		if hop >= b.opts.MaxRedirects {
			return res, fmt.Errorf("%w: %d hops reaching %s", ErrTooManyRedirects, hop, u)
		}
		site := urlx.RegistrableDomain(u.Host)
		req := b.newRequest()
		*req = netsim.Request{
			Method:     http.MethodGet,
			URL:        u,
			Type:       netsim.TypeDocument,
			FirstParty: site, // at commit, the target becomes first party
			Initiator:  mechanism,
			Referrer:   referrer,
		}
		resp, retries, err := b.sendDocument(req)
		if err != nil {
			// Record the failing hop so the dataset can attribute the
			// loss: which URL, how it failed, how hard the browser tried.
			h := Hop{URL: u.String(), Mechanism: mechanism, Retries: retries,
				FaultClass: errorClassOf(resp, err)}
			if resp != nil {
				h.Status = resp.Status
			}
			res.Hops = append(res.Hops, h)
			return res, err
		}
		h := Hop{URL: u.String(), Status: resp.Status, Mechanism: mechanism, Retries: retries}
		if n := len(resp.SetCookies); n > 0 {
			start := len(b.navNames)
			for _, c := range resp.SetCookies {
				b.navNames = append(b.navNames, c.Name)
			}
			h.SetCookieNames = b.navNames[start : start+n : start+n]
		}
		if loc, ok := resp.Location(); ok && resp.IsRedirect() {
			h.Location = loc
			res.Hops = append(res.Hops, h)
			u, err = urlx.Resolve(u, loc)
			if err != nil {
				return res, err
			}
			mechanism = "http"
			continue
		}
		res.Hops = append(res.Hops, h)

		// Document settled at u. document.referrer keeps the value the
		// navigation carried (unchanged across 30x hops).
		b.currentURL = u
		b.firstParty = site
		b.page = resp.Page
		b.docReferrer = referrer
		res.FinalURL = u
		res.Page = resp.Page

		if resp.Page == nil {
			return res, nil
		}
		if redirect := b.loadPage(resp.Page, u, site); redirect != "" {
			mech := "js"
			if redirect == resp.Page.MetaRefresh {
				mech = "meta"
			}
			// Meta/JS redirects make the redirecting document the next
			// referrer — which is how referrer-based UID smuggling
			// passes identifiers (paper §5).
			return b.navigate(redirect, mech, u.String())
		}
		return res, nil
	}
}

// loadPage fetches the page's subresources and frames and runs scripts.
// It returns a pending redirect target ("" if none): meta refresh takes
// effect after load; scripts may also call Redirect.
func (b *Browser) loadPage(p *netsim.Page, pageURL urlx.URL, firstParty string) string {
	b.pendingRedirect = ""
	b.fetchResources(p, pageURL, firstParty)
	for _, frameRef := range p.Frames {
		b.loadFrame(frameRef, pageURL, firstParty, p)
	}
	if b.pendingRedirect != "" {
		return b.pendingRedirect
	}
	if p.MetaRefresh != "" {
		return p.MetaRefresh
	}
	if p.JSRedirect != "" {
		return p.JSRedirect
	}
	return ""
}

func (b *Browser) fetchResources(p *netsim.Page, pageURL urlx.URL, firstParty string) {
	for _, ref := range p.Resources {
		u, err := urlx.Resolve(pageURL, ref.URL)
		if err != nil {
			continue
		}
		req := b.newRequest()
		*req = netsim.Request{
			Method:     http.MethodGet,
			URL:        u,
			Type:       ref.Type,
			FirstParty: firstParty,
			Initiator:  "page",
			Referrer:   pageURL.String(),
		}
		resp, err := b.send(req, false)
		if err != nil {
			continue // missing resources don't fail page loads
		}
		if resp.Script != nil {
			env := &scriptEnv{b: b, page: p, pageURL: pageURL, firstParty: firstParty, srcHost: u.Host}
			resp.Script.Run(env)
		}
	}
}

// loadFrame loads an iframe document: its ads become scrapeable alongside
// the parent ("ads are either part of the main page or are loaded through
// an iframe", §3.1).
func (b *Browser) loadFrame(frameRef string, pageURL urlx.URL, firstParty string, parent *netsim.Page) {
	u, err := urlx.Resolve(pageURL, frameRef)
	if err != nil {
		return
	}
	req := b.newRequest()
	*req = netsim.Request{
		Method:     http.MethodGet,
		URL:        u,
		Type:       netsim.TypeSubdocument,
		FirstParty: firstParty,
		Initiator:  "page",
	}
	resp, err := b.send(req, false)
	if err != nil || resp.Page == nil {
		return
	}
	// Graft the frame's DOM under the parent so element queries see it.
	if parent.Root != nil && resp.Page.Root != nil {
		parent.Root.Append(resp.Page.Root)
	}
	b.fetchResources(resp.Page, u, firstParty)
}

// Click fires the element's click handlers and ping attributes, then
// navigates to its href. This is the paper's ad-click step (§4.2.1).
func (b *Browser) Click(el *netsim.Element) (*NavResult, error) {
	if el == nil {
		return nil, errors.New("browser: click on nil element")
	}
	if b.currentURL.IsZero() {
		return nil, errors.New("browser: click before any navigation")
	}
	// onclick beacons fire on the originating page, before navigation
	// ("after the user clicks on an ad but before the browser begins
	// navigating away", §4.2.1).
	for _, beacon := range el.OnClick {
		b.fireBeacon(beacon)
	}
	if ping := el.Attr("ping"); ping != "" {
		b.fireBeacon(netsim.Beacon{Method: http.MethodPost, URL: ping, Type: netsim.TypePing})
	}
	href := el.Attr("href")
	if href == "" {
		return nil, errors.New("browser: clicked element has no href")
	}
	u, err := urlx.Resolve(b.currentURL, href)
	if err != nil {
		return nil, err
	}
	b.pace()
	defer b.observeNavigation()()
	b.beginNav()
	return b.follow(u, "initial", b.currentURL.String())
}

func (b *Browser) fireBeacon(beacon netsim.Beacon) {
	u, err := urlx.Resolve(b.currentURL, beacon.URL)
	if err != nil {
		return
	}
	typ := beacon.Type
	if typ == "" {
		typ = netsim.TypePing
	}
	method := beacon.Method
	if method == "" {
		method = http.MethodPost
	}
	req := b.newRequest()
	*req = netsim.Request{
		Method:     method,
		URL:        u,
		Type:       typ,
		FirstParty: b.firstParty,
		Initiator:  "click",
		Body:       beacon.Body,
	}
	b.send(req, false) // beacon failures are fire-and-forget
}

// Dwell advances the browser's virtual time, modelling the paper's
// 15-second stay on destination pages ("waiting for 15 seconds on the
// ad's destination website").
func (b *Browser) Dwell() {
	b.clock.Advance(15 * time.Second)
}
