package netsim

import (
	"strings"
	"time"

	"searchads/internal/urlx"
)

// Page is the parsed-document model delivered by HTML responses. The
// crawler scrapes it the way the paper's Puppeteer pipeline scraped real
// DOMs ("we use scrapping techniques to detect [ads] and rely on several
// HTML elements' attributes", §3.1).
type Page struct {
	Title string
	// Root is the document element tree.
	Root *Element
	// Resources are subresource fetches the browser performs on load.
	Resources []ResourceRef
	// Frames are iframe documents loaded with the page ("ads are either
	// part of the main page or are loaded through an iframe", §3.1).
	Frames []string
	// MetaRefresh, when non-empty, redirects the document after load,
	// like <meta http-equiv="refresh">.
	MetaRefresh string
	// JSRedirect, when non-empty, is a script-driven location change
	// executed after load (and after scripts run).
	JSRedirect string
}

// ResourceRef names a subresource the document includes.
type ResourceRef struct {
	URL  string
	Type ResourceType
}

// Element is a DOM-like node. Only the attributes the crawler inspects are
// modelled. They are stored as a flat slice of key/value pairs (key1,
// val1, key2, val2, ...) with distinct keys, in the order they were
// given: an element carries a handful, so a linear scan beats a map, and
// NewElement keeps its variadic slice as the storage. Read them with
// Attr and write them with SetAttr, which replaces a key in place.
type Element struct {
	Tag      string
	attrs    []string
	Text     string
	Children []*Element
	// OnClick lists beacon requests fired by click handlers before
	// navigation ("implemented with browser APIs like 'onclick' handlers
	// and 'ping' attributes", §4.2.1).
	OnClick []Beacon
}

// Beacon is a fire-and-forget request triggered by a click handler or a
// ping attribute.
type Beacon struct {
	Method string
	URL    string
	Type   ResourceType
	Body   string
}

// NewElement constructs an element with the given tag and attribute pairs
// (key1, val1, key2, val2, ...). The element takes kv as its attribute
// storage without copying it. It panics on an odd number of pairs or a
// repeated key, which are always programming errors in the simulator.
func NewElement(tag string, kv ...string) *Element {
	e := MakeElement(tag, kv...)
	return &e
}

// MakeElement is NewElement returning the element by value, for callers
// that lay a page's elements out in one array. SetAttr appends a new
// attribute to kv, so kv must have no spare capacity shared with other
// elements.
func MakeElement(tag string, kv ...string) Element {
	if len(kv)%2 != 0 {
		panic("netsim: NewElement attribute pairs must be even")
	}
	for i := 2; i < len(kv); i += 2 {
		for j := 0; j < i; j += 2 {
			if kv[i] == kv[j] {
				panic("netsim: NewElement attribute " + kv[i] + " given twice")
			}
		}
	}
	return Element{Tag: tag, attrs: kv}
}

// Attr returns the named attribute ("" when absent).
func (e *Element) Attr(name string) string {
	if e == nil {
		return ""
	}
	for i := 0; i < len(e.attrs); i += 2 {
		if e.attrs[i] == name {
			return e.attrs[i+1]
		}
	}
	return ""
}

// SetAttr sets the named attribute, replacing its value when the element
// already has it and appending it otherwise.
func (e *Element) SetAttr(name, value string) {
	for i := 0; i < len(e.attrs); i += 2 {
		if e.attrs[i] == name {
			e.attrs[i+1] = value
			return
		}
	}
	e.attrs = append(e.attrs, name, value)
}

// Append adds children and returns the element for chaining.
func (e *Element) Append(children ...*Element) *Element {
	e.Children = append(e.Children, children...)
	return e
}

// Walk visits the element and all descendants in document order. The walk
// stops early when fn returns false.
func (e *Element) Walk(fn func(*Element) bool) bool {
	if e == nil {
		return true
	}
	if !fn(e) {
		return false
	}
	for _, c := range e.Children {
		if !c.Walk(fn) {
			return false
		}
	}
	return true
}

// FindAll returns every descendant (including e) matching pred.
func (e *Element) FindAll(pred func(*Element) bool) []*Element {
	var out []*Element
	e.Walk(func(el *Element) bool {
		if pred(el) {
			out = append(out, el)
		}
		return true
	})
	return out
}

// Find returns the first descendant matching pred, or nil.
func (e *Element) Find(pred func(*Element) bool) *Element {
	var found *Element
	e.Walk(func(el *Element) bool {
		if pred(el) {
			found = el
			return false
		}
		return true
	})
	return found
}

// ByTag returns all descendants with the given tag.
func (e *Element) ByTag(tag string) []*Element {
	return e.FindAll(func(el *Element) bool { return el.Tag == tag })
}

// HrefsMatching returns all anchors whose href contains substr, the
// technique the paper uses to detect Google ads ("we use hyperlink values
// to detect Google ads since they all link to www.googleadservices.com/*").
func (e *Element) HrefsMatching(substr string) []*Element {
	return e.FindAll(func(el *Element) bool {
		return el.Tag == "a" && strings.Contains(el.Attr("href"), substr)
	})
}

// ScriptProgram is the behaviour carried by a script response. The browser
// runs it with a ScriptEnv scoped to the including document, giving the
// script the same powers a third-party tracking script has in a real
// browser: first-party storage access (document.cookie, localStorage),
// network requests, link decoration, and navigation.
type ScriptProgram interface {
	Run(env ScriptEnv)
}

// ScriptFunc adapts a function to ScriptProgram.
type ScriptFunc func(env ScriptEnv)

// Run invokes f.
func (f ScriptFunc) Run(env ScriptEnv) { f(env) }

// ScriptEnv is the browser-provided execution environment for scripts.
type ScriptEnv interface {
	// PageURL is the URL of the including document.
	PageURL() urlx.URL
	// FirstParty is the top-level site (eTLD+1) of the tab.
	FirstParty() string
	// Referrer is the including document's document.referrer value.
	Referrer() string
	// Now is the current virtual time (the browser profile's clock).
	Now() time.Time
	// Client is the browser profile's label (Request.Client); origin
	// servers scope identifier-minting streams by it.
	Client() string

	// SetDocumentCookie stores a first-party cookie via document.cookie
	// semantics (subject to the jar's partitioning rules).
	SetDocumentCookie(c *Cookie)
	// DocumentCookies lists cookies visible to the document.
	DocumentCookies() []*Cookie
	// LocalStorageSet writes to the document origin's localStorage.
	LocalStorageSet(key, value string)
	// LocalStorageGet reads from the document origin's localStorage.
	LocalStorageGet(key string) (string, bool)

	// Fetch issues a network request from the script (an XHR, pixel, or
	// beacon). The response's Set-Cookie headers are processed as
	// third-party cookies under the jar's policy.
	Fetch(method string, u urlx.URL, typ ResourceType, body string)

	// DecorateLinks rewrites every anchor href in the document through
	// fn, the mechanism behind UID smuggling by on-page scripts ("the
	// originator page itself or a tracker on the page—through a
	// script—decorates the URL", §2.2.2). fn returns the replacement
	// href, or the zero URL to leave the link unchanged.
	DecorateLinks(fn func(href urlx.URL) urlx.URL)

	// Redirect schedules a JS navigation of the top-level document.
	Redirect(to string)
}
