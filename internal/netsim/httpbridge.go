package netsim

import (
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"

	"searchads/internal/urlx"
)

// HTTPBridge adapts a virtual Network to net/http so the simulated web can
// be served on a real listener (see cmd/servesim). Pages are rendered to a
// minimal HTML form; script behaviours cannot cross the bridge and are
// served as stub bodies.
type HTTPBridge struct {
	Net *Network
}

// ServeHTTP implements http.Handler by translating the incoming request
// into a virtual one, routing it by Host, and writing the virtual response
// back out.
func (b *HTTPBridge) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	u := *r.URL
	if u.Host == "" {
		u.Host = r.Host
	}
	if u.Scheme == "" {
		u.Scheme = "http"
	}
	vreq := &Request{
		Method: r.Method,
		URL:    urlx.FromURL(&u),
		Header: r.Header.Clone(),
		Type:   TypeDocument,
	}
	for _, hc := range r.Cookies() {
		vreq.Cookies = append(vreq.Cookies, NewCookie(hc.Name, hc.Value))
	}
	if r.Body != nil {
		body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
		if err == nil {
			vreq.Body = string(body)
		}
	}
	resp, err := b.Net.RoundTrip(vreq)
	if err != nil {
		// Classify through the fault taxonomy rather than leaking raw
		// error text to the wire: the prose of internal errors is not
		// an API, and injected faults carry a typed class that maps
		// onto the gateway statuses a real proxy would return.
		status, msg := http.StatusBadGateway, "virtual network error"
		if fe, ok := AsFault(err); ok {
			msg = "upstream fault: " + string(fe.Class)
			if fe.Class == FaultTimeout {
				status = http.StatusGatewayTimeout
			}
		}
		http.Error(w, msg, status)
		return
	}
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	for _, c := range resp.SetCookies {
		w.Header().Add("Set-Cookie", c.String())
	}
	body := resp.Body
	if body == "" && resp.Page != nil {
		body = RenderHTML(resp.Page)
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(resp.Status)
	io.WriteString(w, body)
}

// RenderHTML serialises a Page to minimal HTML, used by the bridge and by
// diagnostics. The output is intentionally plain: enough structure for a
// human (or curl) to see what the simulated origin served.
func RenderHTML(p *Page) string {
	var b strings.Builder
	b.WriteString("<!doctype html><html><head><title>")
	b.WriteString(htmlEscape(p.Title))
	b.WriteString("</title>")
	for _, res := range p.Resources {
		switch res.Type {
		case TypeScript:
			b.WriteString(`<script src="` + htmlEscape(res.URL) + `"></script>`)
		case TypeStylesheet:
			b.WriteString(`<link rel="stylesheet" href="` + htmlEscape(res.URL) + `">`)
		}
	}
	b.WriteString("</head><body>")
	renderElement(&b, p.Root)
	for _, res := range p.Resources {
		if res.Type == TypeImage {
			b.WriteString(`<img src="` + htmlEscape(res.URL) + `">`)
		}
	}
	for _, f := range p.Frames {
		b.WriteString(`<iframe src="` + htmlEscape(f) + `"></iframe>`)
	}
	b.WriteString("</body></html>")
	return b.String()
}

func renderElement(b *strings.Builder, e *Element) {
	if e == nil {
		return
	}
	b.WriteString("<" + e.Tag)
	// Attributes are written in sorted key order, whatever order the
	// element was built in.
	keys := make([]int, 0, len(e.attrs)/2)
	for i := 0; i < len(e.attrs); i += 2 {
		keys = append(keys, i)
	}
	slices.SortFunc(keys, func(a, b int) int { return strings.Compare(e.attrs[a], e.attrs[b]) })
	for _, i := range keys {
		b.WriteString(" " + e.attrs[i] + `="` + htmlEscape(e.attrs[i+1]) + `"`)
	}
	b.WriteString(">")
	b.WriteString(htmlEscape(e.Text))
	for _, c := range e.Children {
		renderElement(b, c)
	}
	b.WriteString("</" + e.Tag + ">")
}

func htmlEscape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
