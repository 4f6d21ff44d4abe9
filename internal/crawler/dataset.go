// Package crawler implements the paper's measurement pipeline (§3.1):
// for each search query it starts from a fresh browser profile (each
// engine chain's browser, Reset to the state a new one has), loads the
// engine's main page, runs the query, scrapes the displayed ads, clicks
// one (preferring landing domains not yet visited), traces the full
// redirect chain, dwells 15 seconds on the destination, and records all
// cookies, localStorage values, and web requests at each step. An extra
// next-day iteration per browser instance feeds the session-identifier
// filter of §3.2.
package crawler

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"slices"
	"time"

	"searchads/internal/atomicfile"
	"searchads/internal/filterlist"
	"searchads/internal/netsim"
)

// RequestRecord is one recorded web request.
type RequestRecord struct {
	URL        string            `json:"url"`
	Method     string            `json:"method"`
	Type       string            `json:"type"`
	FirstParty string            `json:"first_party"`
	Initiator  string            `json:"initiator"`
	Referrer   string            `json:"referrer,omitempty"`
	ThirdParty bool              `json:"third_party"`
	Cookies    map[string]string `json:"cookies,omitempty"`
}

// FilterInfo converts the record into the filter engine's request form.
func (r RequestRecord) FilterInfo() filterlist.RequestInfo {
	return filterlist.RequestInfo{
		URL:        r.URL,
		Type:       netsim.ResourceType(r.Type),
		FirstParty: r.FirstParty,
		ThirdParty: r.ThirdParty,
	}
}

// RequestInfos converts a recorded request stream for
// filterlist.Engine.MatchBatch; the crawler's tracker annotations and
// the analysis pipeline share it.
func RequestInfos(recs []RequestRecord) []filterlist.RequestInfo {
	out := make([]filterlist.RequestInfo, len(recs))
	for i, r := range recs {
		out[i] = r.FilterInfo()
	}
	return out
}

// HopRecord is one step of the post-click navigation chain.
type HopRecord struct {
	URL            string   `json:"url"`
	Status         int      `json:"status"`
	Location       string   `json:"location,omitempty"`
	Mechanism      string   `json:"mechanism"`
	SetCookieNames []string `json:"set_cookie_names,omitempty"`
	// Retries counts extra attempts the browser's retry policy spent on
	// this hop (0 when the first attempt settled it).
	Retries int `json:"retries,omitempty"`
	// FaultClass classifies the failure when this hop ended the chain
	// ("" for successful hops) — per-hop loss attribution.
	FaultClass string `json:"fault_class,omitempty"`
}

// AdRecord describes one displayed ad.
type AdRecord struct {
	Href          string `json:"href"`
	LandingDomain string `json:"landing_domain"`
	Position      int    `json:"position"`
}

// CookieRecord is a cookie at rest after a stage.
type CookieRecord struct {
	PartitionKey string `json:"partition_key,omitempty"`
	Domain       string `json:"domain"`
	Name         string `json:"name"`
	Value        string `json:"value"`
}

// StorageRecord is a localStorage entry at rest.
type StorageRecord struct {
	PartitionKey string `json:"partition_key,omitempty"`
	Origin       string `json:"origin"`
	Key          string `json:"key"`
	Value        string `json:"value"`
}

// Iteration is the complete record of one crawl iteration.
type Iteration struct {
	Engine string `json:"engine"`
	// EngineHost is the engine's canonical host; path analysis derives
	// the origin site from it.
	EngineHost string `json:"engine_host"`
	Index      int    `json:"index"`
	Instance   string `json:"instance"`
	Query      string `json:"query"`

	// SERPRequests are the requests recorded while loading the engine
	// home page and results page (the "before clicking" stage, §4.1).
	SERPRequests []RequestRecord `json:"serp_requests"`
	// SERPCookies is first-party storage after the results page loaded.
	SERPCookies []CookieRecord `json:"serp_cookies"`

	// DisplayedAds lists the scraped ads.
	DisplayedAds []AdRecord `json:"displayed_ads"`
	// ClickedAd is the index into DisplayedAds (-1 if none).
	ClickedAd int `json:"clicked_ad"`

	// ClickRequests are requests fired between the click and the
	// destination settling: beacons and chain hops (§4.2).
	ClickRequests []RequestRecord `json:"click_requests"`
	// Hops is the navigation chain from the click to the destination.
	Hops []HopRecord `json:"hops"`
	// FinalURL is the settled destination URL (with query parameters —
	// the UID-smuggling surface of §4.3.2).
	FinalURL string `json:"final_url"`
	// FinalReferrer is the destination document's document.referrer —
	// the channel referrer-based UID smuggling uses (paper §5).
	FinalReferrer string `json:"final_referrer,omitempty"`

	// DestRequests are requests made by the destination page during the
	// 15-second dwell (§4.3.1).
	DestRequests []RequestRecord `json:"dest_requests"`

	// Cookies / LocalStorage are the profile contents after the dwell.
	Cookies      []CookieRecord  `json:"cookies"`
	LocalStorage []StorageRecord `json:"local_storage"`

	// RevisitCookies / RevisitLocalStorage are the profile contents
	// after the next-day revisit (§3.2 filter iii).
	RevisitCookies      []CookieRecord  `json:"revisit_cookies,omitempty"`
	RevisitLocalStorage []StorageRecord `json:"revisit_local_storage,omitempty"`

	// CrawlerRequestCount / ExtensionRequestCount support the §3.1
	// recorder-coverage check (97% median).
	CrawlerRequestCount   int `json:"crawler_request_count"`
	ExtensionRequestCount int `json:"extension_request_count"`

	// SERPTrackerCount / ClickTrackerCount / DestTrackerCount are
	// per-stage filter-list match counts, populated when the crawl was
	// configured with a filter engine (Config.Filter).
	SERPTrackerCount  int `json:"serp_tracker_count,omitempty"`
	ClickTrackerCount int `json:"click_tracker_count,omitempty"`
	DestTrackerCount  int `json:"dest_tracker_count,omitempty"`

	// Error records a failed iteration ("" on success) — the free-form
	// display string. ErrorClass is the typed form consumers branch on
	// (see ErrorClass).
	Error      string `json:"error,omitempty"`
	ErrorClass string `json:"error_class,omitempty"`

	// Outcome is the iteration's fate under faults and the adversary
	// (recovered/lost/abandoned, see the Outcome* constants; empty for a
	// clean iteration or an organic no-ads one). Rotations and
	// CaptchaSolves count the countermeasure budgets it spent. All three
	// are stamped on every iteration and omitted from the JSON when
	// empty, so a crawl nothing disturbed carries none of them.
	Outcome       string `json:"outcome,omitempty"`
	Rotations     int    `json:"rotations,omitempty"`
	CaptchaSolves int    `json:"captcha_solves,omitempty"`
}

// DatasetVersion is the dataset schema revision this release reads and
// writes. Version 2 added typed error classes and per-hop retry/fault
// records; version 3 added the arms-race outcome accounting (Outcome,
// Rotations, CaptchaSolves).
const DatasetVersion = 3

// ErrDatasetVersion is wrapped by Load for a file whose schema version
// is not DatasetVersion: one saved by an earlier release (no version
// key, 1 or 2) or by a newer one. Re-crawl to get a file this release
// reads.
var ErrDatasetVersion = errors.New("crawler: unsupported dataset schema version")

// Dataset is a complete crawl output.
type Dataset struct {
	// Version is the schema revision the dataset was saved with: Save
	// writes DatasetVersion for every dataset (leaving this field as
	// it is), and Load refuses any other with ErrDatasetVersion.
	Version     int       `json:"version,omitempty"`
	Seed        int64     `json:"seed"`
	StorageMode string    `json:"storage_mode"`
	CreatedAt   time.Time `json:"created_at"`
	// FilterAnnotated records that the crawl ran with Config.Filter, so
	// a serialized iteration whose tracker counts are zero (omitted by
	// omitempty) is distinguishable from one that was never matched.
	FilterAnnotated bool         `json:"filter_annotated,omitempty"`
	Iterations      []*Iteration `json:"iterations"`
}

// ByEngine groups iterations by engine name, preserving order.
func (d *Dataset) ByEngine() map[string][]*Iteration {
	out := make(map[string][]*Iteration)
	for _, it := range d.Iterations {
		out[it.Engine] = append(out[it.Engine], it)
	}
	return out
}

// Engines returns the engine names present, in first-seen order.
func (d *Dataset) Engines() []string {
	var names []string
	seen := map[string]bool{}
	for _, it := range d.Iterations {
		if !seen[it.Engine] {
			seen[it.Engine] = true
			names = append(names, it.Engine)
		}
	}
	return names
}

// Save writes the dataset, stamped with DatasetVersion whatever
// d.Version holds, as JSON indented one space per level, atomically: the
// bytes land in a temporary file that is fsynced and renamed over the
// destination, so a SIGINT or crash mid-save leaves either the previous
// dataset or the new one — never a truncated hybrid. The file is mode
// 0644. Save only reads d, so goroutines may save one dataset
// concurrently. The bytes are those of json.MarshalIndent of a copy of
// d whose Version is DatasetVersion, with one exception: a nil entry in
// Iterations, which Load would refuse as null, is an error and nothing
// is written. They are encoded in one pass with no
// reflection, and Save fails exactly where json.MarshalIndent would: on
// a CreatedAt that time.Time cannot write in RFC 3339, such as one in
// year 10000.
func (d *Dataset) Save(path string) error {
	chunks, err := d.encode()
	if err != nil {
		return fmt.Errorf("crawler: encode dataset: %w", err)
	}
	if err := atomicfile.WriteFile(path, chunks...); err != nil {
		return fmt.Errorf("crawler: write dataset: %w", err)
	}
	return nil
}

// Load reads a dataset written by Save. The result is the Dataset
// json.Unmarshal decodes from the file, nil and empty slices and maps
// included, with one exception: a null entry in "iterations", which no
// consumer can read, is refused as a parse error. A file in the shape
// Save writes is read in one pass with no reflection, and its strings
// are interned per load: equal values share one allocation, and the
// dataset keeps no reference to the file's bytes. Anything else —
// unknown, case-folded or repeated keys, non-integer numbers, syntax
// errors — is decoded by encoding/json. A file whose version is not
// DatasetVersion is refused with an error wrapping ErrDatasetVersion.
func Load(path string) (*Dataset, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("crawler: read dataset: %w", err)
	}
	d, err := parseDataset(data)
	if err != nil {
		return nil, fmt.Errorf("crawler: parse dataset: %w", err)
	}
	if d.Version != DatasetVersion {
		return nil, fmt.Errorf("%w: version %d (this release reads %d)", ErrDatasetVersion, d.Version, DatasetVersion)
	}
	return d, nil
}

// parseDataset is Load without the file read and the version check.
func parseDataset(data []byte) (*Dataset, error) {
	if d, ok := decodeDataset(data); ok {
		return d, nil
	}
	var d Dataset
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, err
	}
	if i := slices.Index(d.Iterations, nil); i >= 0 {
		return nil, fmt.Errorf("iteration %d is null", i)
	}
	return &d, nil
}
