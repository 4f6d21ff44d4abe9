package analysis

import (
	"context"
	"errors"
	"sync"

	"searchads/internal/crawler"
	"searchads/internal/entities"
	"searchads/internal/filterlist"
	"searchads/internal/tokens"
)

// Report is the full §4 analysis of a dataset, one entry per engine plus
// global results.
type Report struct {
	// Table1 summarises the crawl (queries, destinations, paths).
	Table1 map[string]Table1Row
	// Before is §4.1 (first-party re-identification, SERP trackers).
	Before map[string]BeforeResult
	// During is §4.2 (beacons, navigation tracking: Figures 4/5,
	// Tables 2/3/4/7).
	During map[string]*DuringResult
	// After is §4.3 (destination trackers: Table 5; UID smuggling:
	// Table 6; persistence).
	After map[string]*AfterResult
	// Funnel is the §3.2 token funnel.
	Funnel FunnelResult
	// RecorderCoverage is the §3.1 crawler-vs-extension median ratio
	// per engine.
	RecorderCoverage map[string]float64
	// Traffic is the per-engine request-level summary (third-party and
	// filter-list-blocked fractions over all crawl stages); the sweep
	// engine's blocked-request and third-party-rate metrics read it.
	Traffic map[string]TrafficStats
	// Failures attributes crawl loss: engine → error class → failed
	// iteration count (see crawler.ErrorClass). Populated only when the
	// crawl recorded failures, so fault-free reports keep their exact
	// pre-chaos-layer shape, JSON bytes included.
	Failures map[string]map[string]int `json:",omitempty"`
	// Outcomes is the arms-race accounting: engine → outcome
	// (recovered/lost/abandoned, see crawler's Outcome constants) →
	// iteration count. Empty exactly when no iteration carries an
	// outcome, i.e. nothing was retried, rotated, solved, abandoned or
	// lost.
	Outcomes map[string]map[string]int `json:",omitempty"`

	// EngineOrder lists engines in table order.
	EngineOrder []string

	classifier *tokens.Result
}

// Table1Row reproduces Table 1.
type Table1Row struct {
	Queries              int
	DistinctDestinations int
	DistinctPaths        int
}

// BeforeResult reproduces §4.1 for one engine.
type BeforeResult struct {
	// StoresUserIDs says whether the engine kept user-identifying
	// values in first-party storage on the SERP (§4.1.1: true for
	// Google and Bing only).
	StoresUserIDs bool
	// IdentifierKeys lists the storage keys holding identifiers.
	IdentifierKeys []string
	// TrackerRequests counts SERP requests matching the filter lists
	// (§4.1.2 finds zero).
	TrackerRequests int
	// TotalRequests counts all SERP requests.
	TotalRequests int
}

// BeaconSummary describes one post-click first-party endpoint (§4.2.1).
type BeaconSummary struct {
	Endpoint        string
	Count           int
	WithUIDCookie   int
	CarriesDestURL  bool
	CarriesQuery    bool
	CarriesPosition bool
}

// DuringResult reproduces §4.2 for one engine.
type DuringResult struct {
	// Beacons lists the engine's post-click endpoints.
	Beacons []BeaconSummary
	// RedirectorCDF is Figure 4 (number of redirector sites per click).
	RedirectorCDF CDF
	// UIDRedirectorCDF is Figure 5 (redirectors storing UID cookies).
	UIDRedirectorCDF CDF
	// NavTrackingFraction is the share of clicks bounced through at
	// least one redirector (4%/100%/100%/86%/100%).
	NavTrackingFraction float64
	// TopPaths is Table 2 (top-5 domain paths).
	TopPaths []Freq
	// OrgFractions is Table 3 (fraction of paths touching each
	// organisation).
	OrgFractions map[string]float64
	// UIDRedirectors is Table 4 (redirectors storing UID cookies, as a
	// fraction of all clicks).
	UIDRedirectors []Freq
	// TopRedirectors is Table 7 (share of redirector occurrences).
	TopRedirectors []Freq
}

// AfterResult reproduces §4.3 for one engine.
type AfterResult struct {
	// PagesWithTrackers is the fraction of destinations with at least
	// one tracker request (93% overall).
	PagesWithTrackers float64
	// DistinctTrackers counts distinct tracker hosts over all
	// iterations (277/218/326/437/260).
	DistinctTrackers int
	// MedianTrackersPerPage is the per-iteration median (9/11/6/8/6).
	MedianTrackersPerPage float64
	// TopEntities is Table 5.
	TopEntities []Freq
	// MSCLKID/GCLID/OtherUID are the Table 6 fractions.
	MSCLKID, GCLID, OtherUID float64
	// AnyUID is the §4.3.2 overall rate (80/94/68/92/53%).
	AnyUID float64
	// ReferrerUID is the fraction of clicks where the destination's
	// document.referrer carried a user identifier — the §5-limitation
	// channel this reproduction additionally detects.
	ReferrerUID float64
	// PersistedMSCLKID/GCLID are the §4.3.2 persistence fractions over
	// all iterations.
	PersistedMSCLKID, PersistedGCLID float64
}

// FunnelResult is the §3.2 token funnel.
type FunnelResult struct {
	TotalTokens int
	ByReason    map[tokens.Reason]int
	UserIDs     int
}

// Options configures an analysis run.
type Options struct {
	// Filter is the tracker-detection engine (default: the embedded
	// EasyList+EasyPrivacy lists).
	Filter *filterlist.Engine
	// Entities is the organisation list (default: the embedded
	// Disconnect-style list).
	Entities *entities.List
}

// withDefaults fills nil dependencies with the memoised embedded
// defaults. Because the defaults are process-wide singletons, any two
// zero-value Options normalise to identical pointers — which is what
// lets independently created default accumulators Merge.
func (o Options) withDefaults() Options {
	if o.Filter == nil {
		o.Filter = filterlist.DefaultEngine()
	}
	if o.Entities == nil {
		o.Entities = entities.Default()
	}
	return o
}

// ErrOptionsMismatch reports an Accumulator.Merge whose two sides were
// built with different Options. Options compare by identity (the Filter
// and Entities pointers), like the facade's ErrReportCached: build all
// shard accumulators from one Options value (zero-value Options share
// the embedded defaults) rather than constructing fresh engines per
// shard.
var ErrOptionsMismatch = errors.New("analysis: cannot merge accumulators built with different options")

// Analyze runs the full §4 pipeline over a dataset.
func Analyze(ds *crawler.Dataset) *Report { return AnalyzeWith(ds, Options{}) }

// AnalyzeWith runs the pipeline with explicit dependencies. It is
// implemented as the Accumulator fold over the dataset's iterations, so
// a streaming consumer folding the same iterations in the same order
// produces a byte-identical report without ever holding the dataset.
func AnalyzeWith(ds *crawler.Dataset, opts Options) *Report {
	acc := NewAccumulator(opts)
	for _, it := range ds.Iterations {
		acc.Add(it)
	}
	return acc.Report()
}

// AnalyzeSharded is AnalyzeWith with the fold partitioned into
// contiguous shards executed on their own goroutines and merged — the
// multi-core form of the analysis: FoldSharded, then ReportShards. The
// report is byte-identical to AnalyzeWith for every shard count
// (rendered and JSON forms alike): Accumulator.Merge reconstructs the
// sequential fold's state exactly. Cancelling ctx stops every shard
// within one iteration and returns ctx's error (matching the
// per-iteration cancellation granularity of the streaming fold).
func AnalyzeSharded(ctx context.Context, ds *crawler.Dataset, opts Options, shards int) (*Report, error) {
	accs, err := FoldSharded(ctx, ds, opts, shards)
	if err != nil {
		return nil, err
	}
	return ReportShards(accs)
}

// FoldSharded folds the dataset in contiguous ranges, one accumulator
// per range, each on its own goroutine, and returns the accumulators in
// range order for ReportShards. The shard count is clamped to
// [1, len(ds.Iterations)]. Cancelling ctx stops every shard within one
// iteration and returns ctx's error.
func FoldSharded(ctx context.Context, ds *crawler.Dataset, opts Options, shards int) ([]*Accumulator, error) {
	n := len(ds.Iterations)
	shards = max(1, min(shards, n))
	opts = opts.withDefaults()
	accs := make([]*Accumulator, shards)
	var wg sync.WaitGroup
	for k := range accs {
		start, end := k*n/shards, (k+1)*n/shards
		accs[k] = NewAccumulator(opts)
		wg.Add(1)
		go func(acc *Accumulator) {
			defer wg.Done()
			for i := start; i < end; i++ {
				if ctx.Err() != nil {
					return
				}
				acc.AddAt(ds.Iterations[i], i)
			}
		}(accs[k])
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return accs, nil
}

// ReportShards is the tail of every sharded fold: it warms each shard's
// classifier heuristics on its own goroutine (tokens.Accumulator.Warm),
// merges the shards into the one holding the most iterations, and
// returns that merged report. When the shards AddAt-folded a partition
// of one stream, the report is byte-identical to the sequential fold's,
// and the merged Report computes no heuristics: the warm-up ran them
// in parallel. nil shards are skipped; with none left the report is of
// the empty stream. The merge target is left holding the whole stream;
// the other shards are unchanged apart from their warmed memo.
func ReportShards(shards []*Accumulator) (*Report, error) {
	var live []*Accumulator
	for _, acc := range shards {
		if acc != nil {
			live = append(live, acc)
		}
	}
	switch len(live) {
	case 0:
		// An empty fold's report does not depend on its options.
		return NewAccumulator(Options{}).Report(), nil
	case 1:
		return live[0].Report(), nil
	}
	var wg sync.WaitGroup
	for _, acc := range live[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			acc.tokens.Warm()
		}()
	}
	live[0].tokens.Warm()
	wg.Wait()

	dst := live[0]
	for _, acc := range live[1:] {
		if acc.count > dst.count {
			dst = acc
		}
	}
	for _, acc := range live {
		if acc == dst {
			continue
		}
		if err := dst.Merge(acc); err != nil {
			return nil, err
		}
	}
	return dst.Report(), nil
}

// IsUserID exposes the classifier verdict for a value. It resolves the
// value through the producing accumulator's intern table, so it must not
// run concurrently with further folding into that accumulator; a value
// first seen after the Report was built is not a user ID.
func (r *Report) IsUserID(value string) bool { return r.classifier.IsUserID(value) }

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func sortBeacons(bs []BeaconSummary) {
	for i := 1; i < len(bs); i++ {
		for j := i; j > 0 && bs[j].Endpoint < bs[j-1].Endpoint; j-- {
			bs[j], bs[j-1] = bs[j-1], bs[j]
		}
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
