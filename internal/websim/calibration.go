// This file holds every behavioural prevalence that stands in for
// live-web conditions. Each constant cites the paper
// table or line it reproduces. They are defaults; Config can override
// the derived structures before the world is built.

package websim

// StackChoice is one weighted ad-tech stack option campaigns draw from.
type StackChoice struct {
	// Weight is the relative probability mass (normalised at sampling).
	Weight float64
	// Stack is the redirector-host chain after the platform click
	// server (empty = straight to the destination).
	Stack []string
	// Direct skips the platform click server: the engine's own bounce
	// goes straight to the stack/destination.
	Direct bool
}

// EngineCalibration captures everything engine-specific about the pools.
type EngineCalibration struct {
	// PoolSize is the number of advertiser campaigns; it bounds the
	// distinct destination count of Table 1 (98/102/56/60/60).
	PoolSize int
	// Stacks is the campaign stack distribution; weights follow the
	// Table 2 path frequencies.
	Stacks []StackChoice
	// AutoTagProb is the probability a (non-direct) campaign lets the
	// platform append its click ID; calibrated so the Table 6 marginal
	// MSCLKID/GCLID rates emerge.
	AutoTagProb float64
	// CrossTagGCLIDProb adds a GCLID on Microsoft-platform campaigns
	// (Table 6 finds GCLIDs on Bing/DDG/Qwant clicks: 12/12/8%).
	CrossTagGCLIDProb float64
	// OtherUIDProb is the chance of an extra UID parameter (Table 6
	// "other": 3/8/6/12/7%).
	OtherUIDProb float64
	// PersistClickIDProb is, per click-ID parameter, the probability an
	// advertiser persists it to first-party storage, conditioned on the
	// parameter arriving (§4.3.2).
	PersistClickIDProb map[string]float64
	// CleanSiteProb is the fraction of destinations with no trackers
	// (§4.3.1 finds 93% of pages carry trackers → 7% clean).
	CleanSiteProb float64
	// TrackerEntityWeights drives which tracker entities advertiser
	// sites embed (Table 5).
	TrackerEntityWeights map[string]float64
	// UnknownTrackerPool sizes the engine's long-tail tracker universe;
	// it shapes the distinct-tracker counts of §4.3.1
	// (277/218/326/437/260).
	UnknownTrackerPool int
	// TrackersPerSiteMin/Max bound how many trackers a non-clean site
	// embeds; the medians of §4.3.1 are 9/11/6/8/6 per iteration.
	TrackersPerSiteMin, TrackersPerSiteMax int
}

// Redirector host names, written once here and referenced throughout.
const (
	HostDartsearch  = "clickserve.dartsearch.net"
	HostDoubleclick = "ad.doubleclick.net"
	HostEverest     = "pixel.everesttech.net"
	HostIntelliad   = "t23.intelliad.de"
	HostNetrk       = "1045.netrk.net"
	HostClickcease  = "monitor.clickcease.com"
	HostPPCProtect  = "monitor.ppcprotect.com"
	HostMediaplex   = "tpt.mediaplex.com"
	HostEffiliation = "track.effiliation.com"
	HostLinksynergy = "click.linksynergy.com"
	HostAdlucent    = "tracking.deepsearch.adlucent.com"
	HostVisualIQ    = "t.myvisualiq.net"
	HostAwin        = "awin1.com"
	HostZenaps      = "zenaps.com"
	HostAtdmt       = "ad.atdmt.com"
	HostXg4ken      = "xg4ken.com" // wildcard: 6102./6008./3825. subdomains
	// HostRefSync is the referrer-smuggling service enabled by
	// Config.EnableReferrerSmuggling (the §5 extension).
	HostRefSync = "go.refsync.example"
)

// defaultCalibrations returns the per-engine defaults. Stack weights are
// the Table 2 path frequencies; remaining fields cite their sources
// inline.
func defaultCalibrations() map[string]EngineCalibration {
	return map[string]EngineCalibration{
		"bing": {
			PoolSize: 104, // Table 1: 98 distinct destinations reached
			Stacks: []StackChoice{
				{Weight: 96, Stack: nil}, // bing - destination (96%)
				{Weight: 3, Stack: []string{HostDartsearch, HostDoubleclick}}, // (3%)
				{Weight: 1, Stack: []string{HostIntelliad, HostNetrk}},        // (1%)
			},
			AutoTagProb:       0.79, // Table 6: MSCLKID 79%
			CrossTagGCLIDProb: 0.12, // Table 6: GCLID 12%
			OtherUIDProb:      0.03, // Table 6: other 3%
			PersistClickIDProb: map[string]float64{
				"msclkid": 0.19, // §4.3.2: 15% of iterations / 79% arrival
				"gclid":   0.42, // §4.3.2: 5% / 12%
			},
			CleanSiteProb: 0.07,
			TrackerEntityWeights: map[string]float64{ // Table 5 Bing column
				"unknown": 32.0, "Google": 24.4, "Microsoft": 13.8,
				"Facebook": 3.8, "Criteo": 2.4, "Amazon": 2.0,
			},
			UnknownTrackerPool: 260,
			TrackersPerSiteMin: 5, TrackersPerSiteMax: 13, // median 9
		},
		"google": {
			PoolSize: 108, // Table 1: 102 distinct destinations
			Stacks: []StackChoice{
				{Weight: 69, Stack: nil},
				{Weight: 17, Stack: []string{HostDartsearch, HostDoubleclick}},
				{Weight: 4, Stack: []string{HostEverest, HostDoubleclick}},
				{Weight: 4, Stack: []string{HostClickcease}},
				{Weight: 2, Stack: []string{HostPPCProtect}},
				{Weight: 1, Stack: []string{"6008." + HostXg4ken}},
				{Weight: 1, Stack: []string{HostDartsearch, HostDoubleclick, HostPPCProtect}},
				{Weight: 1, Stack: []string{HostAdlucent}},
				{Weight: 1, Stack: []string{HostClickcease, HostVisualIQ}},
			},
			AutoTagProb:  0.92, // Table 6: GCLID 92%
			OtherUIDProb: 0.08, // Table 6: other 8%
			PersistClickIDProb: map[string]float64{
				"gclid": 0.11, // §4.3.2: 10% / 92%
			},
			CleanSiteProb: 0.07,
			TrackerEntityWeights: map[string]float64{ // Table 5 Google column
				"unknown": 34.8, "Google": 28.7, "Microsoft": 10.5,
				"Amazon": 3.1, "Criteo": 2.5, "Facebook": 2.0,
			},
			UnknownTrackerPool: 200,
			TrackersPerSiteMin: 6, TrackersPerSiteMax: 16, // median 11
		},
		"duckduckgo": {
			PoolSize: 58, // Table 1: 56 distinct destinations
			Stacks: []StackChoice{
				{Weight: 82, Stack: nil},
				{Weight: 14, Stack: []string{HostDartsearch, HostDoubleclick}},
				{Weight: 2, Stack: []string{"6102." + HostXg4ken}},
				{Weight: 1, Stack: []string{HostDartsearch, HostDoubleclick, HostMediaplex}},
				{Weight: 1, Stack: []string{HostEverest}},
			},
			AutoTagProb:       0.66, // Table 6: MSCLKID 66%
			CrossTagGCLIDProb: 0.12, // Table 6: GCLID 12%
			OtherUIDProb:      0.06, // Table 6: other 6%
			PersistClickIDProb: map[string]float64{
				"msclkid": 0.26, // §4.3.2: 17% / 66%
			},
			CleanSiteProb: 0.07,
			TrackerEntityWeights: map[string]float64{ // Table 5 DDG column
				"unknown": 29.5, "Google": 21.8, "Amazon": 16.3,
				"Facebook": 3.4, "Criteo": 2.2, "Microsoft": 2.0,
			},
			UnknownTrackerPool: 310,
			TrackersPerSiteMin: 3, TrackersPerSiteMax: 9, // median 6
		},
		"startpage": {
			PoolSize: 62, // Table 1: 60 distinct destinations
			Stacks: []StackChoice{
				{Weight: 73, Stack: nil},
				{Weight: 17, Stack: []string{HostDartsearch, HostDoubleclick}},
				{Weight: 6, Stack: nil, Direct: true}, // startpage - google - destination (6%)
				{Weight: 1, Stack: []string{"6008." + HostXg4ken}},
				{Weight: 1, Stack: []string{HostDartsearch, HostDoubleclick, HostPPCProtect}},
				{Weight: 1, Stack: []string{HostEverest}},
			},
			AutoTagProb:  0.98, // Table 6: GCLID 92% over all paths incl. 6% direct
			OtherUIDProb: 0.12, // Table 6: other 12%
			PersistClickIDProb: map[string]float64{
				"gclid": 0.14, // §4.3.2: 13% / 92%
			},
			CleanSiteProb: 0.07,
			TrackerEntityWeights: map[string]float64{ // Table 5 StartPage column
				"Google": 36.0, "unknown": 28.1, "Microsoft": 4.3,
				"Facebook": 3.2, "Criteo": 3.0, "Amazon": 2.0,
			},
			UnknownTrackerPool: 420,
			TrackersPerSiteMin: 4, TrackersPerSiteMax: 12, // median 8
		},
		"qwant": {
			PoolSize: 62, // Table 1: 60 distinct destinations
			Stacks: []StackChoice{
				{Weight: 66, Stack: nil},
				{Weight: 14, Stack: nil, Direct: true}, // qwant - destination (14%)
				{Weight: 10, Stack: []string{HostDartsearch, HostDoubleclick}},
				{Weight: 3, Stack: []string{HostEffiliation}, Direct: true},
				{Weight: 3, Stack: []string{HostLinksynergy}, Direct: true},
				{Weight: 1, Stack: []string{"3825." + HostXg4ken}},
				{Weight: 1, Stack: []string{HostAwin, HostZenaps}, Direct: true},
				{Weight: 1, Stack: []string{HostAtdmt}},
				{Weight: 1, Stack: []string{HostVisualIQ}, Direct: true},
			},
			AutoTagProb:       0.64, // Table 6: MSCLKID 51% / 80% non-direct share
			CrossTagGCLIDProb: 0.10, // Table 6: GCLID 8% over all paths
			OtherUIDProb:      0.07, // Table 6: other 7%
			PersistClickIDProb: map[string]float64{
				"msclkid": 0.02, // §4.3.2: 1% / 51%
			},
			CleanSiteProb: 0.07,
			TrackerEntityWeights: map[string]float64{ // Table 5 Qwant column
				"Google": 26.3, "Amazon": 23.4, "unknown": 22.4,
				"Microsoft": 4.2, "Criteo": 3.8, "Facebook": 2.0,
			},
			UnknownTrackerPool: 245,
			TrackersPerSiteMin: 3, TrackersPerSiteMax: 9, // median 6
		},
	}
}

// redirectorPolicies returns the UID-cookie behaviour of every
// redirector service, derived from Table 4 ("Redirectors that store UID
// cookies"): services absent from the table never store identifiers;
// listed services store them at rates consistent with their appearance
// frequencies in Table 2.
func redirectorPolicies() []policySpec {
	return []policySpec{
		{host: "www.googleadservices.com", path: "/pagead/aclk", uidProb: 0.97, cookie: "gads_id"},
		{host: HostDoubleclick, path: "/ddm/clk", uidProb: 0.95, cookie: "IDE"},
		{host: HostDartsearch, path: "/link/click", uidProb: 0, nonUID: true}, // not in Table 4
		{host: HostEverest, path: "/cq", uidProb: 0.90, cookie: "ev_sync"},
		{host: HostXg4ken, path: "/media/redir.php", uidProb: 1.0, cookie: "kenshoo_id", wildcard: true},
		{host: HostIntelliad, path: "/index.php", uidProb: 1.0, cookie: "iadclid"},
		{host: HostNetrk, path: "/rd", uidProb: 1.0, cookie: "netrk_uid"},
		{host: HostClickcease, path: "/tracker/tracker.aspx", uidProb: 0, nonUID: true}, // not in Table 4
		{host: HostPPCProtect, path: "/v1/track", uidProb: 0.70, cookie: "ppc_uid"},
		{host: HostMediaplex, path: "/click", uidProb: 0, nonUID: true},
		{host: HostEffiliation, path: "/servlet/effi.redir", uidProb: 0, nonUID: true},
		{host: HostLinksynergy, path: "/deeplink", uidProb: 1.0, cookie: "lsclick"},
		{host: HostAdlucent, path: "/redir", uidProb: 1.0, cookie: "adl_uid"},
		{host: HostVisualIQ, path: "/impression_pixel", uidProb: 1.0, cookie: "viq_uid"},
		{host: HostAwin, path: "/cread.php", uidProb: 0, nonUID: true},
		{host: HostZenaps, path: "/rclick.php", uidProb: 0, nonUID: true},
		{host: HostAtdmt, path: "/c/go", uidProb: 0, nonUID: true},
	}
}

type policySpec struct {
	host     string
	path     string
	uidProb  float64
	cookie   string
	nonUID   bool
	wildcard bool
}

// Engine bounce policies (Table 4): bing.com identifies users of
// Microsoft-platform engines in ~95% of bounces; google.com identifies
// StartPage users in 100%.
const (
	bingBounceUIDProb   = 0.94
	googleBounceUIDProb = 1.0
)

// otherUIDParams is the vocabulary of non-click-ID identifier parameters
// campaigns append (Table 6 "other UID parameters").
var otherUIDParams = []string{
	"irclickid", "ranSiteID", "wbraid", "dclid", "ef_id", "s_kwcid",
	"awc", "vmcid",
}
