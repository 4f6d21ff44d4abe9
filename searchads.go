// Package searchads reproduces "Understanding the Privacy Risks of
// Popular Search Engine Advertising Systems" (IMC 2023) as a library: a
// deterministic simulated web of five search engines and their
// advertising systems, the paper's crawl methodology, and the analyses
// behind every table and figure of its evaluation.
//
// The v2 API is context-aware and streaming-first. The batch flow is
// still three calls, now cancellable:
//
//	study := searchads.NewStudy(searchads.Config{Seed: 1, QueriesPerEngine: 100})
//	dataset, err := study.Crawl(ctx)
//	report, err := study.Analyze(ctx)
//	fmt.Println(report.Render())
//
// The primary consumption surface, though, is the iteration stream —
// every iteration arrives, in deterministic order, the moment it
// finishes crawling, and nothing forces the dataset into memory:
//
//	study := searchads.NewStudy(cfg)
//	acc := searchads.NewAccumulator(searchads.AnalysisOptions{})
//	for it, err := range study.Iterations(ctx) {
//		if err != nil {
//			return err // ctx canceled, or the config was invalid
//		}
//		acc.Add(it) // incremental §4 analysis, O(iteration) memory
//	}
//	fmt.Println(acc.Report().Render())
//
// Canceling ctx aborts a crawl, analysis, or sweep within one
// iteration's work; the error wraps both ErrCanceled and ctx.Err(), so
// errors.Is works against either. Config controls the world (seed,
// engines, query volume, calibration overrides) and the browser (flat
// vs partitioned cookie storage, stealth, recorder capture
// probability). Identical Configs produce byte-identical datasets and
// iteration streams, sequential or Parallel alike.
//
// # Sharded analysis
//
// The analysis fold shards across cores. Nothing changes for existing
// callers — reports stay byte-identical — and three levers exist:
//
//   - Config.Parallel now parallelises Analyze/AnalyzeWith too. A
//     live crawl folds on the crawl's own worker pool, one Accumulator
//     per pool worker (an ordered single fold when a Sink is set); a
//     cached dataset folds in one contiguous range per core. Each
//     shard then warms its classifier verdicts on its own goroutine
//     before the shards merge, and the merged report has the
//     sequential report's bytes.
//   - AnalyzeDatasetSharded(ds, shards) is the explicit dataset form.
//   - Hand-rolled consumers shard with the Accumulator primitives:
//     give each worker its own NewAccumulator(opts) built from one
//     shared AnalysisOptions value, call acc.AddAt(it, seq) with the
//     iteration's overall stream position instead of Add, and fold the
//     shards together with acc.Merge — any partition of the stream
//     merges into the byte-exact sequential report. Merge requires the
//     shards to share options by identity (zero-value options share the
//     embedded defaults, which are process-wide singletons as of v2.1);
//     mismatches fail with ErrOptionsMismatch.
//
// Sweeps have no shard lever: their cells already run concurrently on
// the sweep pool, so each cell folds its stream into one Accumulator.
package searchads

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"runtime"
	"time"

	"searchads/internal/analysis"
	"searchads/internal/crawler"
	"searchads/internal/entities"
	"searchads/internal/filterlist"
	"searchads/internal/netsim"
	"searchads/internal/storage"
	"searchads/internal/sweep"
	"searchads/internal/telemetry"
	"searchads/internal/websim"
)

// Typed sentinel errors, matchable with errors.Is.
var (
	// ErrUnknownEngine reports a Config.Engines entry the world does
	// not have. Crawl, Analyze, Iterations, and Sweep cells wrap it.
	ErrUnknownEngine = crawler.ErrUnknownEngine
	// ErrCanceled reports a crawl, analysis, or sweep aborted by its
	// context. Returned errors wrap both ErrCanceled and the context's
	// own error, so errors.Is(err, context.Canceled) also matches.
	ErrCanceled = errors.New("searchads: canceled")
	// ErrReportCached reports an AnalyzeWith call whose options differ
	// from the ones the study's cached report was computed with; the
	// cached report is not silently returned as if the new options had
	// been honored. Options compare by identity (the Filter and
	// Entities pointers), deliberately conservative: a freshly built
	// engine is not recognised as "the same" as the nil default — reuse
	// the same instances (or zero values) for repeat calls, or analyze
	// a fresh Study / AnalyzeDataset instead. (DefaultFilterEngine and
	// DefaultEntities return process-wide singletons, so the embedded
	// defaults do compare equal to themselves.)
	ErrReportCached = errors.New("searchads: report already cached with different options")

	// ErrOptionsMismatch reports an Accumulator.Merge whose two sides
	// were built with different AnalysisOptions (same identity
	// comparison as ErrReportCached). Build every shard accumulator
	// from one options value; zero-value options share the embedded
	// defaults.
	ErrOptionsMismatch = analysis.ErrOptionsMismatch

	// ErrDatasetVersion reports a LoadDataset file whose schema version
	// is not the one this release writes: a file saved by an earlier
	// release, or by a newer one. Re-crawl it.
	ErrDatasetVersion = crawler.ErrDatasetVersion
)

// wrapCanceled tags context-abort errors with ErrCanceled so callers
// can errors.Is against the facade sentinel or the context error alike.
func wrapCanceled(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	}
	return err
}

// Re-exported result and component types. They alias the internal
// implementations so example code and downstream tooling handle the
// same values the pipeline produces.
type (
	// Dataset is a complete crawl output (one Iteration per query).
	Dataset = crawler.Dataset
	// Iteration is one crawl iteration's full record.
	Iteration = crawler.Iteration
	// Report is the full §4 analysis of a Dataset.
	Report = analysis.Report
	// World is the simulated web.
	World = websim.World
	// WorldConfig parameterises world construction directly.
	WorldConfig = websim.Config
	// EngineCalibration is a per-engine calibration block.
	EngineCalibration = websim.EngineCalibration
	// FilterEngine is an Adblock-syntax filter engine.
	FilterEngine = filterlist.Engine
	// FilterRequest carries the request attributes rule matching needs.
	FilterRequest = filterlist.RequestInfo
	// EntityList maps domains to organisations.
	EntityList = entities.List
	// AnalysisOptions configures Analyze/AnalyzeWith dependencies.
	AnalysisOptions = analysis.Options
)

// ResourceType classifies a request for filter matching.
type ResourceType = netsim.ResourceType

// Resource types understood by the filter engine.
const (
	TypeDocument = netsim.TypeDocument
	TypeScript   = netsim.TypeScript
	TypeImage    = netsim.TypeImage
	TypeXHR      = netsim.TypeXHR
	TypePing     = netsim.TypePing
)

// StorageMode selects the browser cookie model.
type StorageMode = storage.Mode

// Storage modes (paper §2.2.1).
const (
	// FlatStorage is a single shared cookie namespace (Chrome default
	// at study time).
	FlatStorage = storage.Flat
	// PartitionedStorage keys third-party state by top-level site
	// (Safari/Firefox/Brave).
	PartitionedStorage = storage.Partitioned
)

// Engine names accepted in Config.Engines.
const (
	Bing       = "bing"
	Google     = "google"
	DuckDuckGo = "duckduckgo"
	StartPage  = "startpage"
	Qwant      = "qwant"
)

// AllEngines lists the five engines in the paper's table order.
func AllEngines() []string {
	return []string{Bing, Google, DuckDuckGo, StartPage, Qwant}
}

// Config parameterises a study.
type Config struct {
	// Seed roots all randomness; equal seeds give identical studies.
	Seed int64
	// Engines to crawl (default: all five).
	Engines []string
	// QueriesPerEngine is the corpus size (paper: 500; default 500).
	QueriesPerEngine int
	// Iterations caps crawl iterations per engine (0 = one per query).
	Iterations int
	// Storage selects the browser cookie model (default flat, as the
	// paper crawled).
	Storage StorageMode
	// CaptureProb is the crawler-recorder capture probability
	// (default 0.97, the paper's measured median).
	CaptureProb float64
	// NoStealth disables the stealth fingerprint; engines then detect
	// the bot and serve no ads.
	NoStealth bool
	// SkipRevisit disables the next-day profile revisit.
	SkipRevisit bool
	// Calibrations overrides per-engine world calibration.
	Calibrations map[string]EngineCalibration
	// ReferrerSmuggling adds a referrer-based UID-smuggling service to
	// the world (the paper's §5 limitation, implemented as an
	// extension; Report.After[*].ReferrerUID measures it).
	ReferrerSmuggling bool
	// FaultProfile names the chaos layer's failure mix — "off" (or ""),
	// "flaky-edge", "bot-hostile", or "brownout" (see FaultProfiles).
	// An unknown name fails the first Crawl/Iterations/Analyze call.
	FaultProfile string
	// FaultRate is the overall per-request fault-injection probability
	// the profile's mix distributes, in [0, 1]. 0 disarms injection
	// entirely: datasets and reports are byte-identical to a study that
	// never mentioned faults. Faults are seeded from Seed, so equal
	// configs fail identically — sequential or Parallel.
	FaultRate float64
	// Adversary names the stateful-adversary posture — "off" (or ""),
	// "lenient", "strict", or "paranoid" (see AdversaryPostures): a
	// per-client suspicion score escalating with request rate,
	// fingerprint reuse, and prior wall hits, plus time-correlated
	// outage/brownout windows. Deterministic like everything else:
	// equal configs face identical adversaries, sequential or Parallel,
	// and "off" is byte-identical to a study that never mentioned one.
	Adversary string
	// Countermeasures names the crawler's survival bundle — "off" (or
	// ""), "pace", "rotate", "solve", or "full" (see
	// CountermeasureBundles): virtual-clock pacing, session rotation on
	// suspicion signals, CAPTCHA solve-or-abandon, and the per-engine
	// circuit breaker. Every faulted crawl records
	// recovered/lost/abandoned outcomes in its dataset and report.
	Countermeasures string
	// Parallel crawls iterations on a worker pool spanning all cores.
	// The dataset is byte-identical to a sequential crawl of the same
	// Config: identifier streams derive from (engine, iteration) labels
	// and each browser profile runs its own virtual clock.
	Parallel bool
	// Filter, when set, annotates every crawled iteration with
	// per-stage tracker counts (filter-list matches via
	// Engine.MatchBatch). The engine is read-only after its index is
	// built and safe to share with Parallel crawls.
	Filter *FilterEngine
	// Sink, when set, receives each iteration as soon as the live
	// iteration stream emits it — a thin adapter over Iterations, so
	// calls arrive in the stream's deterministic order. It fires during
	// any live crawl (Crawl, Iterations, or the crawl behind Analyze)
	// and not when a cached dataset is replayed.
	Sink func(*Iteration)
	// Checkpoint, when set, names the crash-safe progress file: Crawl
	// (and Resume) periodically write the crawled prefix there, write a
	// final checkpoint when the context is canceled, and remove the file
	// once the dataset completes. A killed run resumed from its
	// checkpoint (Study.Resume) produces datasets and reports
	// byte-identical to a run that was never interrupted. Empty disables
	// checkpointing; outputs are byte-identical either way.
	Checkpoint string
	// CheckpointEvery is the checkpoint write interval in iterations
	// (default DefaultCheckpointEvery; the interval bounds redone work
	// after a kill, never correctness).
	CheckpointEvery int
	// Telemetry, when set, records run-time metrics for every layer of
	// the study: netsim round trips (latency and fault classes), browser
	// navigations and retries, crawl iterations (per engine, per error
	// class, queue wait under Parallel), the analysis fold, and
	// checkpoint writes. Read results with Telemetry.Snapshot(); attach
	// a JSONL event trace with Telemetry.SetSink. nil = off, at zero
	// cost beyond a nil/atomic check per site. Telemetry never affects
	// outputs: datasets and reports are byte-identical with it on, off,
	// or absent, and it does not enter the checkpoint config hash.
	Telemetry *Telemetry
}

// Telemetry is the run-time metrics registry (see internal/telemetry):
// sharded atomic counters and fixed-bucket latency histograms with
// p50/p90/p95/p99/max snapshots, per-engine throughput, and an
// optional JSONL event-trace sink. Construct with NewTelemetry.
type Telemetry = telemetry.Registry

// NewTelemetry returns an empty telemetry registry; its
// iterations/sec window starts at the call.
func NewTelemetry() *Telemetry { return telemetry.New() }

// TelemetrySnapshot is a point-in-time read of a Telemetry registry.
type TelemetrySnapshot = telemetry.Snapshot

// TelemetryEvent is one line of the JSONL run-event trace.
type TelemetryEvent = telemetry.Event

// Study owns one world and the artifacts derived from it.
type Study struct {
	cfg    Config
	cfgErr error // invalid config (e.g. unknown fault profile), surfaced on first use
	// blueprint is the study's seeded web, derived once; every world the
	// study crawls is instantiated from it with wcfg.
	blueprint *websim.Blueprint
	wcfg      websim.Config
	world     *World
	crawled   bool // a live crawl has touched (or partially touched) the world
	dataset   *Dataset
	report    *Report
	// reportOpts records the options the cached report was built with,
	// so a later AnalyzeWith with different ones fails typed instead of
	// pretending.
	reportOpts AnalysisOptions
}

// NewStudy builds the simulated web for the given config.
func NewStudy(cfg Config) *Study {
	wcfg, err := worldConfig(cfg)
	s := &Study{cfg: cfg, cfgErr: err, wcfg: wcfg, blueprint: websim.Derive(wcfg)}
	cfg.Telemetry.Inc(telemetry.CounterWorldDerivations)
	s.world = s.instantiate()
	return s
}

// worldConfig maps a study config onto its world's; the fault plan
// comes from netsim.NewFaultPlan, as a sweep cell's does. An invalid
// fault profile, fault rate, adversary posture or countermeasure bundle
// comes back as the error next to the world config built so far: the
// world is built anyway (with no fault plan if the plan was the invalid
// part) so the study stays usable for inspection, and the stashed error
// surfaces from every crawl entry point.
func worldConfig(cfg Config) (websim.Config, error) {
	wcfg := websim.Config{
		Seed:                    cfg.Seed,
		Engines:                 cfg.Engines,
		QueriesPerEngine:        cfg.QueriesPerEngine,
		Calibrations:            cfg.Calibrations,
		EnableReferrerSmuggling: cfg.ReferrerSmuggling,
	}
	plan, err := netsim.NewFaultPlan(cfg.FaultProfile, cfg.FaultRate, cfg.Adversary)
	if err != nil {
		return wcfg, err
	}
	wcfg.Faults = plan
	_, err = crawler.CountermeasureBundle(cfg.Countermeasures)
	return wcfg, err
}

// instantiate wires a fresh world from the study's blueprint.
func (s *Study) instantiate() *World {
	s.cfg.Telemetry.Inc(telemetry.CounterWorldInstantiations)
	return s.blueprint.Instantiate(s.wcfg)
}

// FaultProfiles lists the chaos layer's named fault profiles.
func FaultProfiles() []string { return netsim.FaultProfileNames() }

// AdversaryPostures lists the stateful adversary's named postures.
func AdversaryPostures() []string { return netsim.AdversaryPostures() }

// CountermeasureBundles lists the named crawler countermeasure bundles.
func CountermeasureBundles() []string { return crawler.CountermeasureNames() }

// World exposes the underlying simulated web (e.g. to serve it over
// net/http via netsim.HTTPBridge). The study derives its seeded web
// (websim.Derive) once and wires worlds from it (Blueprint.Instantiate):
// starting a crawl after a previous live stream was canceled or
// abandoned instantiates a fresh world (see freshWorld), so hold on to
// the pointer only within one crawl's life.
func (s *Study) World() *World { return s.world }

// freshWorld returns a world no crawl has touched. Origin servers mint
// per-client identifier serials, so a world that served a partial or
// discarded crawl would continue those streams and break determinism;
// instantiating anew from the blueprint restores the exact fresh-study
// state without re-deriving the seeded web.
func (s *Study) freshWorld() *World {
	if s.crawled {
		s.world = s.instantiate()
		s.crawled = false
	}
	return s.world
}

func (s *Study) crawlerConfig(w *World) crawler.Config {
	// The bundle name was validated in worldConfig; an invalid one never
	// reaches a crawl (cfgErr short-circuits every entry point).
	cm, _ := crawler.CountermeasureBundle(s.cfg.Countermeasures)
	return crawler.Config{
		World:           w,
		Engines:         s.cfg.Engines,
		Iterations:      s.cfg.Iterations,
		StorageMode:     s.cfg.Storage,
		CaptureProb:     s.cfg.CaptureProb,
		NoStealth:       s.cfg.NoStealth,
		SkipRevisit:     s.cfg.SkipRevisit,
		Parallel:        s.cfg.Parallel,
		Filter:          s.cfg.Filter,
		Countermeasures: cm,
		Telemetry:       s.cfg.Telemetry,
	}
}

func (s *Study) newCrawler() *crawler.Crawler {
	w := s.freshWorld()
	s.crawled = true
	return crawler.New(s.crawlerConfig(w))
}

// NewDataset returns the metadata-only dataset shell (seed, storage
// mode, creation time, filter annotation) a streaming consumer can
// fill from Iterations; appending every streamed iteration yields a
// dataset byte-identical to the one Crawl caches.
func (s *Study) NewDataset() *Dataset {
	return crawler.New(s.crawlerConfig(s.world)).NewDataset()
}

// Crawl runs the measurement pipeline (§3.1), materialises the dataset,
// and caches it; later Crawl/Iterations/Analyze calls reuse it. It
// returns an error wrapping ErrUnknownEngine if Config.Engines names an
// unknown engine — a typo used to silently yield an empty dataset —
// and an error wrapping ErrCanceled (and ctx.Err()) if ctx is canceled
// mid-crawl; nothing is cached then, and the next call starts afresh.
func (s *Study) Crawl(ctx context.Context) (*Dataset, error) {
	if s.cfgErr != nil {
		return nil, s.cfgErr
	}
	if s.dataset != nil {
		return s.dataset, nil
	}
	if s.cfg.Checkpoint != "" {
		return s.crawlCheckpointed(ctx, nil)
	}
	c := s.newCrawler()
	ds := c.NewDataset()
	for it, err := range c.Iterations(ctx) {
		if err != nil {
			return nil, wrapCanceled(err)
		}
		if s.cfg.Sink != nil {
			s.cfg.Sink(it)
		}
		ds.Iterations = append(ds.Iterations, it)
	}
	s.dataset = ds
	return ds, nil
}

// Iterations returns the study's crawl as a stream — the primary v2
// consumption surface. Iterations are emitted in deterministic dataset
// order (engines in Config order, iteration index ascending) as soon as
// they complete, for sequential and Parallel crawls alike; a run
// canceled after n iterations has yielded exactly the first n the full
// crawl would produce. Each iteration arrives with a nil error; on
// cancellation (or an invalid config) the stream yields one final
// (nil, err) — wrapping ErrCanceled/ErrUnknownEngine — and stops.
//
// If Crawl already cached a dataset, the stream replays it. Otherwise
// the crawl runs live and nothing is retained: folding the stream
// (e.g. with an Accumulator) observes the whole crawl in O(iteration)
// memory for sequential crawls. Each iteration is a fresh record the
// consumer may keep. Parallel crawls keep that bound only against slow
// consumers (workers stall rather than pile up finished iterations);
// their engine-major emission order still buffers faster engines'
// completions until the cursor reaches them, so a Parallel stream
// trades memory for speed — leave Parallel off when the memory bound
// matters. (An Analyze with no Sink does not go through this stream: it
// folds each iteration where it was crawled, in storage the crawl
// reuses, and buffers nothing; see AnalyzeWith.) A live stream consumes
// the world's identifier state, so whether it completes, is canceled,
// or is abandoned by breaking out early, a later
// Crawl/Analyze/Iterations rebuilds the world and re-crawls from
// scratch — deterministically, as a fresh study would.
func (s *Study) Iterations(ctx context.Context) iter.Seq2[*Iteration, error] {
	return func(yield func(*Iteration, error) bool) {
		if s.cfgErr != nil {
			yield(nil, s.cfgErr)
			return
		}
		if s.dataset != nil {
			for _, it := range s.dataset.Iterations {
				if err := ctx.Err(); err != nil {
					yield(nil, wrapCanceled(err))
					return
				}
				if !yield(it, nil) {
					return
				}
			}
			return
		}
		for it, err := range s.newCrawler().Iterations(ctx) {
			if err != nil {
				yield(nil, wrapCanceled(err))
				return
			}
			if s.cfg.Sink != nil {
				s.cfg.Sink(it)
			}
			if !yield(it, nil) {
				return
			}
		}
	}
}

// Analyze runs the §4 analyses and caches the report. It is AnalyzeWith
// with default options: the embedded filter lists and entity list.
func (s *Study) Analyze(ctx context.Context) (*Report, error) {
	return s.AnalyzeWith(ctx, AnalysisOptions{})
}

// AnalyzeWith runs the §4 analyses with explicit dependencies — a
// shared filter engine, an alternative entity list. The analysis is an
// incremental fold: with a cached dataset it folds that; otherwise it
// folds a live crawl without materialising a dataset at all (call Crawl
// first if you want both). The report is cached; calling again with the
// same options (compared by identity — see ErrReportCached) returns it,
// while different options return an error wrapping ErrReportCached
// rather than a report the new options never touched.
//
// A live crawl with no Sink folds each iteration as the crawl finishes
// it, on the goroutine that crawled it, in storage the crawl's engine
// chain reuses for its next iteration: the handoff allocates only what
// the report keeps. A sequential study folds on the caller's goroutine;
// a Parallel one on the crawl's own worker pool, one Accumulator per
// pool worker fed every iteration that worker crawled — no iteration
// waits in a reorder buffer. A cached dataset folds in order when
// sequential and in GOMAXPROCS contiguous ranges when Parallel. Each
// Parallel shard runs its classifier heuristics on its own goroutine
// before the shards merge (Accumulator.Merge), so only the merge and
// Report stay serial. A Sink set on the study keeps its stream-order
// contract and may keep the iterations it is handed, so its live crawl
// folds the ordered stream of fresh iterations (Iterations) into one
// accumulator. The report is byte-identical to the sequential fold in
// every case. With Telemetry attached, the fold records one
// analysis_fold sample per iteration and the tail after the last fold
// (warm-up, merge, Report) one analysis_report sample.
func (s *Study) AnalyzeWith(ctx context.Context, opts AnalysisOptions) (*Report, error) {
	if s.report != nil {
		if opts != s.reportOpts {
			return nil, fmt.Errorf("%w (use a fresh Study or AnalyzeDataset)", ErrReportCached)
		}
		return s.report, nil
	}
	var report *Report
	var err error
	switch {
	case s.cfg.Parallel && s.dataset != nil:
		var accs []*analysis.Accumulator
		accs, err = analysis.FoldSharded(ctx, s.dataset, opts, runtime.GOMAXPROCS(0))
		if err != nil {
			return nil, wrapCanceled(err)
		}
		report, err = s.finish(accs)
	case s.dataset == nil && s.cfg.Sink == nil:
		report, err = s.analyzeChains(ctx, opts)
	default:
		acc := analysis.NewAccumulator(opts)
		seq := 0
		for it, iterErr := range s.Iterations(ctx) {
			if iterErr != nil {
				return nil, iterErr
			}
			s.fold(acc, it, seq)
			seq++
		}
		report, err = s.finish([]*analysis.Accumulator{acc})
	}
	if err != nil {
		return nil, err
	}
	s.report = report
	s.reportOpts = opts
	return s.report, nil
}

// analyzeChains folds a live crawl's lent iterations (crawler.RunChains)
// into one accumulator per worker, created on the worker's first
// iteration: the caller's goroutine alone for a sequential study, each
// pool worker for a Parallel one. Each iteration is added at its dataset
// position, so the merged shards yield the sequential fold's bytes
// however the chains were scheduled across the workers. The Parallel
// chains finish in lockstep, so there is no early chain whose merge
// could overlap the crawl; per-worker shards instead leave the serial
// tail one merge of pool-width shards.
func (s *Study) analyzeChains(ctx context.Context, opts AnalysisOptions) (*Report, error) {
	if s.cfgErr != nil {
		return nil, s.cfgErr
	}
	c := s.newCrawler()
	accs := make([]*analysis.Accumulator, len(c.Engines())) // the pool is at most one worker per chain
	err := c.RunChains(ctx, func(worker, _, seq int, it *Iteration) {
		if accs[worker] == nil {
			accs[worker] = analysis.NewAccumulator(opts)
		}
		s.fold(accs[worker], it, seq)
	})
	if err != nil {
		return nil, wrapCanceled(err)
	}
	return s.finish(accs)
}

// finish runs the analysis tail over the folded shards
// (analysis.ReportShards), timing it into the study's telemetry when
// one is attached.
func (s *Study) finish(accs []*analysis.Accumulator) (*Report, error) {
	tele := s.cfg.Telemetry
	if tele == nil {
		return analysis.ReportShards(accs)
	}
	start := time.Now() //lint:allow detclock wall-clock tail timing feeds telemetry percentiles, never outputs
	rep, err := analysis.ReportShards(accs)
	tele.ObserveWall(telemetry.StageAnalysisReport, time.Since(start)) //lint:allow detclock wall-clock tail timing feeds telemetry percentiles, never outputs
	return rep, err
}

// fold adds one iteration to acc at stream position seq, timing it
// into the study's telemetry when one is attached.
func (s *Study) fold(acc *analysis.Accumulator, it *Iteration, seq int) {
	tele := s.cfg.Telemetry
	if tele == nil {
		acc.AddAt(it, seq)
		return
	}
	start := time.Now() //lint:allow detclock wall-clock fold timing feeds telemetry percentiles, never outputs
	acc.AddAt(it, seq)
	tele.ObserveWall(telemetry.StageAnalysisFold, time.Since(start)) //lint:allow detclock wall-clock fold timing feeds telemetry percentiles, never outputs
}

// Sweep types, re-exported for matrix construction and result
// consumption. A sweep expands a scenario matrix (seeds × storage
// modes × filter annotation × stealth × engine subsets) into concrete
// studies, runs them on a bounded worker pool, and aggregates the key
// §4 metrics across seeds (mean, stddev, min/max, 95% CI). Every
// cell's crawl is streamed one iteration at a time through an
// incremental analysis fold: a sweep retains O(parallelism)
// iterations, never a dataset and never O(cells) of anything.
type (
	// SweepMatrix declares the scenario matrix.
	SweepMatrix = sweep.Matrix
	// SweepCell is one concrete (scenario, seed) study configuration.
	SweepCell = sweep.Cell
	// SweepOptions bounds parallelism and injects shared dependencies.
	SweepOptions = sweep.Options
	// SweepResult carries per-cell summaries and per-scenario
	// cross-seed aggregates.
	SweepResult = sweep.Result
	// SweepAgg is one metric's cross-seed aggregate.
	SweepAgg = sweep.Agg
)

// Sweep expands the matrix and executes every cell on a bounded worker
// pool. Each cell runs the exact Study pipeline for its configuration,
// so any cell's report is byte-identical to running that study
// standalone. Canceling ctx aborts in-flight cells within one crawl
// iteration and marks unstarted cells canceled; the returned error
// joins all cell failures (wrapping ErrCanceled when the sweep was
// canceled), and the result is complete either way.
func Sweep(ctx context.Context, m SweepMatrix, opts SweepOptions) (*SweepResult, error) {
	res, err := sweep.Run(ctx, m, opts)
	return res, wrapCanceled(err)
}

// SweepPreset returns a named scenario matrix ("paper-baseline",
// "adblock-user", "cookieless-web", ...); see sweep.PresetNames.
func SweepPreset(name string) (SweepMatrix, error) { return sweep.Preset(name) }

// ParseSweepMatrix parses the -matrix grammar, e.g.
// "storage=flat,partitioned;filter=on,off;engines=bing+google,all".
func ParseSweepMatrix(s string) (SweepMatrix, error) { return sweep.ParseMatrix(s) }

// Accumulator is the incremental §4 analysis: feed it iterations with
// Add — typically straight off Study.Iterations — and materialise the
// report with Report, at any point and as often as needed. The fold
// over a crawl's stream produces a report byte-identical to
// Analyze/AnalyzeDataset over the equivalent dataset, while retaining
// compressed aggregate state instead of the iterations themselves.
type Accumulator = analysis.Accumulator

// NewAccumulator returns an empty incremental analysis (zero-value
// options select the embedded filter lists and entity list).
func NewAccumulator(opts AnalysisOptions) *Accumulator {
	return analysis.NewAccumulator(opts)
}

// AnalyzeDataset analyses a previously saved dataset.
func AnalyzeDataset(ds *Dataset) *Report { return analysis.Analyze(ds) }

// AnalyzeDatasetSharded analyses a dataset with the fold partitioned
// into contiguous shards folded in parallel and merged — the multi-core
// form of AnalyzeDataset. The report is byte-identical to the
// sequential fold for every shard count; shards <= 1 (or a dataset
// smaller than the shard count) degrades to the sequential fold.
// Cancelling ctx aborts within one iteration per shard; the error
// wraps ErrCanceled and ctx.Err().
func AnalyzeDatasetSharded(ctx context.Context, ds *Dataset, shards int) (*Report, error) {
	rep, err := analysis.AnalyzeSharded(ctx, ds, analysis.Options{}, shards)
	return rep, wrapCanceled(err)
}

// LoadDataset reads a dataset saved with Dataset.Save. A file with
// another schema version is refused with an error wrapping
// ErrDatasetVersion.
func LoadDataset(path string) (*Dataset, error) { return crawler.Load(path) }

// DefaultFilterEngine compiles the embedded EasyList/EasyPrivacy-style
// lists (§3.2).
func DefaultFilterEngine() *FilterEngine { return filterlist.DefaultEngine() }

// DefaultEntities returns the embedded Disconnect-style entity list.
func DefaultEntities() *EntityList { return entities.Default() }
