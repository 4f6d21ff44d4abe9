package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"searchads/internal/analysis"
	"searchads/internal/crawler"
	"searchads/internal/entities"
	"searchads/internal/filterlist"
	"searchads/internal/netsim"
	"searchads/internal/telemetry"
	"searchads/internal/websim"
)

// Options configures a sweep run.
type Options struct {
	// Parallel bounds the number of cells in flight at once
	// (0 = GOMAXPROCS). Each in-flight cell holds at most one crawl
	// iteration at a time, so this also bounds peak iteration retention.
	Parallel int
	// Filter is the filter engine shared by every cell — crawl-time
	// annotation for FilterAnnotate cells and the analysis side of all
	// cells (nil = the embedded EasyList+EasyPrivacy default). The
	// engine is read-only after its index is built and safe to share.
	Filter *filterlist.Engine
	// Entities is the organisation list shared by every cell's
	// analysis (nil = the embedded Disconnect-style default).
	Entities *entities.List
	// OnReport, when set, receives each cell's report right after its
	// analysis. Calls are serialized, in completion order. The sweep
	// itself retains only scalar metrics; a caller that stores every
	// report reintroduces O(cells) retention on its own side.
	OnReport func(Cell, *analysis.Report)
	// OnCellDone, when set, is called (serialized) after each cell
	// completes — progress reporting. done counts finished cells,
	// including cells restored from a checkpoint.
	OnCellDone func(done, total int, c Cell, err error)
	// OnIteration, when set, is called (serialized) for every crawled
	// iteration across all in-flight cells, as each is handed from the
	// crawl stream to the analysis fold. Iterations restored from a
	// checkpoint do not fire it — only live crawling does, which is what
	// makes it the kill-point hook of the crash-recovery harness.
	OnIteration func(c Cell, it *crawler.Iteration)
	// Checkpoint, when set, names the sweep's crash-safe progress file:
	// completed cells park their scalar results there, in-flight cells
	// their crawled prefix, written atomically every CheckpointEvery
	// iterations and on cancellation. A killed sweep re-Run with the
	// same matrix skips completed cells and resumes in-flight ones
	// mid-crawl; its Cells, Scenarios, and Metrics are byte-identical to
	// an uninterrupted sweep's (Parallelism and PeakRetainedIterations
	// are runtime observations and may differ). The memory bound loosens
	// while checkpointing: in-flight cells retain their prefix, so peak
	// retention is O(parallelism · cell size) rather than O(parallelism).
	Checkpoint string
	// CheckpointEvery is the checkpoint write interval in crawled
	// iterations across the sweep (default 25). It bounds redone work
	// after a kill, never output bytes.
	CheckpointEvery int
	// Telemetry, when set, records run-time metrics across the whole
	// sweep: cell lifecycle (wall latency, done/error counts), each
	// cell's crawl (round trips, navigations, iterations — see
	// crawler.Config.Telemetry), analysis fold latency (one sample per
	// folded iteration, checkpoint-restored ones included),
	// checkpoint writes, and world reuse (world_derivations per seed,
	// world_instantiations per cell). nil = off. Telemetry never affects
	// sweep output and does not enter the matrix hash.
	Telemetry *telemetry.Registry
}

// CellResult is the retained summary of one executed cell: scalar
// metrics only, the iterations and report are gone.
type CellResult struct {
	Scenario string `json:"scenario"`
	Seed     int64  `json:"seed"`
	// EngineOrder lists the cell's engines in crawl order.
	EngineOrder []string `json:"engine_order"`
	// Metrics maps engine → metric name → value (see
	// analysis.MetricNames).
	Metrics map[string]map[string]float64 `json:"metrics"`
	// Iterations counts crawled iterations; IterationErrors counts the
	// ones that recorded an error (e.g. "no ads displayed" on
	// stealth-off cells) — observed as the cell's stream goes by.
	Iterations      int `json:"iterations"`
	IterationErrors int `json:"iteration_errors"`
	// FailureClasses attributes the errored iterations by typed error
	// class, summed across the cell's engines (absent when the cell
	// recorded no failures — fault-free sweep output keeps its exact
	// pre-chaos shape).
	FailureClasses map[string]int `json:"failure_classes,omitempty"`
	// Outcomes is the arms-race accounting (recovered/lost/abandoned),
	// summed across the cell's engines (absent when no iteration of the
	// cell carries an outcome).
	Outcomes map[string]int `json:"outcomes,omitempty"`
	// Err is the cell-level failure ("" on success; canceled cells
	// carry the context error). Errored cells are excluded from
	// aggregation and make Run return an error.
	Err string `json:"error,omitempty"`
}

// Result is a complete sweep: per-cell summaries plus per-scenario
// cross-seed aggregates.
type Result struct {
	// Cells holds one entry per matrix cell, in expansion order.
	Cells []CellResult `json:"cells"`
	// Scenarios holds the cross-seed aggregates, in expansion order.
	Scenarios []ScenarioAggregate `json:"scenarios"`
	// Metrics names the aggregated metrics, in render order.
	Metrics []string `json:"metrics"`
	// Parallelism is the worker-pool width the sweep ran with.
	Parallelism int `json:"parallelism"`
	// PeakRetainedIterations is the high-water mark of crawl
	// iterations simultaneously held by the sweep — bounded by
	// Parallelism, not by cell count and not by dataset size: each
	// cell streams its crawl through an analysis.Accumulator one
	// iteration at a time, so no cell ever holds a dataset.
	PeakRetainedIterations int `json:"peak_retained_iterations"`
	// CellErrors counts failed cells (including canceled ones).
	CellErrors int `json:"cell_errors"`
}

// Aggregate returns the named scenario's aggregate (nil if absent).
func (r *Result) Aggregate(scenario string) *ScenarioAggregate {
	for i := range r.Scenarios {
		if r.Scenarios[i].Scenario == scenario {
			return &r.Scenarios[i]
		}
	}
	return nil
}

// Run expands the matrix and executes every cell on a bounded worker
// pool. Each worker streams its cell's crawl straight through an
// incremental analysis fold and retains only the resulting scalar
// metrics — so at any instant the sweep holds at most Parallel crawl
// iterations, never a dataset. Cell execution is exactly the
// searchads.Study pipeline with the same configuration, so every
// cell's report is byte-identical to running that study standalone.
//
// Cells that share a seed crawl the same seeded web, so they are
// dispatched together: the first worker to reach a seed derives its
// websim.Blueprint, the others wait for it, and each cell instantiates
// its own world from it. A blueprint lives only within this call and is
// dropped once the last cell of its seed is done, so the number live is
// bounded by the pool width (plus one), not by the number of seeds.
// Results stay in expansion order.
//
// Canceling ctx aborts promptly: in-flight cells stop within one crawl
// iteration, queued cells are marked canceled without running, and the
// pool is drained before Run returns. The result is complete either
// way — failed or canceled cells carry Err and are excluded from
// aggregates. One predicate, "did every cell complete?", decides both
// the returned error and the checkpoint: if so, Run returns nil and
// removes the checkpoint, even when a cancel landed after the last cell
// finished; if not, the error joins every cell failure plus ctx.Err()
// and the checkpoint keeps every crawled iteration.
func Run(ctx context.Context, m Matrix, opts Options) (*Result, error) {
	cells := m.Expand()
	workers := opts.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cells) {
		workers = len(cells)
	}
	filter := opts.Filter
	if filter == nil {
		filter = filterlist.DefaultEngine()
	}
	ents := opts.Entities
	if ents == nil {
		ents = entities.Default()
	}

	r := &runner{
		opts:     opts,
		filter:   filter,
		ents:     ents,
		cells:    cells,
		results:  make([]CellResult, len(cells)),
		cellErrs: make([]error, len(cells)),
	}
	if opts.Checkpoint != "" {
		if err := r.initCheckpoint(); err != nil {
			return nil, err
		}
		for _, done := range r.restored {
			if done {
				r.done++
			}
		}
	}

	order := r.dispatchOrder()
	indices := make(chan int, len(order))
	for _, i := range order {
		indices <- i
	}
	close(indices)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range indices {
				r.runCell(ctx, i)
			}
		}()
	}
	wg.Wait()

	res := &Result{
		Cells:                  r.results,
		Scenarios:              aggregate(cells, r.results, analysis.MetricNames()),
		Metrics:                analysis.MetricNames(),
		Parallelism:            workers,
		PeakRetainedIterations: r.peak,
	}
	var errs []error
	ctxErr := ctx.Err()
	for i, cr := range r.results {
		if cr.Err == "" {
			continue
		}
		res.CellErrors++
		// Cancellation is reported once, below, not per cell. Cell
		// errors keep their chains (%w) so errors.Is still matches
		// sentinels like crawler.ErrUnknownEngine through the join.
		cellErr := r.cellErrs[i]
		if ctxErr != nil && (errors.Is(cellErr, context.Canceled) || errors.Is(cellErr, context.DeadlineExceeded)) {
			continue
		}
		errs = append(errs, fmt.Errorf("cell %s seed=%d: %w", cr.Scenario, cr.Seed, cellErr))
	}
	complete := res.CellErrors == 0
	if !complete && ctxErr != nil {
		errs = append(errs, ctxErr)
	}
	if r.ckpt != nil {
		if err := r.ckpt.finalize(complete); err != nil {
			errs = append(errs, err)
		}
	}
	return res, errors.Join(errs...)
}

// dispatchOrder lists the cells to run, grouped by seed in order of each
// seed's first appearance, and registers one blueprint entry per seed.
// Cells restored from a checkpoint are skipped.
func (r *runner) dispatchOrder() []int {
	var seeds []int64
	groups := make(map[int64][]int)
	for i, c := range r.cells {
		if r.restored != nil && r.restored[i] {
			continue // completed in an earlier run; result already in place
		}
		if _, ok := groups[c.Seed]; !ok {
			seeds = append(seeds, c.Seed)
		}
		groups[c.Seed] = append(groups[c.Seed], i)
	}
	r.blueprints = make(map[int64]*blueprintEntry, len(seeds))
	order := make([]int, 0, len(r.cells))
	for _, seed := range seeds {
		r.blueprints[seed] = &blueprintEntry{pending: len(groups[seed])}
		order = append(order, groups[seed]...)
	}
	return order
}

// blueprintEntry is one seed's shared web within a Run.
type blueprintEntry struct {
	once    sync.Once
	bp      *websim.Blueprint
	pending int // cells of this seed not yet done; guarded by runner.mu
}

// blueprint returns the cell's seeded web, deriving it on first use.
func (r *runner) blueprint(seed int64, wcfg websim.Config) *websim.Blueprint {
	r.mu.Lock()
	e := r.blueprints[seed]
	r.mu.Unlock()
	e.once.Do(func() {
		e.bp = websim.Derive(wcfg)
		r.opts.Telemetry.Inc(telemetry.CounterWorldDerivations)
	})
	return e.bp
}

// releaseBlueprint marks one cell of seed done and drops the seed's
// blueprint after its last cell.
func (r *runner) releaseBlueprint(seed int64) {
	r.mu.Lock()
	e := r.blueprints[seed]
	if e.pending--; e.pending == 0 {
		delete(r.blueprints, seed)
	}
	r.mu.Unlock()
}

// runner is the shared state of one sweep execution.
type runner struct {
	opts     Options
	filter   *filterlist.Engine
	ents     *entities.List
	cells    []Cell
	results  []CellResult
	cellErrs []error

	// Checkpoint state (nil/empty when Options.Checkpoint is unset).
	ckpt     *sweepCheckpointer
	restored []bool                 // cells completed by an earlier run
	resume   [][]*crawler.Iteration // in-flight prefixes restored per cell

	mu         sync.Mutex // guards the fields below and serializes callbacks
	retained   int        // crawl iterations currently held
	peak       int        // high-water mark of retained
	done       int        // completed cells
	blueprints map[int64]*blueprintEntry
}

// runCell executes one cell end to end and retains only its scalars.
// Cells reached after cancellation are marked canceled without running.
func (r *runner) runCell(ctx context.Context, i int) {
	c := r.cells[i]
	defer r.releaseBlueprint(c.Seed)
	cr := CellResult{Scenario: c.Scenario, Seed: c.Seed}

	tele := r.opts.Telemetry
	var cellStart time.Time
	if tele != nil {
		cellStart = time.Now() //lint:allow detclock wall-clock cell timing feeds telemetry percentiles, never outputs
		tele.Emit(telemetry.Event{Type: "cell_start", Scenario: c.Scenario, Seed: c.Seed})
	}

	var err error
	if err = ctx.Err(); err == nil {
		var rep *analysis.Report
		rep, err = r.crawlAndAnalyze(ctx, i, c, &cr)
		if err == nil {
			cr.EngineOrder = rep.EngineOrder
			cr.Metrics = make(map[string]map[string]float64, len(rep.EngineOrder))
			for _, e := range rep.EngineOrder {
				cr.Metrics[e] = rep.EngineMetrics(e)
			}
			for _, fc := range rep.Failures {
				if cr.FailureClasses == nil {
					cr.FailureClasses = make(map[string]int)
				}
				for cls, n := range fc {
					cr.FailureClasses[cls] += n
				}
			}
			for _, oc := range rep.Outcomes {
				if cr.Outcomes == nil {
					cr.Outcomes = make(map[string]int)
				}
				for o, n := range oc {
					cr.Outcomes[o] += n
				}
			}
		}
	}
	if err != nil {
		cr.Err = err.Error()
		r.cellErrs[i] = err
	} else if r.ckpt != nil {
		// Park the scalar result before the cell is reported done: a
		// kill after this write never re-runs the cell.
		if ckptErr := r.ckpt.cellDone(i, cr); ckptErr != nil {
			err = ckptErr
			cr.Err = err.Error()
			r.cellErrs[i] = err
		}
	}
	r.results[i] = cr

	if tele != nil {
		wall := time.Since(cellStart) //lint:allow detclock wall-clock cell timing feeds telemetry percentiles, never outputs
		tele.ObserveWall(telemetry.StageSweepCell, wall)
		tele.Inc(telemetry.CounterSweepCells)
		ev := telemetry.Event{Type: "cell", Scenario: c.Scenario, Seed: c.Seed, WallMicros: wall.Microseconds()}
		if err != nil {
			tele.Inc(telemetry.CounterSweepCellErrors)
			ev.Err = err.Error()
		}
		tele.Emit(ev)
	}

	if r.opts.OnCellDone != nil {
		r.mu.Lock()
		r.done++
		r.opts.OnCellDone(r.done, len(r.cells), c, err)
		r.mu.Unlock()
	}
}

// crawlAndAnalyze is the cell pipeline: a world instantiated from the
// seed's shared blueprint, then the crawl streamed one iteration at a
// time into an incremental analysis fold. Each iteration is born inside
// the crawler, counted while the sweep holds it, folded, and dropped —
// which is what keeps sweep memory O(parallelism · iteration) instead
// of O(parallelism · dataset).
func (r *runner) crawlAndAnalyze(ctx context.Context, i int, c Cell, cr *CellResult) (*analysis.Report, error) {
	plan, err := netsim.NewFaultPlan(c.FaultProfile, c.FaultRate, c.Adversary)
	if err != nil {
		return nil, err
	}
	wcfg := websim.Config{
		Seed:             c.Seed,
		Engines:          c.Engines,
		QueriesPerEngine: c.QueriesPerEngine,
		Faults:           plan,
	}
	cm, err := crawler.CountermeasureBundle(c.Countermeasure)
	if err != nil {
		return nil, err
	}
	world := r.blueprint(c.Seed, wcfg).Instantiate(wcfg)
	r.opts.Telemetry.Inc(telemetry.CounterWorldInstantiations)
	var crawlFilter *filterlist.Engine
	if c.FilterAnnotate {
		crawlFilter = r.filter
	}
	opts := analysis.Options{Filter: r.filter, Entities: r.ents}
	ccfg := crawler.Config{
		World:           world,
		Engines:         c.Engines,
		Iterations:      c.Iterations,
		StorageMode:     c.Storage,
		NoStealth:       c.NoStealth,
		SkipRevisit:     c.SkipRevisit,
		Filter:          crawlFilter,
		Countermeasures: cm,
		Telemetry:       r.opts.Telemetry,
	}
	// A checkpointed prefix fast-forwards the crawl and is re-folded
	// below, so the cell's analysis observes the exact uninterrupted
	// stream: prefix first, then the freshly crawled tail.
	var prefix []*crawler.Iteration
	if r.resume != nil {
		prefix = r.resume[i]
	}
	if len(prefix) > 0 {
		ccfg.Resume = crawler.ResumeFromIterations(prefix)
	}
	stream := crawler.New(ccfg).Iterations(ctx)

	// observe is the per-iteration bookkeeping around the fold. live is
	// false for checkpoint-restored iterations: they fired the hooks and
	// were checkpointed in their original run.
	observe := func(it *crawler.Iteration, live bool) error {
		cr.Iterations++
		if it.Error != "" {
			cr.IterationErrors++
		}
		if !live {
			return nil
		}
		if r.opts.OnIteration != nil {
			r.mu.Lock()
			r.opts.OnIteration(c, it)
			r.mu.Unlock()
		}
		if r.ckpt != nil {
			return r.ckpt.appendIteration(i, it)
		}
		return nil
	}

	acc := analysis.NewAccumulator(opts)
	fold := func(it *crawler.Iteration) {
		tele := r.opts.Telemetry
		if tele == nil {
			acc.Add(it)
			return
		}
		start := time.Now() //lint:allow detclock wall-clock fold timing feeds telemetry percentiles, never outputs
		acc.Add(it)
		tele.ObserveWall(telemetry.StageAnalysisFold, time.Since(start)) //lint:allow detclock wall-clock fold timing feeds telemetry percentiles, never outputs
	}
	for _, it := range prefix {
		observe(it, false)
		fold(it)
	}
	for it, err := range stream {
		if err != nil {
			return nil, err
		}
		r.trackIteration(+1)
		if err := observe(it, true); err != nil {
			r.trackIteration(-1)
			return nil, err
		}
		fold(it)
		r.trackIteration(-1)
	}
	rep := r.report(acc)
	if r.opts.OnReport != nil {
		r.mu.Lock()
		r.opts.OnReport(c, rep)
		r.mu.Unlock()
	}
	return rep, nil
}

// report runs the cell's analysis Report, timing it into the sweep's
// telemetry when one is attached.
func (r *runner) report(acc *analysis.Accumulator) *analysis.Report {
	tele := r.opts.Telemetry
	if tele == nil {
		return acc.Report()
	}
	start := time.Now() //lint:allow detclock wall-clock report timing feeds telemetry percentiles, never outputs
	rep := acc.Report()
	tele.ObserveWall(telemetry.StageAnalysisReport, time.Since(start)) //lint:allow detclock wall-clock report timing feeds telemetry percentiles, never outputs
	return rep
}

// trackIteration maintains the retained-iteration high-water mark: a
// cell holds exactly one iteration from the moment the crawl stream
// hands it over until the analysis fold has consumed it.
func (r *runner) trackIteration(delta int) {
	r.mu.Lock()
	r.retained += delta
	if r.retained > r.peak {
		r.peak = r.retained
	}
	r.mu.Unlock()
}
