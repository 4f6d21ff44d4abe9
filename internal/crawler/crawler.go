package crawler

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"searchads/internal/browser"
	"searchads/internal/filterlist"
	"searchads/internal/netsim"
	"searchads/internal/serp"
	"searchads/internal/storage"
	"searchads/internal/telemetry"
	"searchads/internal/urlx"
	"searchads/internal/websim"
)

// ErrUnknownEngine is wrapped by Run/Iterations when Config.Engines
// names an engine the world does not have; match with errors.Is.
var ErrUnknownEngine = errors.New("unknown engine")

// Config parameterises a crawl.
type Config struct {
	// World is the simulated web to crawl.
	World *websim.World
	// Engines selects which engines to crawl; nil = the world's
	// configured engines.
	Engines []string
	// Iterations caps iterations per engine; 0 = one per query.
	Iterations int
	// StorageMode is the browser's cookie model. The paper crawls with
	// Chrome's default (flat); Partitioned supports the paper's §2.2.1
	// storage-partitioning ablation.
	StorageMode storage.Mode
	// CaptureProb is the crawler-side recorder's capture probability
	// (the paper measured a 97% median against the extension recorder).
	// 0 means 0.97.
	CaptureProb float64
	// Stealth applies the stealth fingerprint (default). Without it the
	// engines detect the bot and serve no ads — reproducing why the
	// paper needed puppeteer-extra-plugin-stealth.
	NoStealth bool
	// SkipRevisit disables the next-day re-iteration (faster, but the
	// session-identifier filter loses its signal).
	SkipRevisit bool
	// Parallel crawls iterations on a worker pool sized to the CPU.
	// Within an engine, iterations stay strictly ordered — the
	// unvisited-first ad choice is order-dependent — but different
	// engines' iterations overlap across all cores. Identifier streams
	// are derived from (engine, iteration) labels rather than global
	// mint order, and each browser profile runs its own virtual clock,
	// so a Parallel crawl produces a dataset byte-identical to the
	// sequential crawl of the same Config.
	Parallel bool
	// Filter, when set, matches every recorded request against the
	// filter engine during the crawl (via Engine.MatchBatch) and
	// annotates each iteration with per-stage tracker counts. The
	// engine's index is read-only after build, so one engine is safely
	// shared across Parallel engine goroutines.
	Filter *filterlist.Engine
	// Retry is the browsers' document-navigation retry policy against
	// injected faults (zero fields = the browser defaults). Backoff
	// runs on each browser's private virtual clock, so the policy is
	// deterministic and free when the world injects no faults.
	Retry browser.RetryPolicy
	// Countermeasures arms the anti-adversary survival kit: browser-level
	// pacing/rotation/CAPTCHA-solving plus the per-engine circuit
	// breaker. The zero value is disarmed and byte-inert.
	Countermeasures Countermeasures
	// Telemetry, when set, records run-time metrics for the crawl:
	// per-iteration latency (wall and virtual), per-engine and
	// per-ErrorClass tallies, queue wait in the Parallel pool, and —
	// installed onto the world's network for the crawl — round-trip
	// latency and fault counts. nil = off, at zero cost beyond a nil
	// check per site. Telemetry never affects crawl output: datasets
	// and reports are byte-identical with it on, off, or absent.
	Telemetry *telemetry.Registry
	// Resume, when set, fast-forwards the crawl past iterations an
	// earlier run of the same configuration already recorded: each
	// engine chain starts at its recorded cursor with the
	// unvisited-first ad-choice state rebuilt from the recorded clicks,
	// and the stream emits exactly the iterations the uninterrupted
	// crawl would emit from that point on, byte for byte. The world
	// must be fresh (untouched by any crawl) — resume re-derives, never
	// replays. See ResumeState.
	Resume *ResumeState
}

// Crawler runs the measurement pipeline.
type Crawler struct {
	cfg Config
}

// New returns a crawler for the given config.
func New(cfg Config) *Crawler {
	if cfg.CaptureProb == 0 {
		cfg.CaptureProb = 0.97
	}
	if len(cfg.Engines) == 0 {
		cfg.Engines = cfg.World.Cfg.Engines
	}
	cfg.Countermeasures = cfg.Countermeasures.withDefaults()
	if cfg.Telemetry != nil {
		// One central install covers every caller (facade, sweep
		// cells): the crawl's network reports round trips and faults
		// into the same registry the crawler reports iterations into.
		cfg.World.Net.InstallTelemetry(cfg.Telemetry)
	}
	return &Crawler{cfg: cfg}
}

// NewDataset returns the metadata-only dataset shell Run fills with
// iterations. Streaming consumers assembling their own dataset from
// Iterations use it so the result is byte-identical to Run's.
func (c *Crawler) NewDataset() *Dataset {
	return &Dataset{
		Seed:            c.cfg.World.Cfg.Seed,
		StorageMode:     c.cfg.StorageMode.String(),
		CreatedAt:       c.cfg.World.Net.Clock().Now(),
		FilterAnnotated: c.cfg.Filter != nil,
	}
}

// Run executes the full crawl and returns the dataset: the collected
// form of Iterations. It fails fast with an error wrapping
// ErrUnknownEngine if Config.Engines names an engine the world does not
// have — a typo used to silently produce an empty per-engine slot —
// and returns ctx.Err() (with no dataset) if the context is canceled
// mid-crawl.
func (c *Crawler) Run(ctx context.Context) (*Dataset, error) {
	ds := c.NewDataset()
	for it, err := range c.Iterations(ctx) {
		if err != nil {
			return nil, err
		}
		ds.Iterations = append(ds.Iterations, it)
	}
	return ds, nil
}

// crawlPlan is a validated crawl schedule: the resolved engines, the
// per-engine iteration counts, and the global emission offsets. Under
// resume, start marks the first iteration each chain still has to
// crawl and base/total index only the remaining work.
type crawlPlan struct {
	engines []*serp.Engine
	names   []string
	homes   []string // each engine's home page URL
	counts  []int    // iterations per engine
	start   []int    // first un-crawled iteration per engine (0 without resume)
	base    []int    // emission index of each engine's iteration start
	visited []map[string]bool
	total   int // iterations left to crawl (and emit)
	// breakers is the per-engine circuit-breaker state; breakerEvents is
	// the recorded history a resume replays to rebuild it (see
	// ResumeState.Breaker).
	breakers      []breakerState
	breakerEvents []string
	// chains holds each chain's reusable storage (chainState): built for
	// the chain's first crawled iteration and dropped with the last. A
	// chain has at most one iteration in flight (startChains) and the
	// sequential loops run chains one after another, so no lock guards it.
	chains []*chainState
	// lend makes each chain build its iterations in its own lentRecords
	// (RunChains) instead of fresh records.
	lend bool
}

// plan validates the config against the world and lays out the
// per-engine iteration chains: counts[idx] iterations each, strictly
// ordered within an engine (the unvisited-first ad choice depends on
// the previous iterations' clicks).
func (c *Crawler) plan() (*crawlPlan, error) {
	w := c.cfg.World
	p := &crawlPlan{
		engines: make([]*serp.Engine, len(c.cfg.Engines)),
		names:   c.cfg.Engines,
	}
	seen := make(map[string]bool, len(c.cfg.Engines))
	for i, name := range c.cfg.Engines {
		// Duplicates would give two chains identical instance labels, so
		// their minting streams would collide and a Parallel crawl would
		// no longer be byte-identical to a sequential one.
		if seen[name] {
			return nil, fmt.Errorf("crawler: engine %q listed twice in Config.Engines", name)
		}
		seen[name] = true
		engine := w.Engine(name)
		if engine == nil {
			known := make([]string, 0, len(w.Engines))
			for k := range w.Engines {
				known = append(known, k)
			}
			sort.Strings(known)
			return nil, fmt.Errorf("crawler: %w %q (world has: %s)",
				ErrUnknownEngine, name, strings.Join(known, ", "))
		}
		p.engines[i] = engine
	}
	p.homes = make([]string, len(p.engines))
	for i, e := range p.engines {
		p.homes[i] = "https://" + e.Spec.Host + "/"
	}
	p.counts = make([]int, len(p.engines))
	p.start = make([]int, len(p.engines))
	p.base = make([]int, len(p.engines))
	p.visited = make([]map[string]bool, len(p.engines))
	for idx := range p.engines {
		n := len(w.Queries[c.cfg.Engines[idx]])
		if c.cfg.Iterations > 0 && c.cfg.Iterations < n {
			n = c.cfg.Iterations
		}
		p.counts[idx] = n
		p.visited[idx] = make(map[string]bool)
	}
	p.breakers = make([]breakerState, len(p.engines))
	p.breakerEvents = make([]string, len(p.engines))
	p.chains = make([]*chainState, len(p.engines))
	if c.cfg.Resume != nil {
		if err := c.cfg.Resume.validate(p); err != nil {
			return nil, err
		}
	}
	if br := c.cfg.Countermeasures.Breaker; br.Threshold > 0 {
		// Replay the recorded event history so each chain's breaker
		// resumes in the exact state the killed run held — including a
		// breaker that was mid-cool-down when the checkpoint was taken.
		for idx := range p.engines {
			for _, ev := range []byte(p.breakerEvents[idx]) {
				switch ev {
				case 's':
					p.breakers[idx].shouldShed(br)
				case 'f':
					p.breakers[idx].observe(br, true)
				default:
					p.breakers[idx].observe(br, false)
				}
			}
		}
	}
	for idx := range p.engines {
		p.base[idx] = p.total
		p.total += p.counts[idx] - p.start[idx]
	}
	return p, nil
}

// runOne crawls one (engine, iteration) coordinate of the plan — or
// sheds it when the engine's circuit breaker is open.
func (c *Crawler) runOne(p *crawlPlan, idx, iter int) *Iteration {
	tele := c.cfg.Telemetry
	br := c.cfg.Countermeasures.Breaker
	if p.breakers[idx].shouldShed(br) {
		it := c.shedIteration(p, idx, iter)
		if tele != nil {
			tele.Inc(telemetry.CounterIterations)
			tele.Inc(telemetry.CounterIterationErrors)
			tele.Inc(telemetry.CounterBreakerSheds)
			tele.IncEngine(p.names[idx], true)
			tele.IncErrorClass(it.ErrorClass)
			tele.Emit(telemetry.Event{Type: "iteration", Engine: p.names[idx], Index: iter, Class: it.ErrorClass})
		}
		c.observeOutcome(it)
		return it
	}
	if tele == nil {
		it := c.runIteration(p, idx, iter)
		c.annotateTrackers(it)
		p.breakers[idx].observe(br, breakerEvent(it) == 'f')
		return it
	}
	engine := p.names[idx]
	tele.Emit(telemetry.Event{Type: "iteration_start", Engine: engine, Index: iter})
	start := time.Now() //lint:allow detclock wall-clock iteration timing feeds telemetry percentiles, never outputs
	it := c.runIteration(p, idx, iter)
	c.annotateTrackers(it)
	wall := time.Since(start) //lint:allow detclock wall-clock iteration timing feeds telemetry percentiles, never outputs
	tele.ObserveWall(telemetry.StageIteration, wall)
	tele.Inc(telemetry.CounterIterations)
	errored := it.Error != ""
	tele.IncEngine(engine, errored)
	ev := telemetry.Event{Type: "iteration", Engine: engine, Index: iter, WallMicros: wall.Microseconds()}
	if errored {
		tele.Inc(telemetry.CounterIterationErrors)
		tele.IncErrorClass(it.ErrorClass)
		ev.Class = it.ErrorClass
	}
	tele.Emit(ev)
	if p.breakers[idx].observe(br, breakerEvent(it) == 'f') {
		tele.Inc(telemetry.CounterBreakerTrips)
	}
	c.observeOutcome(it)
	return it
}

// shedIteration records one iteration the open breaker declined to
// crawl: no browser runs, no request is sent, no detrand stream is
// consumed — identifier streams are keyed per instance label, so the
// engine's remaining iterations are unperturbed by the gap.
func (c *Crawler) shedIteration(p *crawlPlan, idx, iter int) *Iteration {
	name := p.names[idx]
	return &Iteration{
		Engine:     name,
		EngineHost: p.engines[idx].Spec.Host,
		Index:      iter,
		Instance:   instanceLabel(name, iter),
		Query:      c.cfg.World.Queries[name][iter],
		ClickedAd:  -1,
		Error:      fmt.Sprintf("breaker open: %s shedding load during cool-down", name),
		ErrorClass: string(ClassBreakerOpen),
		Outcome:    OutcomeAbandoned,
	}
}

// observeOutcome reports an iteration's arms-race accounting to
// telemetry. A no-op when telemetry is off or the outcome is empty.
func (c *Crawler) observeOutcome(it *Iteration) {
	tele := c.cfg.Telemetry
	if tele == nil {
		return
	}
	if it.Rotations > 0 {
		tele.Add(telemetry.CounterSessionRotations, uint64(it.Rotations))
	}
	if it.CaptchaSolves > 0 {
		tele.Add(telemetry.CounterCaptchaSolves, uint64(it.CaptchaSolves))
	}
	switch it.Outcome {
	case OutcomeRecovered:
		tele.Inc(telemetry.CounterIterationsRecovered)
	case OutcomeLost:
		tele.Inc(telemetry.CounterIterationsLost)
	case OutcomeAbandoned:
		tele.Inc(telemetry.CounterIterationsAbandoned)
	}
}

// Iterations returns the crawl as a stream: every iteration, emitted in
// dataset order (engines in Config order, iteration index ascending) as
// soon as it — and, under Parallel, every iteration before it — has
// finished crawling. It is the primary consumption surface; Run is the
// collect-into-a-Dataset convenience over it.
//
// The stream yields each iteration with a nil error; if the context is
// canceled or the config is invalid, it yields one final (nil, err) and
// stops. Cancellation is honored between iterations — the stream ends
// within one iteration's work — and leaves no goroutines behind: the
// iterator returns only after its worker pool has drained. Breaking out
// of the range early likewise stops the crawl and reclaims the pool.
//
// Iterations does not retain what it emits, so a consumer folding the
// stream (e.g. analysis.Accumulator) observes a full sequential crawl
// in O(one iteration) of memory — the mode to use when the memory
// bound matters (the sweep engine crawls its cells sequentially for
// exactly this reason). Under Parallel the stream is RunChains plus a
// reorder buffer: a consumer slower than the crawl stalls the workers
// (the completion channel is bounded), but because emission is
// engine-major while engines crawl concurrently, the buffer holds the
// later engines' completed iterations until the emission cursor
// reaches them — up to everything but the first engine's remainder in
// the worst case, the same order of memory a Run dataset holds anyway.
// A consumer that needs no global order and keeps nothing of an
// iteration past its fold (a sharded fold, for one) calls RunChains
// directly, which buffers nothing and lends each iteration in storage
// its chain reuses. Every iteration Iterations emits is a fresh record
// the consumer may keep. Identifier minting is keyed by (engine,
// iteration) labels, so the emitted iterations are byte-identical to
// the ones a Run dataset holds, sequential or Parallel alike.
func (c *Crawler) Iterations(ctx context.Context) iter.Seq2[*Iteration, error] {
	return func(yield func(*Iteration, error) bool) {
		p, err := c.plan()
		if err != nil {
			yield(nil, err)
			return
		}
		if c.cfg.Parallel {
			c.streamParallel(ctx, p, yield)
		} else {
			c.streamSequential(ctx, p, yield)
		}
	}
}

// streamSequential crawls engine-major; completion order is already
// dataset order, so every iteration is emitted the moment it finishes.
func (c *Crawler) streamSequential(ctx context.Context, p *crawlPlan, yield func(*Iteration, error) bool) {
	if err := c.crawlSequential(ctx, p, func(_, _ int, it *Iteration) bool { return yield(it, nil) }); err != nil {
		yield(nil, err)
	}
}

// crawlSequential crawls p's chains engine-major on the caller's
// goroutine, handing emit each iteration with its chain and dataset
// position. It stops when emit returns false, and returns ctx.Err() if
// the context is done before an iteration starts.
func (c *Crawler) crawlSequential(ctx context.Context, p *crawlPlan, emit func(chain, seq int, it *Iteration) bool) error {
	for idx := range p.engines {
		for i := p.start[idx]; i < p.counts[idx]; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if !emit(idx, p.base[idx]+i-p.start[idx], c.runOne(p, idx, i)) {
				return nil
			}
		}
	}
	return nil
}

// Engines returns the engines the crawl covers, in Config order: the
// chain indexes RunChains reports are positions in this slice.
func (c *Crawler) Engines() []string { return c.cfg.Engines }

// RunChains is the fold-only crawl: it hands each iteration to visit
// right after crawling it and buffers nothing. A sequential crawl runs the chains engine-major on the
// caller's goroutine as worker 0, so visit sees dataset order; a
// Parallel one runs them on the crawler's worker pool and calls visit on
// the worker that crawled the iteration, before that chain's next
// iteration is scheduled. worker is below min(GOMAXPROCS,
// len(Engines())); chain is the engine's position in Engines; seq is the
// iteration's position in the dataset order Iterations emits (counted
// from the resume point under Config.Resume).
//
// The iteration is lent: it is valid only until visit returns. The
// chain then builds its next iteration in the same storage — the
// Iteration, its request, cookie, storage, ad and hop record slices,
// every RequestRecord.Cookies map and every HopRecord.SetCookieNames —
// and drops that storage with its last iteration. A consumer that must
// keep any part of an iteration copies it out during visit (strings may
// be kept: they are never rewritten); one that keeps records wants
// Iterations or Run, which hand out fresh ones. Race-detector builds
// overwrite every lent record with sentinel values once visit returns.
//
// One worker's calls are sequential, so per-worker state needs no lock.
// Within a chain, visit sees iterations in index order, each call
// finishing before the next one starts (a happens-before edge), so
// per-chain state needs no lock either; under Parallel a chain's
// iterations may land on any worker and different workers' calls run
// concurrently.
//
// RunChains returns nil once every chain has finished, the config error
// if the plan is invalid (wrapping ErrUnknownEngine for an unknown
// engine), or ctx.Err() if the context was canceled first (checked
// between iterations); it returns only after every worker has exited.
func (c *Crawler) RunChains(ctx context.Context, visit func(worker, chain, seq int, it *Iteration)) error {
	p, err := c.plan()
	if err != nil {
		return err
	}
	p.lend = true
	if scribbleLent.Load() {
		fold := visit
		visit = func(worker, chain, seq int, it *Iteration) {
			fold(worker, chain, seq, it)
			scribble(it)
		}
	}
	if !c.cfg.Parallel {
		return c.crawlSequential(ctx, p, func(chain, seq int, it *Iteration) bool {
			visit(0, chain, seq, it)
			return true
		})
	}
	if !c.startChains(ctx, p, visit)() {
		return ctx.Err()
	}
	return nil
}

// streamParallel emits the pool's output (startChains) in dataset
// order. The completion channel, one slot per engine, is the
// backpressure: a consumer slower than the crawl stalls the workers.
// The reorder buffer (pending) is bounded only by the dataset's tail
// (see Iterations); bounding it would mean stalling every engine ahead
// of the emission cursor, i.e. serialising the crawl.
//
// On cancellation (or an early consumer break) workers stop picking up
// tasks, finish at most the iteration each is on, and the pool is
// drained before the function returns — prompt, leak-free teardown.
func (c *Crawler) streamParallel(ctx context.Context, p *crawlPlan, yield func(*Iteration, error) bool) {
	type done struct {
		seq int
		it  *Iteration
	}
	pctx, cancel := context.WithCancel(ctx)
	defer cancel()
	completed := make(chan done, len(p.counts))
	wait := c.startChains(pctx, p, func(_, _, seq int, it *Iteration) {
		select {
		case completed <- done{seq, it}:
		case <-pctx.Done():
		}
	})
	stop := func() {
		cancel()
		wait()
	}

	// Emit in dataset order on the consumer's goroutine, reordering
	// out-of-order completions.
	pending := make(map[int]*Iteration)
	next := 0
	for next < p.total {
		select {
		case <-ctx.Done():
			stop()
			yield(nil, ctx.Err())
			return
		case d := <-completed:
			pending[d.seq] = d.it
			for {
				it, ok := pending[next]
				if !ok {
					break
				}
				// Re-check between yields: once the consumer cancels, no
				// further iterations are emitted — not even buffered ones
				// — so a run canceled after n yields delivered exactly
				// the first n.
				if err := ctx.Err(); err != nil {
					stop()
					yield(nil, err)
					return
				}
				delete(pending, next)
				next++
				if !yield(it, nil) {
					stop()
					return
				}
			}
		}
	}
	wait()
}

// startChains launches the crawler's one worker pool over p and returns
// a wait function that blocks until every worker has exited and reports
// whether every chain ran to its end. The pool holds one task per
// (engine, iteration), with engine e's iteration i+1 enqueued only after
// visit has returned for iteration i (the channel send/receive pair
// gives the i→i+1 happens-before the per-engine visited map, breaker and
// any per-chain visit state need). At most one task per engine is ever
// outstanding, so the task channel never blocks and
// min(GOMAXPROCS, engines) workers saturate the available overlap.
// visit receives the index of the worker calling it; each worker runs
// its tasks one at a time. The queue is FIFO and a chain's next task
// goes to its back, so the chains advance in lockstep and finish
// together. Once ctx is done, workers pick up no further task and exit.
func (c *Crawler) startChains(ctx context.Context, p *crawlPlan, visit func(worker, chain, seq int, it *Iteration)) (wait func() bool) {
	// enq timestamps the task's enqueue when telemetry is on (zero
	// otherwise), so workers can report queue wait vs work time.
	type task struct {
		idx, iter int
		enq       time.Time
	}
	tele := c.cfg.Telemetry
	stamp := func() time.Time {
		if tele == nil {
			return time.Time{}
		}
		return time.Now() //lint:allow detclock enqueue stamp for queue-wait telemetry, zero when telemetry is off
	}

	workers := runtime.GOMAXPROCS(0)
	if workers > len(p.counts) {
		workers = len(p.counts)
	}
	if workers < 1 {
		workers = 1
	}
	tasks := make(chan task, len(p.counts))
	var chains atomic.Int32 // engine chains still running
	var wg sync.WaitGroup
	for idx, n := range p.counts {
		if n > p.start[idx] {
			chains.Add(1)
			tasks <- task{idx, p.start[idx], stamp()}
		}
	}
	if chains.Load() == 0 {
		close(tasks)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-ctx.Done():
					return
				case t, ok := <-tasks:
					if !ok || ctx.Err() != nil {
						return
					}
					if tele != nil && !t.enq.IsZero() {
						tele.ObserveWall(telemetry.StageQueueWait, time.Since(t.enq)) //lint:allow detclock queue-wait telemetry on the wall clock, never outputs
					}
					visit(w, t.idx, p.base[t.idx]+t.iter-p.start[t.idx], c.runOne(p, t.idx, t.iter))
					if t.iter+1 < p.counts[t.idx] {
						// Never blocks: this chain's slot is free.
						tasks <- task{t.idx, t.iter + 1, stamp()}
					} else if chains.Add(-1) == 0 {
						close(tasks)
					}
				}
			}
		}()
	}
	return func() bool {
		wg.Wait()
		return chains.Load() == 0
	}
}

// revisitBase anchors the next-day revisit's resolution of the settled
// destination URL.
var revisitBase = urlx.MustParse("https://x.example/")

// runIteration performs iteration index of chain idx in the chain's
// browser, Reset to the fresh-profile state New builds ("We run each
// iteration in a new browser instance", §3.1). Under p.lend the
// iteration is built in the chain's lentRecords, rewound for it.
func (c *Crawler) runIteration(p *crawlPlan, idx, index int) *Iteration {
	w := c.cfg.World
	engine := p.engines[idx]
	name := engine.Spec.Name
	query := w.Queries[p.names[idx]][index]
	visited := p.visited[idx]
	cs := p.chains[idx]
	if cs == nil {
		cs = &chainState{}
		if p.lend {
			cs.lent = &lentRecords{}
		}
	}
	// The chain's next iteration reuses its storage; its last drops it.
	p.chains[idx] = nil
	if index+1 < p.counts[idx] {
		p.chains[idx] = cs
	}
	rec := cs.lent
	it := rec.iteration()
	*it = Iteration{
		Engine:     name,
		EngineHost: engine.Spec.Host,
		Index:      index,
		Instance:   instanceLabel(name, index),
		Query:      query,
		ClickedAd:  -1,
	}
	fp := browser.StealthFingerprint()
	if c.cfg.NoStealth {
		fp = browser.DefaultHeadlessFingerprint()
	}
	opts := browser.Options{
		StorageMode:     c.cfg.StorageMode,
		CaptureProb:     c.cfg.CaptureProb,
		Fingerprint:     fp,
		Seed:            w.Seed.Derive("browser", it.Instance),
		Retry:           c.cfg.Retry,
		Countermeasures: c.cfg.Countermeasures.Countermeasures,
		Telemetry:       c.cfg.Telemetry,
		// The instance label keys every origin server's identifier
		// stream for this iteration's requests.
		Client: it.Instance,
	}
	b := cs.browser
	if b == nil {
		b = browser.New(w.Net, opts)
		cs.browser = b
	} else {
		b.Reset(w.Net, opts)
	}
	// Stamp the outcome accounting on every exit path once the
	// iteration's fate is known.
	defer func() {
		it.Rotations = b.Rotations()
		it.CaptchaSolves = b.CaptchaSolves()
		it.Outcome = deriveOutcome(it)
	}()
	if tele := c.cfg.Telemetry; tele != nil {
		// The browser's private clock delta is the iteration's virtual
		// duration — a pure function of (seed, config), so sequential and
		// Parallel crawls of the same study observe identical values.
		vstart := b.Clock().Now()
		defer func() {
			tele.ObserveVirtual(telemetry.StageIteration, b.Clock().Now().Sub(vstart))
		}()
	}

	// Stage 1 — before the click: main page, then the results page.
	if _, err := b.Navigate(p.homes[idx]); err != nil {
		it.Error = fmt.Sprintf("home: %v", err)
		it.ErrorClass = string(ClassifyError(err))
		return it
	}
	if _, err := b.Navigate(engine.SearchURL(query)); err != nil {
		it.Error = fmt.Sprintf("serp: %v", err)
		it.ErrorClass = string(ClassifyError(err))
		return it
	}
	it.SERPRequests = rec.requests(serpRequests, b.CrawlerRequests())
	it.SERPCookies = rec.cookies(serpCookies, cs.dumpJar(b))

	// Scrape the displayed ads.
	ads := serp.FindAds(name, b.Page())
	it.DisplayedAds = rec.adRecords(len(ads))
	for pos, ad := range ads {
		it.DisplayedAds = append(it.DisplayedAds, AdRecord{
			Href:          ad.Attr("href"),
			LandingDomain: ad.Attr("data-landing"),
			Position:      pos + 1,
		})
	}
	if len(ads) == 0 {
		it.Error = "no ads displayed"
		it.ErrorClass = string(ClassNoAds)
		it.CrawlerRequestCount = len(b.CrawlerRequests())
		it.ExtensionRequestCount = len(b.ExtensionRequests())
		return it
	}

	// Stage 2 — the click. "Our system prioritizes ads with landing
	// domains it has not visited yet, aiming to maximize the number of
	// different destination websites" (§3.1).
	choice := chooseAd(it.DisplayedAds, visited)
	it.ClickedAd = choice
	visited[it.DisplayedAds[choice].LandingDomain] = true
	clickStart := len(b.CrawlerRequests())
	res, err := b.Click(ads[choice])
	if err != nil {
		it.Error = fmt.Sprintf("click: %v", err)
		it.ErrorClass = string(ClassifyError(err))
		if res != nil {
			// Keep the partial chain: the hop records carry the fault
			// class and retry count, attributing exactly where and how
			// the navigation was lost.
			it.Hops = rec.hopRecords(res.Hops)
		}
		it.CrawlerRequestCount = len(b.CrawlerRequests())
		it.ExtensionRequestCount = len(b.ExtensionRequests())
		return it
	}
	it.Hops = rec.hopRecords(res.Hops)
	it.FinalURL = res.FinalURL.String()
	it.FinalReferrer = b.DocumentReferrer()

	// Stage 3 — after the click: 15 seconds on the destination. The
	// click navigation interleaves chain hops, beacons, and the
	// destination page's own subresource traffic; requests made on
	// behalf of the destination site belong to the "after" stage.
	b.Dwell()
	destSite := urlx.RegistrableDomain(res.FinalURL.Host)
	cs.click, cs.dest = splitClickRequests(cs.click[:0], cs.dest[:0], b.CrawlerRequests()[clickStart:], destSite)
	it.ClickRequests = rec.requests(clickRequests, cs.click)
	it.DestRequests = rec.requests(destRequests, cs.dest)
	it.Cookies = rec.cookies(dwellCookies, cs.dumpJar(b))
	it.LocalStorage = rec.localStorage(dwellStorage, b.LocalStorage())
	it.CrawlerRequestCount = len(b.CrawlerRequests())
	it.ExtensionRequestCount = len(b.ExtensionRequests())

	// Next-day revisit on the same profile (§3.2 filter iii): values
	// that changed are session identifiers, values that persisted are
	// user-identifier candidates. The jump happens on the browser's own
	// clock, so it neither perturbs other profiles nor needs the old
	// shared-clock rewind hack to keep long crawls in the study window.
	if !c.cfg.SkipRevisit {
		b.Clock().Advance(24 * time.Hour)
		b.Navigate(engine.SearchURL(query))
		if it.FinalURL != "" {
			if u, err := urlx.Resolve(revisitBase, it.FinalURL); err == nil {
				b.Navigate(u.String())
			}
		}
		it.RevisitCookies = rec.cookies(revisitCookies, cs.dumpJar(b))
		it.RevisitLocalStorage = rec.localStorage(revisitStorage, b.LocalStorage())
	}
	return it
}

// annotateTrackers counts filter-list matches per crawl stage when the
// crawl was configured with a filter engine. Each stage is matched as
// one MatchBatch call, amortizing per-request setup.
func (c *Crawler) annotateTrackers(it *Iteration) {
	f := c.cfg.Filter
	if f == nil {
		return
	}
	it.SERPTrackerCount = countBlocked(f.MatchBatch(RequestInfos(it.SERPRequests)))
	it.ClickTrackerCount = countBlocked(f.MatchBatch(RequestInfos(it.ClickRequests)))
	it.DestTrackerCount = countBlocked(f.MatchBatch(RequestInfos(it.DestRequests)))
}

func countBlocked(vs []filterlist.Verdict) int {
	n := 0
	for _, v := range vs {
		if v.Blocked {
			n++
		}
	}
	return n
}

// splitClickRequests separates click-stage traffic (chain hops and
// engine beacons, §4.2) from destination-stage traffic (the landing
// page's subresources and tracker calls, §4.3), appending each request
// to click or dest.
func splitClickRequests(click, dest, reqs []*netsim.Request, destSite string) ([]*netsim.Request, []*netsim.Request) {
	for _, r := range reqs {
		switch {
		case r.Type == netsim.TypeDocument, r.Initiator == "click":
			click = append(click, r)
		case destSite != "" && r.FirstParty == destSite:
			dest = append(dest, r)
		default:
			click = append(click, r)
		}
	}
	return click, dest
}

// chooseAd returns the index of the first ad whose landing domain has
// not been visited, falling back to the first ad.
func chooseAd(ads []AdRecord, visited map[string]bool) int {
	for i, ad := range ads {
		if !visited[ad.LandingDomain] {
			return i
		}
	}
	return 0
}
