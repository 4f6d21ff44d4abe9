// Package telemetry is the pipeline's run-time metrics layer: a
// zero-dependency, sharded, atomic-counter and fixed-bucket-histogram
// registry every layer of the crawl pipeline reports into — netsim
// round trips, browser navigations and retries, crawler iterations,
// the analysis fold, checkpoint writes, and sweep cell lifecycles.
//
// # Cost model
//
// Telemetry is opt-in and free when off. A nil *Registry is the off
// state: every method nil-checks and returns, so an uninstrumented run
// pays exactly one nil (or, on the netsim hot path, one atomic
// pointer) check per potential observation — the root package's
// BenchmarkDisarmed holds a crawl with telemetry and the other optional
// layers off to within 3% median wall time and 0.1% allocations of the
// plain crawl. When on, observations are lock-free: the registry is
// striped into cache-line-separated shards (histogram bucket counters
// and scalar counters alike), and each goroutine is dealt a stable
// shard through a sync.Pool hint — the pool's per-P fast path hands
// the same shard back to the same processor, so parallel crawl workers
// bump disjoint cache lines.
// Only the rare labeled counters (per-engine, per-fault-class — at
// most one bump per iteration or per injected fault) take a mutex.
// Snapshot folds the shards.
//
// # Wall and virtual clocks
//
// Stages record on two clocks. Wall durations measure real compute
// time and answer "where does the run spend its time" — they vary with
// hardware and scheduling. Virtual durations measure simulated time
// (the browser clocks' advances: per-exchange latency, retry backoff,
// timeout budgets, dwell) and are a pure function of (seed, config):
// the virtual histograms of a sequential and a Parallel crawl of the
// same study are identical, which the determinism tests pin.
//
// # Event traces
//
// SetSink attaches a JSONL run-event trace: one JSON object per line
// per event (iteration finished, navigation retried, fault injected,
// checkpoint written, sweep cell done), written as the run progresses
// so a live consumer can tail it. Write errors latch: the first error
// is kept (SinkErr), later events are dropped, and the run itself is
// never failed by its trace — CLIs surface the latched error with a
// distinct exit code instead.
package telemetry

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Stage identifies one instrumented pipeline stage.
type Stage uint8

// Instrumented stages, in report order.
const (
	// StageRoundTrip is one netsim HTTP exchange (request through fault
	// injection and origin handler to response).
	StageRoundTrip Stage = iota
	// StageNavigate is one top-level browser navigation: the full
	// redirect chase, page load, retries and backoff included.
	StageNavigate
	// StageIteration is one full crawl iteration (SERP, click, dwell,
	// revisit), as run by the crawler worker.
	StageIteration
	// StageQueueWait is the time a ready (engine, iteration) task spent
	// queued before a Parallel pool worker picked it up; sequential
	// crawls never record it.
	StageQueueWait
	// StageAnalysisFold is one iteration's incremental §4 analysis fold
	// (Accumulator.Add), as timed by the facade and sweep folds.
	StageAnalysisFold
	// StageAnalysisReport is the tail of one facade Analyze or sweep
	// cell, from the last fold to the finished report: the shards'
	// classifier warm-up and merge on a Parallel study, then Report.
	StageAnalysisReport
	// StageCheckpointWrite is one crash-safe checkpoint write: encoding
	// the iterations crawled since the previous write, CRC, atomic
	// temp-file write, fsync, rename, directory fsync.
	StageCheckpointWrite
	// StageSweepCell is one sweep cell end to end: world build, crawl,
	// fold, aggregation hand-off.
	StageSweepCell

	numStages
)

var stageNames = [numStages]string{
	"netsim_roundtrip",
	"browser_navigate",
	"crawler_iteration",
	"queue_wait",
	"analysis_fold",
	"analysis_report",
	"checkpoint_write",
	"sweep_cell",
}

// String returns the stage's snake_case report name.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return fmt.Sprintf("stage(%d)", int(s))
}

// Stages lists every instrumented stage in report order.
func Stages() []Stage {
	out := make([]Stage, numStages)
	for i := range out {
		out[i] = Stage(i)
	}
	return out
}

// Counter identifies one scalar run counter.
type Counter uint8

// Run counters, in report order.
const (
	// CounterRoundTrips counts netsim exchanges.
	CounterRoundTrips Counter = iota
	// CounterNavigations counts top-level browser navigations.
	CounterNavigations
	// CounterRetries counts navigation retry attempts.
	CounterRetries
	// CounterBackoffWaits counts backoff waits charged to virtual
	// clocks between retries.
	CounterBackoffWaits
	// CounterIterations counts completed crawl iterations.
	CounterIterations
	// CounterIterationErrors counts iterations that recorded an error.
	CounterIterationErrors
	// CounterFaults counts injected faults (all classes).
	CounterFaults
	// CounterCheckpointWrites counts checkpoint snapshot writes.
	CounterCheckpointWrites
	// CounterCheckpointBytes accumulates checkpoint bytes written.
	CounterCheckpointBytes
	// CounterSweepCells counts completed sweep cells.
	CounterSweepCells
	// CounterSweepCellErrors counts failed or canceled sweep cells.
	CounterSweepCellErrors
	// CounterIterationsRecovered counts iterations that succeeded only
	// thanks to a countermeasure (retry, rotation, or solved challenge).
	CounterIterationsRecovered
	// CounterIterationsLost counts iterations the adversary or network
	// took despite every countermeasure.
	CounterIterationsLost
	// CounterIterationsAbandoned counts iterations the crawler gave up
	// on (unsolved challenges, breaker-shed load).
	CounterIterationsAbandoned
	// CounterCaptchaSolves counts CAPTCHA solve attempts.
	CounterCaptchaSolves
	// CounterSessionRotations counts session (client-label) rotations.
	CounterSessionRotations
	// CounterBreakerTrips counts circuit-breaker open transitions.
	CounterBreakerTrips
	// CounterBreakerSheds counts iterations shed by an open breaker.
	CounterBreakerSheds
	// CounterWorldDerivations counts seeded world derivations
	// (websim.Derive): one per study, one per distinct seed in a sweep.
	CounterWorldDerivations
	// CounterWorldInstantiations counts worlds wired from a derivation
	// (websim.Blueprint.Instantiate): one per crawl a study starts, one
	// per sweep cell that runs.
	CounterWorldInstantiations

	numCounters
)

var counterNames = [numCounters]string{
	"roundtrips",
	"navigations",
	"retries",
	"backoff_waits",
	"iterations",
	"iteration_errors",
	"faults",
	"checkpoint_writes",
	"checkpoint_bytes",
	"sweep_cells",
	"sweep_cell_errors",
	"iterations_recovered",
	"iterations_lost",
	"iterations_abandoned",
	"captcha_solves",
	"session_rotations",
	"breaker_trips",
	"breaker_sheds",
	"world_derivations",
	"world_instantiations",
}

// String returns the counter's snake_case report name.
func (c Counter) String() string {
	if int(c) < len(counterNames) {
		return counterNames[c]
	}
	return fmt.Sprintf("counter(%d)", int(c))
}

// numShards is how many cache-line-separated copies of the metric
// state the registry stripes observations across. The parallel crawl
// pool runs min(GOMAXPROCS, engines) workers — 8 covers the worlds the
// pipeline actually crawls without inflating Snapshot's fold cost.
const numShards = 8

// shard is one stripe of the registry's metric state. Shards are
// padded so two shards never share a cache line; within a shard, a
// single goroutine is the overwhelmingly common writer.
type shard struct {
	wall     [numStages]histogram
	virtual  [numStages]histogram
	counters [numCounters]atomic.Uint64
	_        [64]byte
}

// Registry is the metrics store one run reports into. The zero value
// is not usable; construct with New. A nil *Registry is valid and
// means "telemetry off": every method is a no-op.
//
// All methods are safe for concurrent use.
type Registry struct {
	start  time.Time
	shards [numShards]shard

	// hints deals goroutines onto shards: each Get hits the per-P fast
	// path almost always, handing a processor back the hint it last
	// used — which is what makes the striping stick without goroutine
	// identity or unsafe tricks.
	hints   sync.Pool
	nextTag atomic.Uint32

	// labeled counters: low-frequency (at most one bump per iteration
	// or per injected fault), so a mutex-guarded map is fine.
	mu       sync.Mutex
	engines  map[string]*engineCounts
	faults   map[string]uint64
	errClass map[string]uint64

	sink atomic.Pointer[eventSink]
}

// engineCounts is one engine's per-run tally.
type engineCounts struct {
	iterations uint64
	errors     uint64
}

// New returns an empty registry; its iterations/sec window starts now.
func New() *Registry {
	r := &Registry{
		start:    time.Now(),
		engines:  make(map[string]*engineCounts),
		faults:   make(map[string]uint64),
		errClass: make(map[string]uint64),
	}
	r.hints.New = func() any {
		tag := int(r.nextTag.Add(1)-1) % numShards
		return &tag
	}
	return r
}

// Enabled reports whether observations will be recorded (r non-nil).
func (r *Registry) Enabled() bool { return r != nil }

// shardFor picks this goroutine's stripe.
func (r *Registry) shardFor() *shard {
	hint := r.hints.Get().(*int)
	s := &r.shards[*hint]
	r.hints.Put(hint)
	return s
}

// ObserveWall records a wall-clock duration for the stage.
func (r *Registry) ObserveWall(s Stage, d time.Duration) {
	if r == nil || s >= numStages {
		return
	}
	r.shardFor().wall[s].observe(d)
}

// ObserveVirtual records a virtual-clock duration for the stage.
// Virtual durations are deterministic in (seed, config), so the
// virtual histograms of equal studies are identical however the crawl
// was scheduled.
func (r *Registry) ObserveVirtual(s Stage, d time.Duration) {
	if r == nil || s >= numStages {
		return
	}
	r.shardFor().virtual[s].observe(d)
}

// Add bumps a scalar counter by n.
func (r *Registry) Add(c Counter, n uint64) {
	if r == nil || c >= numCounters {
		return
	}
	r.shardFor().counters[c].Add(n)
}

// Inc bumps a scalar counter by one.
func (r *Registry) Inc(c Counter) { r.Add(c, 1) }

// counterTotal folds a counter across shards.
func (r *Registry) counterTotal(c Counter) uint64 {
	var total uint64
	for i := range r.shards {
		total += r.shards[i].counters[c].Load()
	}
	return total
}

// mergedWall folds a stage's wall histogram across shards.
func (r *Registry) mergedWall(s Stage) histogramData {
	var out histogramData
	for i := range r.shards {
		out.merge(r.shards[i].wall[s].snapshot())
	}
	return out
}

// mergedVirtual folds a stage's virtual histogram across shards.
func (r *Registry) mergedVirtual(s Stage) histogramData {
	var out histogramData
	for i := range r.shards {
		out.merge(r.shards[i].virtual[s].snapshot())
	}
	return out
}

// IncEngine tallies one completed iteration for the engine (errored
// reports whether the iteration recorded an error).
func (r *Registry) IncEngine(engine string, errored bool) {
	if r == nil {
		return
	}
	r.mu.Lock()
	ec := r.engines[engine]
	if ec == nil {
		ec = &engineCounts{}
		r.engines[engine] = ec
	}
	ec.iterations++
	if errored {
		ec.errors++
	}
	r.mu.Unlock()
}

// IncFault tallies one injected fault of the given class.
func (r *Registry) IncFault(class string) {
	if r == nil {
		return
	}
	r.Inc(CounterFaults)
	r.mu.Lock()
	r.faults[class]++
	r.mu.Unlock()
}

// IncErrorClass tallies one errored iteration by its typed error
// class ("" tallies as "other").
func (r *Registry) IncErrorClass(class string) {
	if r == nil {
		return
	}
	if class == "" {
		class = "other"
	}
	r.mu.Lock()
	r.errClass[class]++
	r.mu.Unlock()
}

// Elapsed returns the wall time since the registry was constructed —
// the iterations/sec denominator.
func (r *Registry) Elapsed() time.Duration {
	if r == nil {
		return 0
	}
	return time.Since(r.start)
}
