package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"searchads"
	"searchads/internal/analysis"
	"searchads/internal/crawler"
	"searchads/internal/netsim"
	"searchads/internal/storage"
	"searchads/internal/telemetry"
	"searchads/internal/tokens"
	"searchads/internal/urlx"
	"searchads/internal/websim"
)

// layers sums the traced ops of one run by module. Nothing here is
// measured inside the library: the harness times its own calls into
// public functions, wraps the origin handlers a world exposes, and reads
// the telemetry registry the library already keeps. Stage totals are
// count × mean, exact sums rather than percentiles, so a module's
// exclusive time is its stage total minus the stages nested inside it.
type layers struct {
	wall  time.Duration // traced op wall
	iters int64

	builds int64
	build  time.Duration
	origin originTimer

	roundTrips, faults int64
	roundTrip          time.Duration
	navs, retries      int64
	navigate           time.Duration
	iterations, errs   int64 // iterations counted by telemetry, and those that errored
	iterTimed          int64 // iterations timed (shed ones are not)
	iteration          time.Duration
	queued             int64
	queueWait          time.Duration
	fold, merge        time.Duration
	reports            int64
	report             time.Duration // in the op
	ckptWrites         int64
	ckptBytes          int64
	ckpt               time.Duration
	saveOp, loadOp     time.Duration
	cells              int64
	cell               time.Duration
	poolWidth          int // workers the op's pool runs (0: no pool)

	// Replays over the op's own data, outside its wall.
	reportReplay           time.Duration
	saveReplay, loadReplay time.Duration
	reqs, jarOps, obs      int64
	match, jar, classify   time.Duration
}

// Origin modules, the packages whose handlers serve the simulated web.
const (
	originSERP = iota
	originAdtech
	originAdvertiser
	numOrigins
)

var originModules = [numOrigins]string{"serp", "adtech", "advertiser"}

// originTimer counts and times every origin handler call.
type originTimer struct {
	calls [numOrigins]atomic.Int64
	nanos [numOrigins]atomic.Int64
}

func (t *originTimer) wrap(o int, h netsim.Handler) netsim.Handler {
	return netsim.HandlerFunc(func(req *netsim.Request) *netsim.Response {
		start := time.Now()
		resp := h.Serve(req)
		t.nanos[o].Add(int64(time.Since(start)))
		t.calls[o].Add(1)
		return resp
	})
}

func (t *originTimer) serve(o int) time.Duration { return time.Duration(t.nanos[o].Load()) }

// instrument re-registers every origin handler on the world's network
// behind a timing wrapper. Exact hosts come from Net.Hosts; site-wide
// registrations are the engines' domains, the wildcard redirectors and
// the advertiser sites. Where two registrations share a key the later
// one won when the world was built (redirectors, then trackers and
// sites, then engines), and ownership follows the same order.
func (t *originTimer) instrument(w *websim.World) error {
	net := w.Net
	hosts := net.Hosts()
	exact := make(map[string]bool, len(hosts))
	for _, h := range hosts {
		exact[h] = true
	}
	engineHosts := map[string]bool{}
	sites := map[string]int{}
	policies := w.Redirectors.Policies()
	for host, p := range policies {
		if p.Wildcard {
			sites[strings.ToLower(host)] = originAdtech
		}
	}
	for _, list := range w.SitesByEngine {
		for _, s := range list {
			sites[strings.ToLower(s.Domain)] = originAdvertiser
		}
	}
	for _, e := range w.Engines {
		sites[urlx.RegistrableDomain(e.Spec.Host)] = originSERP
		for _, h := range e.Spec.ExtraHosts {
			engineHosts[strings.ToLower(h)] = true
		}
	}

	for _, h := range hosts {
		var o int
		if engineHosts[h] {
			o = originSERP
		} else if _, ok := w.Trackers.Lookup(h); ok {
			o = originAdvertiser
		} else if p := policies[h]; p != nil && !p.Wildcard {
			o = originAdtech
		} else {
			return fmt.Errorf("trace: host %s belongs to no known origin", h)
		}
		handler, _ := net.Lookup(h)
		net.Handle(h, t.wrap(o, handler))
	}

	domains := make([]string, 0, len(sites))
	for d := range sites {
		domains = append(domains, d)
	}
	sort.Strings(domains)
	for _, d := range domains {
		// An exact registration shadows its own site name; a
		// subdomain resolves through the site table alone.
		probe := d
		if exact[d] {
			probe = "bench-probe." + d
		}
		handler, ok := net.Lookup(probe)
		if !ok || urlx.RegistrableDomain(probe) != d {
			return fmt.Errorf("trace: no site handler for %s", d)
		}
		net.HandleSite(d, t.wrap(sites[d], handler))
	}
	return nil
}

// readTelemetry adds one registry's stage totals and counters.
func (l *layers) readTelemetry(snap searchads.TelemetrySnapshot) {
	total := func(s telemetry.Stage) (int64, time.Duration) {
		st, _ := snap.StageByName(s.String())
		return int64(st.Wall.Count), time.Duration(st.Wall.Count) * st.Wall.Mean
	}
	counter := func(c telemetry.Counter) int64 { return int64(snap.Counter(c.String())) }
	add := func(n *int64, d *time.Duration, s telemetry.Stage) {
		dn, dd := total(s)
		if n != nil {
			*n += dn
		}
		*d += dd
	}
	add(&l.roundTrips, &l.roundTrip, telemetry.StageRoundTrip)
	add(&l.navs, &l.navigate, telemetry.StageNavigate)
	add(&l.iterTimed, &l.iteration, telemetry.StageIteration)
	add(&l.queued, &l.queueWait, telemetry.StageQueueWait)
	add(nil, &l.ckpt, telemetry.StageCheckpointWrite)
	add(&l.cells, &l.cell, telemetry.StageSweepCell)
	l.faults += counter(telemetry.CounterFaults)
	l.retries += counter(telemetry.CounterRetries)
	l.iterations += counter(telemetry.CounterIterations)
	l.errs += counter(telemetry.CounterIterationErrors)
	l.ckptWrites += counter(telemetry.CounterCheckpointWrites)
	l.ckptBytes += counter(telemetry.CounterCheckpointBytes)
}

// traceStudy is study-seq's or study-par's op with every layer timed:
// the world build around NewStudy, the origin handlers, the telemetry
// stages, and the fold the harness drives itself exactly as
// Study.AnalyzeWith does (the accumulator for a sequential study, the
// stream sharder for a Parallel one).
func traceStudy(ctx context.Context, in *input, cfg searchads.Config, l *layers) (any, time.Duration, error) {
	st, tele, build, err := l.newStudy(cfg)
	if err != nil {
		return nil, 0, err
	}
	var its []*searchads.Iteration
	var rep *searchads.Report
	var fold, merge, report time.Duration
	start := time.Now()
	if cfg.Parallel {
		sh := analysis.NewStreamSharder(in.opts, runtime.GOMAXPROCS(0), nil)
		for it, err := range st.Iterations(ctx) {
			if err != nil {
				sh.Abort()
				return nil, 0, err
			}
			its = append(its, it)
			t := time.Now()
			sh.Add(it)
			fold += time.Since(t)
		}
		t := time.Now()
		if rep, err = sh.Finish(); err != nil {
			return nil, 0, err
		}
		merge = time.Since(t)
	} else {
		acc := analysis.NewAccumulator(in.opts)
		for it, err := range st.Iterations(ctx) {
			if err != nil {
				return nil, 0, err
			}
			its = append(its, it)
			t := time.Now()
			acc.Add(it)
			fold += time.Since(t)
		}
		t := time.Now()
		rep = acc.Report()
		report = time.Since(t)
		l.reports++
	}
	wall := build + time.Since(start)

	if cfg.Parallel {
		l.poolWidth = runtime.GOMAXPROCS(0)
	}
	l.fold += fold
	l.merge += merge
	l.report += report
	return rep, wall, l.endStudy(in, st, tele, its, cfg.Storage, cfg.Parallel, true)
}

// newStudy builds a traced op's study with telemetry attached, timing
// the world build, and instruments its world.
func (l *layers) newStudy(cfg searchads.Config) (*searchads.Study, *searchads.Telemetry, time.Duration, error) {
	tele := searchads.NewTelemetry()
	cfg.Telemetry = tele
	start := time.Now()
	st := searchads.NewStudy(cfg)
	build := time.Since(start)
	if err := l.origin.instrument(st.World()); err != nil {
		return nil, nil, 0, err
	}
	st.World().Net.RecordWire(true)
	l.build += build
	l.builds++
	return st, tele, build, nil
}

// endStudy adds a traced study's telemetry and replays its data.
func (l *layers) endStudy(in *input, st *searchads.Study, tele *searchads.Telemetry, its []*searchads.Iteration, mode storage.Mode, report, saveLoad bool) error {
	l.iters += int64(len(its))
	l.readTelemetry(tele.Snapshot())
	net := st.World().Net
	wire := net.Wire()
	net.RecordWire(false)
	return l.replay(in, its, wire, mode, report, saveLoad)
}

// traceHostile is hostile-batch's op with every layer timed. The
// sharded analysis runs as one call, so its fold, merge and report count
// as fold.
func traceHostile(ctx context.Context, in *input, cfg searchads.Config, l *layers) (any, time.Duration, error) {
	cfg.Checkpoint = filepath.Join(in.dir, "hostile-trace.ckpt")
	st, tele, build, err := l.newStudy(cfg)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	ds, err := st.Crawl(ctx)
	if err != nil {
		return nil, 0, err
	}
	path := filepath.Join(in.dir, "hostile-trace.json")
	t := time.Now()
	if err := ds.Save(path); err != nil {
		return nil, 0, err
	}
	save := time.Since(t)
	t = time.Now()
	loaded, err := searchads.LoadDataset(path)
	if err != nil {
		return nil, 0, err
	}
	load := time.Since(t)
	t = time.Now()
	rep, err := analysis.AnalyzeSharded(ctx, loaded, in.opts, runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, 0, err
	}
	fold := time.Since(t)
	wall := build + time.Since(start)

	l.saveOp += save
	l.loadOp += load
	l.fold += fold
	return rep, wall, l.endStudy(in, st, tele, ds.Iterations, cfg.Storage, true, false)
}

// traceSweep is sweep-grid's op with the sweep's own telemetry attached.
// The sweep builds its worlds inside its cells, out of the harness's
// reach, so world build and origin handlers are replayed: every cell's
// world is built again and crawled on a network the harness owns. The
// crawl is deterministic, so the replay sends the op's exact requests.
func traceSweep(ctx context.Context, in *input, m searchads.SweepMatrix, l *layers) (any, time.Duration, error) {
	tele := searchads.NewTelemetry()
	opts := in.sweepOptions()
	opts.Telemetry = tele
	start := time.Now()
	res, err := searchads.Sweep(ctx, m, opts)
	if err != nil {
		return nil, 0, err
	}
	wall := time.Since(start)
	l.iters += int64(sweepIterations(res))
	l.poolWidth = res.Parallelism
	snap := tele.Snapshot()
	l.readTelemetry(snap)
	fold, _ := snap.StageByName(telemetry.StageAnalysisFold.String())
	l.fold += time.Duration(fold.Wall.Count) * fold.Wall.Mean

	for _, c := range m.Expand() {
		t := time.Now()
		w := websim.NewWorld(websim.Config{Seed: c.Seed, Engines: c.Engines, QueriesPerEngine: c.QueriesPerEngine})
		l.build += time.Since(t)
		l.builds++
		if err := l.origin.instrument(w); err != nil {
			return nil, 0, err
		}
		w.Net.RecordWire(true)
		ccfg := crawler.Config{World: w, Engines: c.Engines, Iterations: c.Iterations,
			StorageMode: c.Storage, NoStealth: c.NoStealth, SkipRevisit: c.SkipRevisit}
		if c.FilterAnnotate {
			ccfg.Filter = in.opts.Filter
		}
		ds, err := crawler.New(ccfg).Run(ctx)
		if err != nil {
			return nil, 0, err
		}
		if err := l.replay(in, ds.Iterations, w.Net.Wire(), c.Storage, true, true); err != nil {
			return nil, 0, err
		}
	}
	return res, wall, nil
}

// replay times the layers an op reaches only indirectly, in isolation,
// over the op's own iterations and wire log: filter matching of every
// recorded request (MatchBatch), the cookie jar (the wire log's request
// cookies and Set-Cookies replayed per browser profile), token
// classification, and — where the op does not run them itself — the
// report and the dataset save/load.
func (l *layers) replay(in *input, its []*crawler.Iteration, wire []netsim.WireEvent, mode storage.Mode, report, saveLoad bool) error {
	var reqs []searchads.FilterRequest
	for _, it := range its {
		for _, stage := range [][]crawler.RequestRecord{it.SERPRequests, it.ClickRequests, it.DestRequests} {
			reqs = append(reqs, crawler.RequestInfos(stage)...)
		}
	}
	t := time.Now()
	in.opts.Filter.MatchBatch(reqs)
	l.match += time.Since(t)
	l.reqs += int64(len(reqs))

	jars := map[string]*storage.Jar{}
	t = time.Now()
	for _, ev := range wire {
		req := ev.Request
		j := jars[req.Client]
		if j == nil {
			j = storage.NewJar(mode)
			jars[req.Client] = j
		}
		j.Cookies(req.Time, req.URL, req.FirstParty, req.Type == netsim.TypeDocument)
		l.jarOps++
		if len(ev.Response.SetCookies) > 0 {
			j.SetCookies(req.Time, req.URL, req.FirstParty, ev.Response.SetCookies)
			l.jarOps++
		}
	}
	l.jar += time.Since(t)

	ds := &crawler.Dataset{Iterations: its}
	obs := analysis.Observations(ds)
	t = time.Now()
	tokens.Classify(obs)
	l.classify += time.Since(t)
	l.obs += int64(len(obs))

	if report {
		acc := analysis.NewAccumulator(in.opts)
		for _, it := range its {
			acc.Add(it)
		}
		t = time.Now()
		acc.Report()
		l.reportReplay += time.Since(t)
		l.reports++
	}
	if saveLoad {
		path := filepath.Join(in.dir, "replay.json")
		t = time.Now()
		if err := ds.Save(path); err != nil {
			return err
		}
		l.saveReplay += time.Since(t)
		t = time.Now()
		if _, err := crawler.Load(path); err != nil {
			return err
		}
		l.loadReplay += time.Since(t)
		if err := os.Remove(path); err != nil {
			return fmt.Errorf("replay: %w", err)
		}
	}
	return nil
}

// share is one module's exclusive time in the traced ops.
type share struct {
	module string
	self   time.Duration
}

// ladder splits the traced op wall into exclusive time per module. Each
// nested stage gives up what its children took: a round trip its origin
// handlers, a navigation its round trips, an iteration its navigations,
// a sweep cell its world build, iterations and fold. Beacons fired by a
// click are round trips outside any navigation, so the browser's self
// time is navigation time net of every round trip.
func (l *layers) ladder() []share {
	var serve time.Duration
	for o := range numOrigins {
		serve += l.origin.serve(o)
	}
	var sweepSelf time.Duration
	if l.cells > 0 {
		sweepSelf = l.cell - l.build - l.iteration - l.fold
	}
	return []share{
		{"websim", l.build},
		{"serp", l.origin.serve(originSERP)},
		{"adtech", l.origin.serve(originAdtech)},
		{"advertiser", l.origin.serve(originAdvertiser)},
		{"netsim", l.roundTrip - serve},
		{"browser", l.navigate - l.roundTrip},
		{"crawler", l.iteration - l.navigate + l.saveOp + l.loadOp},
		{"analysis", l.fold + l.merge + l.report},
		{"checkpoint", l.ckpt},
		{"sweep", sweepSelf},
	}
}

// fill computes the per-layer metrics of ops traced ops.
func (l *layers) fill(res *result, ops int, overhead float64) {
	per := func(d time.Duration, n int64, unit time.Duration) float64 {
		if n == 0 {
			return 0
		}
		return float64(d) / float64(unit) / float64(n)
	}
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	n := int64(ops)
	set := func(name string, v float64) { res.set(perLayer, name, v) }

	set("websim.build_ms", per(l.build, l.builds, time.Millisecond))
	var serve time.Duration
	for o := range numOrigins {
		calls := l.origin.calls[o].Load()
		set(originModules[o]+".serve_us", per(l.origin.serve(o), calls, time.Microsecond))
		set(originModules[o]+".calls_per_iter", ratio(calls, l.iters))
		serve += l.origin.serve(o)
	}
	set("netsim.roundtrip_self_us", per(l.roundTrip-serve, l.roundTrips, time.Microsecond))
	set("netsim.roundtrips_per_iter", ratio(l.roundTrips, l.iters))
	set("netsim.faults_per_kreq", 1000*ratio(l.faults, l.roundTrips))
	set("browser.nav_self_us", per(l.navigate-l.roundTrip, l.navs, time.Microsecond))
	set("browser.navs_per_iter", ratio(l.navs, l.iters))
	set("browser.retries_per_nav", ratio(l.retries, l.navs))
	set("crawler.iter_self_us", per(l.iteration-l.navigate, l.iterTimed, time.Microsecond))
	set("crawler.useful_frac", 1-ratio(l.errs, l.iterations))
	set("crawler.queue_wait_frac", ratio(int64(l.queueWait), int64(l.queueWait+l.iteration)))
	set("crawler.save_ms", per(l.saveOp+l.saveReplay, n, time.Millisecond))
	set("crawler.load_ms", per(l.loadOp+l.loadReplay, n, time.Millisecond))
	set("analysis.fold_us_per_iter", per(l.fold, l.iters, time.Microsecond))
	set("analysis.report_ms", per(l.report+l.reportReplay, l.reports, time.Millisecond))
	set("checkpoint.writes_per_op", ratio(l.ckptWrites, n))
	set("checkpoint.kb_per_write", ratio(l.ckptBytes, l.ckptWrites)/1000)
	if l.cells > 0 && l.poolWidth > 0 {
		set("sweep.pool_idle_frac", 1-float64(l.cell)/(float64(l.poolWidth)*float64(l.wall)))
	} else {
		set("sweep.pool_idle_frac", 0)
	}
	set("filterlist.match_ns_per_req", per(l.match, l.reqs, time.Nanosecond))
	set("filterlist.reqs_per_iter", ratio(l.reqs, l.iters))
	set("storage.jar_ns_per_op", per(l.jar, l.jarOps, time.Nanosecond))
	set("storage.ops_per_iter", ratio(l.jarOps, l.iters))
	set("tokens.classify_ms", per(l.classify, n, time.Millisecond))
	set("tokens.obs_per_iter", ratio(l.obs, l.iters))

	// Shares are of the op's capacity, its wall times its pool width:
	// on the pool workloads the stage totals add up every worker's time,
	// and what no worker spent in a layer (idle or waiting) is left
	// unaccounted.
	capacity := float64(l.wall) * float64(max(l.poolWidth, 1))
	accounted := 0.0
	for _, s := range l.ladder() {
		f := float64(s.self) / capacity
		set(s.module+".share", f)
		accounted += f
	}
	set("trace.unaccounted_frac", 1-accounted)
	set("trace.overhead_frac", overhead)

	extra := func(name string, v float64) { res.setExtra(name, v) }
	if l.queued > 0 {
		extra("crawler.queue_wait_us", per(l.queueWait, l.queued, time.Microsecond))
	}
	if l.merge > 0 {
		extra("analysis.merge_ms", per(l.merge, n, time.Millisecond))
	}
	if l.ckptWrites > 0 {
		extra("checkpoint.write_ms", per(l.ckpt, l.ckptWrites, time.Millisecond))
	}
	if l.cells > 0 {
		extra("sweep.cell_ms", per(l.cell, l.cells, time.Millisecond))
	}
}

// traceRun is a traced run: after the same set-up and reference pass,
// each round runs every seed's op untraced and then traced, so the two
// op_s_p50 give the tracing overhead under the same conditions.
func traceRun(ctx context.Context, w *workload, c config, log io.Writer) (*result, error) {
	p := planFor(w, c)
	in, refs, _, refS, err := prepare(ctx, w, c, p)
	if err != nil {
		return nil, err
	}
	res := newResult(w, p, refS)
	rounds := max(1, p.rounds/3)
	var l layers
	var untraced, traced []float64
	for r := 0; r < rounds; r++ {
		for i, seed := range in.seeds {
			runtime.GC() // as in an untraced run, every op starts on a collected heap
			s, ok := check(ctx, w, in, seed, refs[i], nil, log)
			untraced = append(untraced, s.wall.Seconds())
			res.Attempted += 2
			if !ok {
				res.Failed++
			}
			runtime.GC()
			out, wall, err := w.traced(ctx, in, seed, &l)
			if !verify(w, seed, out, err, refs[i], log) {
				res.Failed++
				continue
			}
			l.wall += wall
			traced = append(traced, wall.Seconds())
		}
	}
	l.fill(res, len(traced), median(traced)/median(untraced)-1)
	return res, nil
}
