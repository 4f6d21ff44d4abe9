// Command loadtest drives the library under sustained load and reports
// where the time goes: per-stage latency percentiles (p50/p90/p95/p99/
// max, wall and virtual clock), run counters, per-engine throughput,
// and a second-by-second throughput curve — the observability harness
// of ROADMAP item 5, built on Config.Telemetry.
//
// It runs whole studies (crawl + incremental §4 analysis) against a
// named preset, -concurrency at a time, each on its own seed, until
// -runs studies complete or -duration elapses. Every layer reports
// into one telemetry registry; the final snapshot is the report.
//
// Usage:
//
//	loadtest -preset baseline -concurrency 4 -runs 8
//	loadtest -preset chaos -duration 30s
//	loadtest -preset arms-race -runs 4
//	loadtest -preset checkpoint -runs 4 -events trace.jsonl
//	loadtest -quick          # small fixed workload (the CI shape)
//
// The human-readable report goes to stderr; the machine-readable JSON
// result is written to the file -out names (none by default, so a run
// leaves the tree as it found it; '-' writes it to stdout). With
// -events, a JSONL run-event trace (iteration start/finish, retry,
// fault, checkpoint, cell done) streams to the given file while the
// run is live.
//
// Exit status: 0 on success, 1 if any study failed, 2 on a usage
// error, 3 if the run succeeded but the -events trace could not be
// written or flushed — distinct, so callers never mistake a lost
// trace for a lost run (and vice versa). Ctrl-C cancels in-flight
// studies and exits 130.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"searchads"
)

var (
	preset      = flag.String("preset", "baseline", "workload preset: baseline, parallel, chaos, arms-race, checkpoint")
	concurrency = flag.Int("concurrency", 0, "studies in flight at once (0 = GOMAXPROCS, capped at 4)")
	runs        = flag.Int("runs", 0, "total studies to run (0 = 2×concurrency; ignored with -duration)")
	duration    = flag.Duration("duration", 0, "keep launching studies until this much wall time has passed (0 = use -runs)")
	queries     = flag.Int("queries", 25, "queries per engine per study")
	seedBase    = flag.Int64("seed-base", 1, "first study seed; run i uses seed-base+i")
	events      = flag.String("events", "", "stream a JSONL run-event trace to this file while the run is live")
	out         = flag.String("out", "", "write the JSON result to this file ('' = skip, '-' = stdout)")
	quick       = flag.Bool("quick", false, "small fixed workload: baseline preset, 2 runs, 8 queries (explicit flags still win)")
	markdown    = flag.Bool("markdown", false, "render the report as Markdown instead of plain text")
	quiet       = flag.Bool("quiet", false, "suppress the stderr report")
)

// Exit codes. A sink failure is deliberately distinct from a study
// failure: the study's numbers are good even when the trace is not,
// and vice versa.
const (
	exitOK          = 0
	exitStudyFailed = 1
	exitUsage       = 2
	exitSinkFailed  = 3
)

func main() {
	flag.Parse()
	os.Exit(run())
}

// presetConfig builds one study's Config for a workload preset.
func presetConfig(name string, seed int64, queries int) (searchads.Config, error) {
	cfg := searchads.Config{Seed: seed, QueriesPerEngine: queries}
	switch name {
	case "baseline":
		// Sequential crawl over two engines: the smallest honest
		// end-to-end study, the CI -quick shape.
		cfg.Engines = []string{"google", "bing"}
	case "parallel":
		// All five engines on the worker pool — the throughput shape.
		cfg.Parallel = true
	case "chaos":
		// Bot-hostile faults at 10%: retries, backoff waits, and error
		// classes show up in the telemetry.
		cfg.Engines = []string{"google", "bing", "duckduckgo"}
		cfg.FaultProfile = "bot-hostile"
		cfg.FaultRate = 0.1
	case "arms-race":
		// Strict adversary vs the full countermeasure bundle on top of
		// bot-hostile faults: recovered/lost/abandoned iteration outcomes,
		// session rotations, captcha solves, and breaker trips/sheds all
		// show up in the telemetry counters table.
		cfg.Engines = []string{"google", "bing", "duckduckgo"}
		cfg.FaultProfile = "bot-hostile"
		cfg.FaultRate = 0.05
		cfg.Adversary = "strict"
		cfg.Countermeasures = "full"
	case "checkpoint":
		// Tight checkpoint interval: exercises write/fsync latency.
		cfg.Engines = []string{"google", "bing"}
		cfg.Checkpoint = filepath.Join(os.TempDir(),
			fmt.Sprintf("loadtest-ckpt-%d-%d.sack", os.Getpid(), seed))
		cfg.CheckpointEvery = 5
	default:
		return cfg, fmt.Errorf("unknown preset %q (have: baseline, parallel, chaos, arms-race, checkpoint)", name)
	}
	return cfg, nil
}

// curvePoint is one throughput sample: cumulative iterations at t, and
// the rate over the interval ending at t.
type curvePoint struct {
	T          time.Duration `json:"t_ns"`
	Iterations uint64        `json:"iterations"`
	Rate       float64       `json:"iterations_per_sec"`
}

// benchResult is the BENCH_loadtest.json payload: the workload shape,
// the final telemetry snapshot, and the throughput curve.
type benchResult struct {
	Preset      string                      `json:"preset"`
	Concurrency int                         `json:"concurrency"`
	Runs        int                         `json:"runs"`
	Queries     int                         `json:"queries_per_engine"`
	StudyErrors int                         `json:"study_errors,omitempty"`
	Telemetry   searchads.TelemetrySnapshot `json:"telemetry"`
	Curve       []curvePoint                `json:"curve,omitempty"`
}

func run() int {
	if *quick {
		// -quick pins the CI workload; explicitly passed flags still win.
		set := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
		if !set["preset"] {
			*preset = "baseline"
		}
		if !set["concurrency"] {
			*concurrency = 2
		}
		if !set["runs"] {
			*runs = 2
		}
		if !set["queries"] {
			*queries = 8
		}
	}
	workers := *concurrency
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
		if workers > 4 {
			workers = 4
		}
	}
	total := *runs
	if total <= 0 {
		total = 2 * workers
	}
	if _, err := presetConfig(*preset, 0, 1); err != nil {
		fmt.Fprintln(os.Stderr, "loadtest:", err)
		return exitUsage
	}
	if *queries <= 0 {
		fmt.Fprintln(os.Stderr, "loadtest: -queries must be positive")
		return exitUsage
	}

	tele := searchads.NewTelemetry()
	var eventsFile *os.File
	if *events != "" {
		f, err := os.Create(*events)
		if err != nil {
			fmt.Fprintln(os.Stderr, "loadtest:", err)
			return exitUsage
		}
		eventsFile = f
		tele.SetSink(bufio.NewWriter(f))
	}
	// closeSink flushes and closes the trace; non-zero means the trace
	// is incomplete even though the run itself may be fine.
	closeSink := func() int {
		err := tele.CloseSink()
		if eventsFile != nil {
			if closeErr := eventsFile.Close(); err == nil {
				err = closeErr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "loadtest: event trace:", err)
			return exitSinkFailed
		}
		return exitOK
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// The sampler records the throughput curve while studies run.
	sampleEvery := time.Second
	if *duration > 0 && *duration/10 < sampleEvery {
		sampleEvery = *duration / 10
	}
	if sampleEvery < 100*time.Millisecond {
		sampleEvery = 100 * time.Millisecond
	}
	var (
		curveMu sync.Mutex
		curve   []curvePoint
	)
	samplerDone := make(chan struct{})
	samplerStop := make(chan struct{})
	go func() {
		defer close(samplerDone)
		tick := time.NewTicker(sampleEvery)
		defer tick.Stop()
		var prevN uint64
		var prevT time.Duration
		for {
			select {
			case <-samplerStop:
				return
			case <-tick.C:
				snap := tele.Snapshot()
				n := snap.Counter("iterations")
				dt := snap.Elapsed - prevT
				var rate float64
				if dt > 0 {
					rate = float64(n-prevN) / dt.Seconds()
				}
				curveMu.Lock()
				curve = append(curve, curvePoint{T: snap.Elapsed, Iterations: n, Rate: rate})
				curveMu.Unlock()
				prevN, prevT = n, snap.Elapsed
			}
		}
	}()

	// Dispatch studies: seeds seed-base, seed-base+1, ... either a fixed
	// count or until the deadline passes (in-flight studies finish).
	var (
		mu        sync.Mutex
		studyErrs []error
		completed int
	)
	deadline := time.Time{}
	if *duration > 0 {
		deadline = time.Now().Add(*duration)
		total = -1 // unbounded; the deadline is the stop condition
	}
	seeds := make(chan int64)
	go func() {
		defer close(seeds)
		for i := 0; ; i++ {
			if total >= 0 && i >= total {
				return
			}
			if !deadline.IsZero() && time.Now().After(deadline) {
				return
			}
			select {
			case seeds <- *seedBase + int64(i):
			case <-ctx.Done():
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seed := range seeds {
				cfg, _ := presetConfig(*preset, seed, *queries)
				cfg.Telemetry = tele
				study := searchads.NewStudy(cfg)
				_, err := study.Analyze(ctx)
				if cfg.Checkpoint != "" {
					os.Remove(cfg.Checkpoint)
				}
				mu.Lock()
				completed++
				if err != nil {
					studyErrs = append(studyErrs, fmt.Errorf("seed %d: %w", seed, err))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	close(samplerStop)
	<-samplerDone

	snap := tele.Snapshot()
	mu.Lock()
	nErrs := len(studyErrs)
	errs := errors.Join(studyErrs...)
	ran := completed
	mu.Unlock()

	if !*quiet {
		fmt.Fprintf(os.Stderr, "loadtest: preset=%s concurrency=%d studies=%d queries=%d\n\n",
			*preset, workers, ran, *queries)
		if *markdown {
			fmt.Fprint(os.Stderr, snap.Markdown())
		} else {
			fmt.Fprint(os.Stderr, snap.Text())
		}
		curveMu.Lock()
		if len(curve) > 0 {
			fmt.Fprintf(os.Stderr, "\nthroughput curve (per %s interval):\n", sampleEvery)
			for _, p := range curve {
				fmt.Fprintf(os.Stderr, "  t=%-8s %8.1f iter/sec  (%d total)\n",
					p.T.Truncate(10*time.Millisecond), p.Rate, p.Iterations)
			}
		}
		curveMu.Unlock()
	}

	if *out != "" {
		curveMu.Lock()
		res := benchResult{
			Preset:      *preset,
			Concurrency: workers,
			Runs:        ran,
			Queries:     *queries,
			StudyErrors: nErrs,
			Telemetry:   snap,
			Curve:       curve,
		}
		curveMu.Unlock()
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "loadtest:", err)
			closeSink()
			return exitStudyFailed
		}
		data = append(data, '\n')
		if *out == "-" {
			os.Stdout.Write(data)
		} else if err := os.WriteFile(*out, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "loadtest:", err)
			closeSink()
			return exitStudyFailed
		}
	}

	sinkCode := closeSink()
	if errs != nil {
		if errors.Is(errs, searchads.ErrCanceled) {
			fmt.Fprintf(os.Stderr, "loadtest: canceled with %d stud%s failed\n", nErrs, plural(nErrs, "y", "ies"))
			return 130
		}
		fmt.Fprintf(os.Stderr, "loadtest: %d stud%s failed:\n%s\n", nErrs, plural(nErrs, "y", "ies"), indent(errs.Error()))
		return exitStudyFailed
	}
	if sinkCode != exitOK {
		return sinkCode
	}
	return exitOK
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}

func indent(s string) string {
	return "  " + strings.ReplaceAll(s, "\n", "\n  ")
}
