// Command sweep runs a multi-seed, multi-scenario study matrix on a
// bounded worker pool and aggregates the key §4 metrics across seeds
// (mean, stddev, min/max, 95% CI per engine). Each cell's crawl is
// folded one iteration at a time through the incremental analysis, so
// memory stays O(-parallel) iterations however many cells the matrix
// expands to — no cell ever holds a dataset.
//
// Usage:
//
//	sweep -preset paper-baseline -seeds 10
//	sweep -matrix 'storage=flat,partitioned;filter=on,off' -seeds 5 -queries 80
//	sweep -preset adblock-user -seeds 10 -parallel 4 -out sweep.json
//	sweep -preset paper-baseline -cpuprofile cpu.pprof -memprofile mem.pprof
//	sweep -faults bot-hostile -fault-rate 0.05 -seeds 2
//	sweep -matrix 'faults=bot-hostile;fault-rate=0,0.05,0.2' -seeds 2
//	sweep -preset paper-baseline -seeds 10 -progress -telemetry -events trace.jsonl
//
// Injected faults degrade iterations inside their cells (counted per
// error class in each cell result), never the cells themselves: only
// non-fault errors — bad config, cancellation — exit non-zero.
//
// The machine-readable JSON goes to stdout (or -out); the human table
// and progress go to stderr. The exit status is non-zero if any cell
// fails. Ctrl-C (SIGINT/SIGTERM) cancels in-flight cells within one
// crawl iteration, marks queued cells canceled, still emits the
// partial result, and exits 130.
//
// With -checkpoint, the sweep parks completed cells' results and
// in-flight cells' crawled prefixes in a crash-safe progress file;
// SIGINT writes a final checkpoint before exiting 130, and any cell
// error or cancellation that left a checkpoint on disk prints the exact
// -resume invocation to stderr.
// Re-running with -resume skips completed cells, continues in-flight
// ones mid-crawl, and produces cells and aggregates byte-identical to
// an uninterrupted sweep. A damaged checkpoint is discarded with a
// warning and the sweep restarts from scratch; a checkpoint from a
// different matrix is a hard error.
//
// -progress keeps a live one-line status on stderr (cells done/total,
// iterations/sec, ETA) when stderr is a terminal; -telemetry prints
// the per-stage latency table after the sweep; -events streams a JSONL
// run-event trace while it is live. None of the three changes a single
// output byte. A sweep that succeeded but could not write or flush its
// -events trace exits 3 — distinct from cell failures (1) and
// cancellation (130).
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"searchads"
	"searchads/internal/profiling"
	"searchads/internal/sweep"
)

var (
	preset       = flag.String("preset", "", "named scenario matrix: "+strings.Join(sweep.PresetNames(), ", "))
	matrix       = flag.String("matrix", "", "matrix grammar, e.g. 'storage=flat,partitioned;filter=on,off;engines=bing+google,all'")
	seeds        = flag.Int("seeds", 0, "number of seeds to sweep (seeds seed-base..seed-base+N-1; 0 = the matrix's own seeds, default 1)")
	seedBase     = flag.Int64("seed-base", 1, "first seed when -seeds is set")
	queries      = flag.Int("queries", 50, "queries per engine per cell (yields to the matrix's queries= key unless given explicitly)")
	parallel     = flag.Int("parallel", 0, "cells in flight at once (0 = GOMAXPROCS); also the peak dataset-retention bound")
	faults       = flag.String("faults", "", "fault-injection profile(s), comma-separated: "+strings.Join(searchads.FaultProfiles(), ", ")+" (overrides the matrix's faults= key)")
	faultRate    = flag.String("fault-rate", "", "fault-injection rate(s) in [0, 1], comma-separated (overrides the matrix's fault-rate= key)")
	adversary    = flag.String("adversary", "", "adversary posture(s), comma-separated: "+strings.Join(searchads.AdversaryPostures(), ", ")+" (overrides the matrix's adversary= key)")
	counters     = flag.String("countermeasures", "", "countermeasure bundle(s), comma-separated: "+strings.Join(searchads.CountermeasureBundles(), ", ")+" (overrides the matrix's cm= key)")
	out          = flag.String("out", "", "write the JSON result to this file (default: stdout)")
	ckpt         = flag.String("checkpoint", "", "crash-safe checkpoint file (SIGINT writes a final checkpoint before exiting)")
	resume       = flag.Bool("resume", false, "continue from an existing -checkpoint file")
	quiet        = flag.Bool("quiet", false, "suppress the progress and table output on stderr")
	progress     = flag.Bool("progress", false, "live one-line progress on stderr (cells done/total, iterations/sec, ETA); auto-disabled when stderr is not a terminal")
	telemetry    = flag.Bool("telemetry", false, "print the per-stage latency table to stderr after the sweep")
	events       = flag.String("events", "", "stream a JSONL run-event trace to this file while the sweep is live")
	cpuprofile   = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprofile   = flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	blockprofile = flag.String("blockprofile", "", "write a pprof blocking profile at exit to this file")
	mutexprofile = flag.String("mutexprofile", "", "write a pprof mutex-contention profile at exit to this file")
)

// stderrIsTTY reports whether stderr is a character device — the
// -progress line rewrites itself with \r, which only makes sense on a
// terminal, so redirected stderr auto-disables it.
func stderrIsTTY() bool {
	info, err := os.Stderr.Stat()
	return err == nil && info.Mode()&fs.ModeCharDevice != 0
}

func main() {
	flag.Parse()
	os.Exit(run())
}

func run() int {
	stopProfiles, err := profiling.Start(profiling.Options{
		CPU: *cpuprofile, Mem: *memprofile, Block: *blockprofile, Mutex: *mutexprofile,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		return 1
	}
	defer stopProfiles()

	// Telemetry observes, never steers: results are byte-identical with
	// or without it. finish() renders the table, flushes the trace, and
	// keeps a sink failure (exit 3) distinct from a sweep failure.
	liveProgress := *progress && stderrIsTTY()
	var tele *searchads.Telemetry
	if *telemetry || *events != "" || liveProgress {
		tele = searchads.NewTelemetry()
	}
	var eventsFile *os.File
	if *events != "" {
		f, err := os.Create(*events)
		if err != nil {
			return fail(err)
		}
		eventsFile = f
		tele.SetSink(bufio.NewWriter(f))
	}
	finish := func(code int) int {
		if *telemetry {
			fmt.Fprint(os.Stderr, tele.Snapshot().Text())
		}
		err := tele.CloseSink()
		if eventsFile != nil {
			if closeErr := eventsFile.Close(); err == nil {
				err = closeErr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "sweep: event trace:", err)
			if code == 0 {
				return 3
			}
		}
		return code
	}

	m := searchads.SweepMatrix{}
	if *preset != "" {
		var err error
		if m, err = searchads.SweepPreset(*preset); err != nil {
			return finish(fail(err))
		}
	}
	if *matrix != "" {
		over, err := searchads.ParseSweepMatrix(*matrix)
		if err != nil {
			return finish(fail(err))
		}
		m = m.Overlay(over)
	}
	if *seeds > 0 {
		m.Seeds = make([]int64, *seeds)
		for i := range m.Seeds {
			m.Seeds[i] = *seedBase + int64(i)
		}
	}
	// The fault flags reuse the matrix grammar so the values validate
	// one way ("faults=bot-hostile" ≡ -faults bot-hostile).
	if *faults != "" {
		over, err := searchads.ParseSweepMatrix("faults=" + *faults)
		if err != nil {
			return finish(fail(err))
		}
		m.FaultProfiles = over.FaultProfiles
	}
	if *faultRate != "" {
		over, err := searchads.ParseSweepMatrix("fault-rate=" + *faultRate)
		if err != nil {
			return finish(fail(err))
		}
		m.FaultRates = over.FaultRates
	}
	if *adversary != "" {
		over, err := searchads.ParseSweepMatrix("adversary=" + *adversary)
		if err != nil {
			return finish(fail(err))
		}
		m.Adversaries = over.Adversaries
	}
	if *counters != "" {
		over, err := searchads.ParseSweepMatrix("cm=" + *counters)
		if err != nil {
			return finish(fail(err))
		}
		m.Countermeasures = over.Countermeasures
	}
	// The -queries default must not clobber a queries= value from the
	// matrix grammar or a preset; only an explicitly passed flag wins.
	queriesSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "queries" {
			queriesSet = true
		}
	})
	if queriesSet || m.QueriesPerEngine == 0 {
		m.QueriesPerEngine = *queries
	}

	if *resume && *ckpt == "" {
		return finish(fail(errors.New("-resume requires -checkpoint")))
	}
	if *ckpt != "" && !*resume {
		if _, err := os.Stat(*ckpt); err == nil {
			return finish(fail(fmt.Errorf("checkpoint %s already exists; pass -resume to continue it or delete the file to start over", *ckpt)))
		}
	}

	var cellsDone, cellsTotal atomic.Int64
	opts := searchads.SweepOptions{Parallel: *parallel, Checkpoint: *ckpt, Telemetry: tele}
	opts.OnCellDone = func(done, total int, c searchads.SweepCell, err error) {
		cellsDone.Store(int64(done))
		cellsTotal.Store(int64(total))
		if *quiet {
			return
		}
		status := "ok"
		if err != nil {
			status = "FAILED: " + err.Error()
		}
		prefix := ""
		if liveProgress {
			prefix = "\r\x1b[K" // overwrite the live progress line
		}
		fmt.Fprintf(os.Stderr, "%s[%d/%d] %s seed=%d %s\n", prefix, done, total, c.Scenario, c.Seed, status)
	}

	// The live progress line rewrites itself twice a second from the
	// telemetry snapshot until the sweep returns.
	stopProgress := func() {}
	if liveProgress {
		quitProgress := make(chan struct{})
		progressDone := make(chan struct{})
		go func() {
			defer close(progressDone)
			start := time.Now()
			tick := time.NewTicker(500 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-quitProgress:
					fmt.Fprint(os.Stderr, "\r\x1b[K")
					return
				case <-tick.C:
					d, t := cellsDone.Load(), cellsTotal.Load()
					eta := "?"
					if d > 0 && t > d {
						remain := time.Duration(float64(time.Since(start)) / float64(d) * float64(t-d))
						eta = remain.Truncate(time.Second).String()
					}
					fmt.Fprintf(os.Stderr, "\r\x1b[Ksweep: %d/%d cells, %.0f iterations/sec, ETA %s",
						d, t, tele.Snapshot().IterationsPerSec, eta)
				}
			}
		}()
		stopProgress = func() { close(quitProgress); <-progressDone }
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	res, sweepErr := searchads.Sweep(ctx, m, opts)
	if res == nil {
		// The checkpoint refused to load before any cell ran. Damage is
		// recoverable — discard and start over; a mismatch (checkpoint
		// from a different matrix) is a hard error.
		if errors.Is(sweepErr, searchads.ErrCheckpointCorrupt) {
			fmt.Fprintf(os.Stderr, "sweep: %v\nsweep: discarding the damaged checkpoint and restarting from scratch\n", sweepErr)
			os.Remove(*ckpt)
			res, sweepErr = searchads.Sweep(ctx, m, opts)
		}
		if res == nil {
			stopProgress()
			return finish(fail(sweepErr))
		}
	}
	stopProgress()

	data, err := res.JSON()
	if err != nil {
		return finish(fail(err))
	}
	if *out != "" {
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return finish(fail(err))
		}
	} else {
		os.Stdout.Write(data)
		fmt.Println()
	}
	if !*quiet {
		fmt.Fprint(os.Stderr, res.Render())
	}
	if sweepErr != nil {
		if _, err := os.Stat(*ckpt); err == nil {
			fmt.Fprintf(os.Stderr, "sweep: checkpoint written to %s\nsweep: resume with: %s\n",
				*ckpt, resumeInvocation())
		}
		if errors.Is(sweepErr, searchads.ErrCanceled) {
			fmt.Fprintf(os.Stderr, "sweep: canceled with %d cell(s) unfinished; partial results above\n",
				res.CellErrors)
			return finish(130)
		}
		fmt.Fprintf(os.Stderr, "sweep: %d cell(s) failed:\n%s\n",
			res.CellErrors, indent(sweepErr.Error()))
		return finish(1)
	}
	return finish(0)
}

// resumeInvocation reconstructs this process's exact command line with
// -resume appended, so the failure message is copy-pasteable.
func resumeInvocation() string {
	args := append([]string(nil), os.Args...)
	for _, a := range args[1:] {
		if a == "-resume" || a == "--resume" {
			return strings.Join(args, " ")
		}
	}
	return strings.Join(append(args, "-resume"), " ")
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "sweep:", err)
	return 1
}

func indent(s string) string {
	return "  " + strings.ReplaceAll(s, "\n", "\n  ")
}
