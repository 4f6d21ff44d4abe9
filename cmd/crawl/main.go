// Command crawl runs the paper's measurement pipeline over the simulated
// web and writes the dataset as JSON. It consumes the v2 iteration
// stream, so Ctrl-C (SIGINT/SIGTERM) cancels the crawl within one
// iteration, writes the partial dataset crawled so far, and exits
// non-zero.
//
// Usage:
//
//	crawl -out dataset.json [-seed 1] [-engines bing,google] [-queries 500]
//	      [-iterations 0] [-partitioned] [-no-stealth] [-skip-revisit]
//	      [-faults off|flaky-edge|bot-hostile|brownout] [-fault-rate 0.05]
//	      [-adversary off|lenient|strict|paranoid] [-countermeasures off|pace|rotate|solve|full]
//	      [-checkpoint run.ckpt [-resume]]
//	      [-telemetry] [-events trace.jsonl]
//	      [-cpuprofile cpu.pprof] [-blockprofile block.pprof]
//
// Injected faults degrade iterations, never the process: fault-failed
// iterations are recorded (with typed error classes) and counted in the
// summary, and the exit status stays zero unless a non-fault error —
// bad config, cancellation, an unwritable output — occurs.
//
// With -checkpoint, the crawl periodically writes a crash-safe progress
// file; SIGINT writes a final checkpoint before exiting 130 and, when
// the checkpoint is on disk, prints the exact -resume invocation.
// Re-running with -resume continues from the checkpoint and produces a
// dataset byte-identical to an uninterrupted crawl. A damaged checkpoint is discarded with a warning
// and the crawl restarts from scratch; a checkpoint from a different
// configuration is a hard error.
//
// -telemetry prints the per-stage latency table to stderr after the
// crawl; -events streams a JSONL run-event trace while it is live.
// Exit status: 0 on success, 1 on error, 130 on cancellation, and 3
// when the crawl succeeded but the -events trace could not be written
// or flushed — distinct, so callers never mistake a lost trace for a
// lost crawl. Neither flag changes a single output byte.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"

	"searchads"
	"searchads/internal/profiling"
)

var (
	out          = flag.String("out", "dataset.json", "output dataset path")
	seed         = flag.Int64("seed", 20221001, "world seed")
	engines      = flag.String("engines", "", "comma-separated engines (default: all five)")
	queries      = flag.Int("queries", 500, "queries per engine")
	iterations   = flag.Int("iterations", 0, "iteration cap per engine (0 = one per query)")
	partitioned  = flag.Bool("partitioned", false, "crawl with partitioned cookie storage")
	noStealth    = flag.Bool("no-stealth", false, "disable the stealth fingerprint (bots get no ads)")
	skipRevisit  = flag.Bool("skip-revisit", false, "skip the next-day profile revisit")
	parallel     = flag.Bool("parallel", false, "crawl iterations on a worker pool (byte-identical to sequential)")
	refSmuggle   = flag.Bool("referrer-smuggling", false, "enable the referrer-based UID-smuggling service")
	faults       = flag.String("faults", "off", "fault-injection profile: "+strings.Join(searchads.FaultProfiles(), ", "))
	faultRate    = flag.Float64("fault-rate", 0, "overall per-request fault-injection rate in [0, 1]")
	adversary    = flag.String("adversary", "off", "stateful adversary posture: "+strings.Join(searchads.AdversaryPostures(), ", "))
	counters     = flag.String("countermeasures", "off", "crawler countermeasure bundle: "+strings.Join(searchads.CountermeasureBundles(), ", "))
	ckpt         = flag.String("checkpoint", "", "crash-safe checkpoint file (SIGINT writes a final checkpoint before exiting)")
	resume       = flag.Bool("resume", false, "continue from an existing -checkpoint file")
	telemetry    = flag.Bool("telemetry", false, "print the per-stage latency table to stderr after the crawl")
	events       = flag.String("events", "", "stream a JSONL run-event trace to this file while the crawl is live")
	quiet        = flag.Bool("quiet", false, "suppress progress output")
	cpuprofile   = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprofile   = flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	blockprofile = flag.String("blockprofile", "", "write a pprof blocking profile at exit to this file")
	mutexprofile = flag.String("mutexprofile", "", "write a pprof mutex-contention profile at exit to this file")
)

func main() {
	flag.Parse()
	os.Exit(run())
}

func run() int {
	stopProfiles, err := profiling.Start(profiling.Options{
		CPU: *cpuprofile, Mem: *memprofile, Block: *blockprofile, Mutex: *mutexprofile,
	})
	if err != nil {
		return fail(err)
	}
	defer stopProfiles()

	if *resume && *ckpt == "" {
		return fail(errors.New("-resume requires -checkpoint"))
	}
	if *ckpt != "" && !*resume {
		if _, err := os.Stat(*ckpt); err == nil {
			return fail(fmt.Errorf("checkpoint %s already exists; pass -resume to continue it or delete the file to start over", *ckpt))
		}
	}

	// Telemetry observes, never steers: the dataset is byte-identical
	// with or without it. finish() renders the table, flushes the trace,
	// and keeps a sink failure (exit 3) distinct from a crawl failure.
	var tele *searchads.Telemetry
	if *telemetry || *events != "" {
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
			fmt.Fprintln(os.Stderr, "crawl: event trace:", err)
			if code == 0 {
				return 3
			}
		}
		return code
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	cfg := searchads.Config{
		Seed:              *seed,
		QueriesPerEngine:  *queries,
		Iterations:        *iterations,
		NoStealth:         *noStealth,
		SkipRevisit:       *skipRevisit,
		Parallel:          *parallel,
		ReferrerSmuggling: *refSmuggle,
		FaultProfile:      *faults,
		FaultRate:         *faultRate,
		Adversary:         *adversary,
		Countermeasures:   *counters,
		Telemetry:         tele,
	}
	if *engines != "" {
		cfg.Engines = strings.Split(*engines, ",")
	}
	if *partitioned {
		cfg.Storage = searchads.PartitionedStorage
	}
	cfg.Checkpoint = *ckpt

	study := searchads.NewStudy(cfg)
	if !*quiet {
		fmt.Fprintln(os.Stderr, "building world and crawling... (Ctrl-C cancels and keeps the partial dataset)")
	}
	var ds *searchads.Dataset
	var streamErr error
	if cfg.Checkpoint != "" {
		// The checkpointed path: Resume fast-forwards past anything a
		// previous run recorded (a missing file just starts fresh) and
		// hands back the partial dataset on cancellation.
		ds, streamErr = study.Resume(ctx)
		if errors.Is(streamErr, searchads.ErrCheckpointCorrupt) {
			fmt.Fprintf(os.Stderr, "crawl: %v\ncrawl: discarding the damaged checkpoint and restarting from scratch\n", streamErr)
			os.Remove(cfg.Checkpoint)
			study = searchads.NewStudy(cfg)
			ds, streamErr = study.Resume(ctx)
		}
	} else {
		// Assemble the dataset from the stream so a canceled crawl still
		// leaves the iterations crawled so far on disk.
		ds = study.NewDataset()
		for it, err := range study.Iterations(ctx) {
			if err != nil {
				streamErr = err
				break
			}
			ds.Iterations = append(ds.Iterations, it)
		}
	}
	if streamErr != nil && !errors.Is(streamErr, searchads.ErrCanceled) {
		return finish(fail(streamErr))
	}
	if err := ds.Save(*out); err != nil {
		return finish(fail(err))
	}
	if !*quiet {
		errs := 0
		classes := make(map[string]int)
		for _, it := range ds.Iterations {
			if it.Error != "" {
				errs++
				cls := it.ErrorClass
				if cls == "" {
					cls = "other"
				}
				classes[cls]++
			}
		}
		fmt.Fprintf(os.Stderr, "wrote %s: %d iterations (%d errors) across %d engines\n",
			*out, len(ds.Iterations), errs, len(ds.Engines()))
		if len(classes) > 0 {
			names := make([]string, 0, len(classes))
			for cls := range classes {
				names = append(names, cls)
			}
			sort.Strings(names)
			parts := make([]string, 0, len(names))
			for _, cls := range names {
				parts = append(parts, fmt.Sprintf("%s=%d", cls, classes[cls]))
			}
			fmt.Fprintf(os.Stderr, "failed iterations by class: %s\n", strings.Join(parts, " "))
		}
	}
	if streamErr != nil {
		fmt.Fprintf(os.Stderr, "crawl: canceled after %d iterations; partial dataset kept: %v\n",
			len(ds.Iterations), streamErr)
		if _, err := os.Stat(cfg.Checkpoint); err == nil {
			fmt.Fprintf(os.Stderr, "crawl: checkpoint written to %s\ncrawl: resume with: %s\n",
				cfg.Checkpoint, resumeInvocation())
		}
		return finish(130)
	}
	return finish(0)
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "crawl:", err)
	return 1
}

// resumeInvocation reconstructs this process's exact command line with
// -resume appended, so the cancellation message is copy-pasteable.
func resumeInvocation() string {
	args := append([]string(nil), os.Args...)
	for _, a := range args[1:] {
		if a == "-resume" || a == "--resume" {
			return strings.Join(args, " ")
		}
	}
	return strings.Join(append(args, "-resume"), " ")
}
