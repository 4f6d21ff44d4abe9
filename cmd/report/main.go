// Command report analyses a crawl dataset (or runs a fresh in-memory
// study) and prints every table and figure of the paper's evaluation.
//
// Usage:
//
//	report -in dataset.json            # analyse a saved dataset
//	report -seed 1 -queries 100        # run a fresh study end to end
//	report -in dataset.json -experiments > EXPERIMENTS.md
//	report -seed 1 -cpuprofile cpu.pprof -memprofile mem.pprof
//	report -in dataset.json -blockprofile block.pprof -mutexprofile mutex.pprof
//	report -seed 1 -queries 100 -telemetry  # per-stage latency table on stderr
//
// A saved dataset is folded in one contiguous range per core
// (GOMAXPROCS), the way a Parallel study folds a cached dataset; the
// report is byte-identical to the sequential fold.
//
// -telemetry attaches a telemetry registry to a fresh study and prints
// its per-stage latency table (the crawl stages, analysis_fold and
// analysis_report among them) to stderr; the report on stdout is
// byte-identical with or without it. The sharded fold of a saved
// dataset records no telemetry yet, so -telemetry with -in exits 2.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"

	"searchads"
	"searchads/internal/analysis"
	"searchads/internal/profiling"
	"searchads/internal/workload"
)

var (
	in           = flag.String("in", "", "dataset JSON to analyse (empty = run a fresh study)")
	seed         = flag.Int64("seed", 20221001, "world seed for a fresh study")
	queries      = flag.Int("queries", 500, fmt.Sprintf("queries per engine for a fresh study (at most %d, the size of the query corpus)", workload.Cardinality(workload.Mixed)))
	engines      = flag.String("engines", "", "comma-separated engines for a fresh study")
	experiments  = flag.Bool("experiments", false, "emit EXPERIMENTS.md (paper vs measured) instead of the report")
	asJSON       = flag.Bool("json", false, "emit the report as JSON")
	cpuprofile   = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprofile   = flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	blockprofile = flag.String("blockprofile", "", "write a pprof blocking profile at exit to this file")
	mutexprofile = flag.String("mutexprofile", "", "write a pprof mutex-contention profile at exit to this file")
	telemetry    = flag.Bool("telemetry", false, "print a fresh study's per-stage latency table to stderr (not with -in)")
)

func main() {
	flag.Parse()
	os.Exit(run(os.Stdout, os.Stderr))
}

func run(stdout, stderr io.Writer) int {
	if *telemetry && *in != "" {
		fmt.Fprintln(stderr, "report: -telemetry needs a fresh study: the sharded fold of a saved dataset (-in, analysis.FoldSharded) records no telemetry yet")
		return 2
	}
	stopProfiles, err := profiling.Start(profiling.Options{
		CPU: *cpuprofile, Mem: *memprofile, Block: *blockprofile, Mutex: *mutexprofile,
	})
	if err != nil {
		fmt.Fprintln(stderr, "report:", err)
		return 1
	}
	defer stopProfiles()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	var report *searchads.Report
	if *in != "" {
		ds, err := searchads.LoadDataset(*in)
		if err != nil {
			fmt.Fprintln(stderr, "report:", err)
			return 1
		}
		if report, err = searchads.AnalyzeDatasetSharded(ctx, ds, runtime.GOMAXPROCS(0)); err != nil {
			fmt.Fprintln(stderr, "report:", err)
			if errors.Is(err, searchads.ErrCanceled) {
				return 130
			}
			return 1
		}
	} else {
		cfg := searchads.Config{Seed: *seed, QueriesPerEngine: *queries}
		if *telemetry {
			cfg.Telemetry = searchads.NewTelemetry()
		}
		if *engines != "" {
			cfg.Engines = strings.Split(*engines, ",")
		}
		var err error
		// Analyze folds the live crawl incrementally; no dataset is
		// materialised for a fresh-study report.
		report, err = searchads.NewStudy(cfg).Analyze(ctx)
		if err != nil {
			fmt.Fprintln(stderr, "report:", err)
			if errors.Is(err, searchads.ErrCanceled) {
				return 130
			}
			return 1
		}
		if *telemetry {
			fmt.Fprint(stderr, cfg.Telemetry.Snapshot().Text())
		}
	}

	if *experiments {
		fmt.Fprint(stdout, analysis.RenderExperiments(report.Compare()))
		return 0
	}
	if *asJSON {
		data, err := report.JSON()
		if err != nil {
			fmt.Fprintln(stderr, "report:", err)
			return 1
		}
		stdout.Write(data)
		fmt.Fprintln(stdout)
		return 0
	}
	fmt.Fprint(stdout, report.Render())
	return 0
}
