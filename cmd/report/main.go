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
//
// A saved dataset is folded in one contiguous range per core
// (GOMAXPROCS), the way a Parallel study folds a cached dataset; the
// report is byte-identical to the sequential fold.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"

	"searchads"
	"searchads/internal/analysis"
	"searchads/internal/profiling"
)

var (
	in           = flag.String("in", "", "dataset JSON to analyse (empty = run a fresh study)")
	seed         = flag.Int64("seed", 20221001, "world seed for a fresh study")
	queries      = flag.Int("queries", 500, "queries per engine for a fresh study")
	engines      = flag.String("engines", "", "comma-separated engines for a fresh study")
	experiments  = flag.Bool("experiments", false, "emit EXPERIMENTS.md (paper vs measured) instead of the report")
	asJSON       = flag.Bool("json", false, "emit the report as JSON")
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
		fmt.Fprintln(os.Stderr, "report:", err)
		return 1
	}
	defer stopProfiles()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	var report *searchads.Report
	if *in != "" {
		ds, err := searchads.LoadDataset(*in)
		if err != nil {
			fmt.Fprintln(os.Stderr, "report:", err)
			return 1
		}
		if report, err = searchads.AnalyzeDatasetSharded(ctx, ds, runtime.GOMAXPROCS(0)); err != nil {
			fmt.Fprintln(os.Stderr, "report:", err)
			if errors.Is(err, searchads.ErrCanceled) {
				return 130
			}
			return 1
		}
	} else {
		cfg := searchads.Config{Seed: *seed, QueriesPerEngine: *queries}
		if *engines != "" {
			cfg.Engines = strings.Split(*engines, ",")
		}
		var err error
		// Analyze folds the live crawl incrementally; no dataset is
		// materialised for a fresh-study report.
		report, err = searchads.NewStudy(cfg).Analyze(ctx)
		if err != nil {
			fmt.Fprintln(os.Stderr, "report:", err)
			if errors.Is(err, searchads.ErrCanceled) {
				return 130
			}
			return 1
		}
	}

	if *experiments {
		fmt.Print(analysis.RenderExperiments(report.Compare()))
		return 0
	}
	if *asJSON {
		data, err := report.JSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, "report:", err)
			return 1
		}
		os.Stdout.Write(data)
		fmt.Println()
		return 0
	}
	fmt.Print(report.Render())
	return 0
}
