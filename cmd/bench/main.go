// Command bench is the repository's benchmark harness. It drives four
// closed-loop workloads through the public study, sweep and dataset
// APIs, checks every op's output against a reference computed on a
// different path, and reports end-to-end metrics with tracing off. A
// separate traced run (-trace) attributes op time to the repository's
// modules from outside the library. See README.md.
//
// Usage:
//
//	bench [-workload name|all] [-seed N] [-seconds S] [-trace] [-quick] [-out file] [-workdir dir]
//	bench -compare parent.jsonl change.jsonl
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. The exit status is 0
// when every op succeeded, 1 when an op failed or its output differed
// from the reference, and 2 on a usage or set-up error.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	quick    bool
	out      string
	workdir  string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c config
	fs.StringVar(&c.workload, "workload", "all", "workload to run ("+strings.Join(workloadNames(), ", ")+") or all")
	fs.Int64Var(&c.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	fs.IntVar(&c.seconds, "seconds", 20, "nominal timed-phase length; it fixes each workload's op count")
	fs.BoolVar(&c.trace, "trace", false, "run the traced layer ladder instead of the end-to-end measurement")
	fs.BoolVar(&c.quick, "quick", false, "2 seeds and 6 ops per workload (smoke test)")
	fs.StringVar(&c.out, "out", "", "append the run's full report to this file as one JSON line")
	fs.StringVar(&c.workdir, "workdir", "", "directory for checkpoint and dataset files (default: a new temporary directory)")
	compare := fs.Bool("compare", false, "compare two -out files of alternating runs: -compare parent.jsonl change.jsonl")
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return 2
	}
	if *compare {
		return runCompare(fs.Args(), stdout, stderr)
	}
	if fs.NArg() > 0 || c.seconds < 1 {
		fmt.Fprintln(stderr, "bench: unexpected arguments or -seconds below 1")
		fs.Usage()
		return 2
	}
	selected := workloads
	if c.workload != "all" {
		w, ok := findWorkload(c.workload)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q (have %s)\n", c.workload, strings.Join(workloadNames(), ", "))
			return 2
		}
		selected = []*workload{w}
	}

	dir, err := workdir(c.workdir)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	defer func() {
		if err := os.RemoveAll(dir); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
		}
	}()
	c.workdir = dir

	ctx := context.Background()
	rep := report{Seed: c.seed, Seconds: c.seconds, Quick: c.quick, Trace: c.trace, GOMAXPROCS: runtime.GOMAXPROCS(0)}
	for _, w := range selected {
		var res *result
		if c.trace {
			res, err = traceRun(ctx, w, c, stderr)
		} else {
			res, err = measure(ctx, w, c, stderr)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		printResult(stdout, w, res, c.trace)
		rep.Workloads = append(rep.Workloads, res)
	}
	if c.out != "" {
		if err := appendJSONLine(c.out, rep); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
	}
	line := rep.line()
	data, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(data))
	if !line.Correct {
		return 1
	}
	return 0
}

// normalizeArgs accepts "-trace 0" and "-trace 1" (either dash count):
// the flag package reads a bare boolean flag's next argument as a
// positional one.
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) {
			if v := args[i+1]; v == "0" || v == "1" || v == "true" || v == "false" {
				out = append(out, a+"="+v)
				i++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

// workdir returns the directory for the run's files: the given one
// (created, and a fresh subdirectory inside it) or a temporary one.
func workdir(base string) (string, error) {
	if base == "" {
		return os.MkdirTemp("", "bench-")
	}
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", fmt.Errorf("workdir: %w", err)
	}
	return os.MkdirTemp(base, "run-")
}

// report is one invocation's full outcome, the -out record.
type report struct {
	Seed       int64     `json:"seed"`
	Seconds    int       `json:"seconds"`
	Quick      bool      `json:"quick,omitempty"`
	Trace      bool      `json:"trace,omitempty"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	Workloads  []*result `json:"workloads"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// line summarises the report. With one workload the metrics keep their
// declared names; with several each name is prefixed "workload/".
func (r report) line() resultLine {
	l := resultLine{Metrics: map[string]value{}}
	for _, res := range r.Workloads {
		l.Attempted += res.Attempted
		l.Failed += res.Failed
		for name, v := range res.Metrics {
			if len(r.Workloads) > 1 {
				name = res.Workload + "/" + name
			}
			l.Metrics[name] = v
		}
	}
	l.Correct = l.Failed == 0 && l.Attempted > 0
	return l
}

func printResult(w io.Writer, wl *workload, res *result, traced bool) {
	table, kind := endToEnd, "end-to-end"
	if traced {
		table, kind = perLayer, "traced"
	}
	fmt.Fprintf(w, "== %s (%s): %d seeds, %d ops attempted, %d failed, reference pass %.2f s\n",
		wl.name, kind, res.Seeds, res.Attempted, res.Failed, res.RefS)
	for _, m := range table {
		v := res.Metrics[m.Name]
		note := ""
		switch m.Name {
		case "setup_s":
			note = fmt.Sprintf("median of %d, calibrated", setupRuns)
		case "iter_per_s":
			note = "calibrated"
		case "op_s_p50", "op_s_p90":
			note = fmt.Sprintf("n=%d, calibrated", res.Attempted)
		}
		fmt.Fprintf(w, "  %-28s %14.6g %-6s %s\n", m.Name, v.Value, v.Unit, note)
	}
	for _, m := range extras {
		if v, ok := res.Extra[m.Name]; ok {
			fmt.Fprintf(w, "  %-28s %14.6g %-6s %s\n", m.Name, v.Value, v.Unit, "(not declared)")
		}
	}
	if !traced {
		fmt.Fprintf(w, "  %-28s %14.6g %-6s %d/%d\n", "failed_frac", float64(res.Failed)/float64(max(res.Attempted, 1)), "frac", res.Failed, res.Attempted)
	}
}

func appendJSONLine(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("out: %w", err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("out: %w", err)
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("out: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("out: %w", err)
	}
	return nil
}
