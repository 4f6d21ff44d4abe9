package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// minPairs is the fewest alternating parent/change run pairs a
// comparison accepts.
const minPairs = 10

// runCompare reads two -out files holding the parent's and the change's
// untraced runs, paired in order (run i of each side ran back to back,
// alternating which went first), and prints a verdict for every
// workload × end-to-end metric:
//
//   - improved: the change wins at least 9 of 10 pairs (ties count for
//     neither side) and the medians differ by more than the parent's
//     interquartile range;
//   - regressed: the change's median is worse than the parent's by more
//     than the metric's bound;
//   - unresolved: the parent's run-to-run spread is wider than the bound,
//     so "within bound" cannot be told apart from noise;
//   - within bound: none of the above.
func runCompare(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "bench: -compare needs two files: parent.jsonl change.jsonl")
		return 2
	}
	parent, err := readRuns(args[0])
	if err == nil {
		var change []report
		if change, err = readRuns(args[1]); err == nil {
			return compareRuns(parent, change, stdout, stderr)
		}
	}
	fmt.Fprintln(stderr, "bench:", err)
	return 2
}

func readRuns(path string) ([]report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("compare: %w", err)
	}
	defer f.Close()
	var runs []report
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var r report
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("compare: %s: %w", path, err)
		}
		if !r.Trace {
			runs = append(runs, r)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("compare: %s: %w", path, err)
	}
	return runs, nil
}

// verdict is one workload × metric outcome.
type verdict struct {
	workload, metric string
	parent, change   float64 // medians
	wins, pairs      int
	spread           float64 // parent IQR over its median
	outcome          string
}

func compareRuns(parent, change []report, stdout, stderr io.Writer) int {
	pairs := min(len(parent), len(change))
	if pairs < minPairs {
		fmt.Fprintf(stderr, "bench: -compare needs at least %d run pairs, have %d\n", minPairs, pairs)
		return 2
	}
	var verdicts []verdict
	for _, w := range workloads {
		for _, m := range endToEnd {
			var a, b []float64
			for i := 0; i < pairs; i++ {
				pa, oka := metricOf(parent[i], w.name, m.Name)
				pb, okb := metricOf(change[i], w.name, m.Name)
				if oka && okb {
					a, b = append(a, pa), append(b, pb)
				}
			}
			if len(a) < minPairs {
				continue
			}
			verdicts = append(verdicts, judge(w.name, m, a, b))
		}
	}
	if len(verdicts) == 0 {
		fmt.Fprintln(stderr, "bench: -compare found no workload measured in enough pairs")
		return 2
	}
	fmt.Fprintf(stdout, "%-14s %-20s %14s %14s %8s %6s %8s  %s\n",
		"workload", "metric", "parent p50", "change p50", "delta", "wins", "spread", "verdict")
	for _, v := range verdicts {
		fmt.Fprintf(stdout, "%-14s %-20s %14.6g %14.6g %+7.2f%% %3d/%-2d %7.2f%%  %s\n",
			v.workload, v.metric, v.parent, v.change, 100*(v.change-v.parent)/v.parent,
			v.wins, v.pairs, 100*v.spread, v.outcome)
	}
	return 0
}

func metricOf(r report, workload, name string) (float64, bool) {
	for _, res := range r.Workloads {
		if res.Workload == workload {
			v, ok := res.Metrics[name]
			return v.Value, ok
		}
	}
	return 0, false
}

// judge applies the rules above to one metric's paired values; a and b
// are the parent's and the change's, index-aligned by pair.
func judge(workload string, m metric, a, b []float64) verdict {
	better := func(x, y float64) bool { // x better than y
		if m.Better == "higher" {
			return x > y
		}
		return x < y
	}
	v := verdict{workload: workload, metric: m.Name, parent: median(a), change: median(b), pairs: len(a)}
	for i := range a {
		if better(b[i], a[i]) {
			v.wins++
		}
	}
	q1, q3 := quartiles(a)
	iqr := q3 - q1
	if v.parent != 0 {
		v.spread = iqr / v.parent
	}
	gap := v.change - v.parent
	worse := gap
	if m.Better == "higher" {
		worse = -gap
	}
	switch {
	case 10*v.wins >= 9*v.pairs && better(v.change, v.parent) && abs(gap) > iqr:
		v.outcome = "improved"
	case worse > m.Bound*abs(v.parent):
		v.outcome = "regressed"
	case v.spread > m.Bound:
		v.outcome = "unresolved"
	default:
		v.outcome = "within bound"
	}
	return v
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
