package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(data))
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d top-level keys, want 6", len(keys))
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b benchmarkFile
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE := regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("bad name %q", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}

	if len(b.Command) == 0 || len(b.Command) > 32 {
		t.Errorf("command has %d strings", len(b.Command))
	}
	for _, s := range b.Command {
		if len(s) > 200 || strings.HasPrefix(s, "/") || strings.Contains(s, "..") {
			t.Errorf("command string %q", s)
		}
	}
	if len(b.Paths) < 1 || len(b.Paths) > 16 {
		t.Errorf("paths has %d entries", len(b.Paths))
	}
	for _, p := range b.Paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			t.Errorf("bad path %q", p)
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", b.RunSeconds)
	}

	if len(b.Workloads) < 2 || len(b.Workloads) > 8 {
		t.Errorf("%d workloads, want 2..8", len(b.Workloads))
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the harness runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		name(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		if i < len(workloads) && (workloads[i].name != w.Name || workloads[i].why != w.Why) {
			t.Errorf("workload %d is %q, harness has %q with another why", i, w.Name, workloads[i].name)
		}
	}

	if len(b.EndToEnd) < 1 || len(b.EndToEnd) > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", len(b.EndToEnd))
	}
	var setupBound, maxOther float64
	for _, m := range b.EndToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound == nil {
			t.Errorf("end-to-end metric %s needs a unit, a direction and a bound", m.Name)
			continue
		}
		if *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", m.Name, *m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = *m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in s, lower better")
			}
		} else {
			maxOther = max(maxOther, *m.Bound)
		}
		if h, ok := lookup(endToEnd, m.Name); !ok || h.Unit != m.Unit || h.Better != m.Better || h.Bound != *m.Bound {
			t.Errorf("end-to-end metric %s differs from the harness's declaration %+v", m.Name, h)
		}
	}
	if setupBound == 0 || setupBound < maxOther {
		t.Errorf("setup_s needs the largest bound (has %v, others up to %v)", setupBound, maxOther)
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json declares %d end-to-end metrics, the harness %d", len(b.EndToEnd), len(endToEnd))
	}

	if len(b.PerLayer) < 1 || len(b.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", len(b.PerLayer))
	}
	for _, m := range b.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %s needs a unit and a direction", m.Name)
		}
		if h, ok := lookup(perLayer, m.Name); !ok || h.Unit != m.Unit || h.Better != m.Better {
			t.Errorf("per-layer metric %s differs from the harness's declaration %+v", m.Name, h)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json declares %d per-layer metrics, the harness %d", len(b.PerLayer), len(perLayer))
	}
}

// runQuick runs the harness in -quick mode and decodes its result line.
func runQuick(t *testing.T, args ...string) resultLine {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(append([]string{"-quick", "-workdir", t.TempDir()}, args...), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if !line.Correct || line.Failed != 0 || line.Attempted == 0 {
		t.Fatalf("correct=%v attempted=%d failed=%d\n%s", line.Correct, line.Attempted, line.Failed, stderr.String())
	}
	return line
}

func TestQuickEmitsEveryMetric(t *testing.T) {
	line := runQuick(t)
	for _, w := range workloads {
		for _, m := range endToEnd {
			v, ok := line.Metrics[w.name+"/"+m.Name]
			if !ok || v.Unit != m.Unit || !(v.Value > 0) {
				t.Errorf("%s/%s = %+v (present %v), want a positive value in %s", w.name, m.Name, v, ok, m.Unit)
			}
		}
	}
	if len(line.Metrics) != len(workloads)*len(endToEnd) {
		t.Errorf("%d metrics, want %d", len(line.Metrics), len(workloads)*len(endToEnd))
	}
}

func TestQuickTraceEmitsEveryLayer(t *testing.T) {
	line := runQuick(t, "-workload", "hostile-batch", "-trace", "1")
	for _, m := range perLayer {
		if v, ok := line.Metrics[m.Name]; !ok || v.Unit != m.Unit {
			t.Errorf("%s = %+v (present %v), want unit %s", m.Name, v, ok, m.Unit)
		}
	}
	if len(line.Metrics) != len(perLayer) {
		t.Errorf("%d metrics, want %d", len(line.Metrics), len(perLayer))
	}
	if u := line.Metrics["trace.unaccounted_frac"].Value; u > 0.10 || u < -0.10 {
		t.Errorf("hostile-batch ladder leaves %.3f of the op unaccounted", u)
	}
}

// TestTracedOpMatchesUntraced pins that tracing changes no output byte
// — the handler wrappers, telemetry and wire log are invisible — and
// that the wrappers cover every origin: each round trip either reached
// a wrapped handler or was a fault injected before it.
func TestTracedOpMatchesUntraced(t *testing.T) {
	ctx := context.Background()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			in, err := setup(w, 7, 1, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			seed := in.seeds[0]
			_, out, err := w.op(ctx, in, seed)
			if err != nil {
				t.Fatal(err)
			}
			var l layers
			traced, _, err := w.traced(ctx, in, seed, &l)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := digest(out)
			got, _ := digest(traced)
			if got != want {
				t.Errorf("traced digest %s, untraced %s", got, want)
			}
			var calls int64
			for o := range numOrigins {
				calls += l.origin.calls[o].Load()
			}
			if calls+l.faults != l.roundTrips || calls == 0 {
				t.Errorf("origin calls %d + faults %d != round trips %d", calls, l.faults, l.roundTrips)
			}
		})
	}
}

func TestCorruptReferenceFails(t *testing.T) {
	ctx := context.Background()
	w, _ := findWorkload("sweep-grid")
	in, err := setup(w, 3, 1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := w.ref(ctx, in, in.seeds[0])
	if err != nil {
		t.Fatal(err)
	}
	want, _ := digest(ref)
	if _, ok := check(ctx, w, in, in.seeds[0], want, nil, io.Discard); !ok {
		t.Fatal("op differs from its reference")
	}
	corrupt := strings.Repeat("0", len(want))
	if _, ok := check(ctx, w, in, in.seeds[0], corrupt, nil, io.Discard); ok {
		t.Fatal("a corrupted reference digest passed the check")
	}
	r := report{Workloads: []*result{{Workload: w.name, Attempted: 2, Failed: 1, Metrics: map[string]value{}}}}
	if r.line().Correct {
		t.Fatal("a run with a failed op reads as correct")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
	if q1, q3 := quartiles([]float64{1, 2, 4, 8}); q1 != 1.25 || q3 != 7 {
		t.Errorf("quartiles = %v, %v; want 1.25, 7", q1, q3)
	}
}

func TestJudge(t *testing.T) {
	m := metric{Name: "op_s_p50", Unit: "s", Better: "lower", Bound: 0.05}
	parent := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{0.8, 1.2, 0.9, 1.1, 1.0, 0.7, 1.3, 1.0, 0.85, 1.15}
	for _, c := range []struct {
		name          string
		parent, chang []float64
		want          string
	}{
		{"faster", parent, scale(parent, 0.9), "improved"},
		{"slower", parent, scale(parent, 1.1), "regressed"},
		{"same", parent, scale(parent, 1.01), "within bound"},
		{"noise", noisy, scale(noisy, 1.01), "unresolved"},
	} {
		if got := judge("w", m, c.parent, c.chang).outcome; got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestNormalizeArgs(t *testing.T) {
	got := normalizeArgs([]string{"--workload", "study-seq", "--trace", "0", "-trace", "1", "-quick"})
	want := []string{"--workload", "study-seq", "--trace=0", "-trace=1", "-quick"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("normalizeArgs = %q, want %q", got, want)
	}
}
