package searchads_test

import (
	"runtime"
	"strings"
	"testing"

	"searchads"
)

// teleConfig is the integration-test workload: two engines, enough
// iterations that worker-pool interleaving would show up in any
// nondeterministic accounting.
func teleConfig(parallel bool, tele *searchads.Telemetry) searchads.Config {
	return searchads.Config{
		Seed:             7,
		Engines:          []string{"google", "bing"},
		QueriesPerEngine: 10,
		Parallel:         parallel,
		Telemetry:        tele,
	}
}

// TestTelemetryVirtualDeterminism pins that the virtual-clock
// histograms are a pure function of (seed, config): a sequential crawl
// and a Parallel crawl of the same study produce identical virtual
// distributions for every stage, however the scheduler interleaved the
// wall-clock work.
func TestTelemetryVirtualDeterminism(t *testing.T) {
	seq := searchads.NewTelemetry()
	if _, err := searchads.NewStudy(teleConfig(false, seq)).Analyze(t.Context()); err != nil {
		t.Fatal(err)
	}
	par := searchads.NewTelemetry()
	if _, err := searchads.NewStudy(teleConfig(true, par)).Analyze(t.Context()); err != nil {
		t.Fatal(err)
	}

	seqSnap, parSnap := seq.Snapshot(), par.Snapshot()
	for _, stage := range []string{"netsim_roundtrip", "browser_navigate", "crawler_iteration"} {
		s, ok := seqSnap.StageByName(stage)
		if !ok {
			t.Fatalf("sequential snapshot has no stage %q", stage)
		}
		p, ok := parSnap.StageByName(stage)
		if !ok {
			t.Fatalf("parallel snapshot has no stage %q", stage)
		}
		if s.Virtual != p.Virtual {
			t.Errorf("stage %s: virtual distribution diverged\nsequential: %+v\nparallel:   %+v",
				stage, s.Virtual, p.Virtual)
		}
		if s.Virtual.Count == 0 {
			t.Errorf("stage %s: virtual distribution is empty", stage)
		}
	}
	for _, counter := range []string{"roundtrips", "navigations", "iterations"} {
		if sv, pv := seqSnap.Counter(counter), parSnap.Counter(counter); sv != pv {
			t.Errorf("counter %s: sequential %d, parallel %d", counter, sv, pv)
		}
	}
}

// TestParallelAnalyzeFoldTelemetry pins that a Parallel study records
// its analysis like a sequential one: one analysis_fold sample per
// crawled iteration, taken on the pool worker that folded it, and one
// analysis_report sample for the tail after the last fold (on a
// Parallel study, warm-up and merge included), with the report's bytes
// unchanged by the attached registry.
func TestParallelAnalyzeFoldTelemetry(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, parallel := range []bool{false, true} {
		plain, err := searchads.NewStudy(teleConfig(parallel, nil)).Analyze(t.Context())
		if err != nil {
			t.Fatal(err)
		}
		tele := searchads.NewTelemetry()
		instrumented, err := searchads.NewStudy(teleConfig(parallel, tele)).Analyze(t.Context())
		if err != nil {
			t.Fatal(err)
		}
		if plain.Render() != instrumented.Render() {
			t.Errorf("parallel=%v: report text differs with telemetry attached", parallel)
		}
		plainJSON, err := plain.JSON()
		if err != nil {
			t.Fatal(err)
		}
		instrJSON, err := instrumented.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if string(plainJSON) != string(instrJSON) {
			t.Errorf("parallel=%v: report JSON differs with telemetry attached", parallel)
		}
		snap := tele.Snapshot()
		fold, ok := snap.StageByName("analysis_fold")
		if !ok {
			t.Fatal("snapshot has no analysis_fold stage")
		}
		if iters := snap.Counter("iterations"); iters == 0 || fold.Wall.Count != iters {
			t.Errorf("parallel=%v: analysis_fold recorded %d folds for %d iterations", parallel, fold.Wall.Count, iters)
		}
		tail, ok := snap.StageByName("analysis_report")
		if !ok {
			t.Fatal("snapshot has no analysis_report stage")
		}
		if tail.Wall.Count != 1 {
			t.Errorf("parallel=%v: analysis_report recorded %d samples for one Analyze", parallel, tail.Wall.Count)
		}
	}
}

// TestTelemetryCountsWorldBuilds pins world reuse in a study's own
// telemetry: the seeded web is derived once, and a crawl started after
// an abandoned live stream instantiates a fresh world from it instead
// of deriving again.
func TestTelemetryCountsWorldBuilds(t *testing.T) {
	tele := searchads.NewTelemetry()
	study := searchads.NewStudy(teleConfig(false, tele))
	for range study.Iterations(t.Context()) {
		break // abandon the live stream
	}
	if _, err := study.Crawl(t.Context()); err != nil {
		t.Fatal(err)
	}
	snap := tele.Snapshot()
	if got := snap.Counter("world_derivations"); got != 1 {
		t.Errorf("world_derivations = %d, want 1", got)
	}
	if got := snap.Counter("world_instantiations"); got != 2 {
		t.Errorf("world_instantiations = %d, want 2", got)
	}
}

// TestTelemetryEventTrace drives an instrumented study with a JSONL
// sink attached and checks the trace is consumable line-by-line.
func TestTelemetryEventTrace(t *testing.T) {
	var buf strings.Builder
	tele := searchads.NewTelemetry()
	tele.SetSink(&buf)
	if _, err := searchads.NewStudy(teleConfig(false, tele)).Analyze(t.Context()); err != nil {
		t.Fatal(err)
	}
	if err := tele.CloseSink(); err != nil {
		t.Fatalf("CloseSink: %v", err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) < 40 { // 20 iterations × (start + done)
		t.Fatalf("trace holds %d lines, want at least 40", len(lines))
	}
	for i, line := range lines {
		if !strings.HasPrefix(line, `{"ts":`) || !strings.HasSuffix(line, "}") {
			t.Fatalf("line %d is not a JSON object: %q", i, line)
		}
	}
}
