package searchads_test

import (
	"bytes"
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"searchads"
)

// TestRetryBackoffVirtualClockOnly: retries, exponential backoff, and
// Retry-After waits are charged to the browser's virtual clock, never
// the wall clock — a heavily degraded crawl whose retry budget adds up
// to minutes of simulated waiting still finishes in real milliseconds,
// and leaks no goroutines.
func TestRetryBackoffVirtualClockOnly(t *testing.T) {
	before := runtime.NumGoroutine()
	start := time.Now()
	ds, err := searchads.NewStudy(searchads.Config{
		Seed:             555,
		Engines:          []string{searchads.Google},
		QueriesPerEngine: 12,
		FaultProfile:     "brownout", // 5xx + 429 + timeout: all the retryable classes
		FaultRate:        0.4,
		Parallel:         true,
	}).Crawl(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)

	var retries int
	for _, it := range ds.Iterations {
		for _, h := range it.Hops {
			retries += h.Retries
		}
	}
	if retries == 0 {
		t.Fatal("no hop recorded a retry at fault rate 0.4; backoff path untested")
	}
	// retries × (≥500ms backoff, 30s per timeout, 30s Retry-After) is
	// minutes of virtual time; wall time must stay far below it.
	if elapsed > 10*time.Second {
		t.Fatalf("crawl with %d retries took %v wall-clock; backoff is sleeping for real", retries, elapsed)
	}

	leakFree := false
	for i := 0; i < 50; i++ {
		if runtime.NumGoroutine() <= before {
			leakFree = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !leakFree {
		t.Fatalf("goroutines %d > baseline %d after degraded crawl", runtime.NumGoroutine(), before)
	}
}

// TestFaultFailureCountsInReport: injected failures surface as
// per-engine, per-class counts in the report that reconcile with the
// dataset. (The invariance matrix holds them equal across folds.)
func TestFaultFailureCountsInReport(t *testing.T) {
	ds, err := searchads.NewStudy(searchads.Config{
		Seed:             606,
		Engines:          []string{searchads.Bing, searchads.Qwant},
		QueriesPerEngine: 10,
		FaultProfile:     "bot-hostile",
		FaultRate:        0.3,
	}).Crawl(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	rep := searchads.AnalyzeDataset(ds)
	if len(rep.Failures) == 0 {
		t.Fatal("report carries no failure counts at fault rate 0.3")
	}
	// Reconcile report counts against the dataset records.
	want := make(map[string]map[string]int)
	for _, it := range ds.Iterations {
		if it.Error == "" {
			continue
		}
		if want[it.Engine] == nil {
			want[it.Engine] = make(map[string]int)
		}
		want[it.Engine][it.ErrorClass]++
	}
	for engine, classes := range want {
		for cls, n := range classes {
			if got := rep.Failures[engine][cls]; got != n {
				t.Fatalf("report failures[%s][%s] = %d, dataset has %d", engine, cls, got, n)
			}
		}
	}
	if !strings.Contains(rep.Render(), "Crawl loss") {
		t.Fatal("render omits the crawl-loss section despite failures")
	}
}

// TestSweepFaultDimensions: fault profile and rate are sweep matrix
// dimensions — cells get distinct scenario names, per-cell failure
// counts, and the whole sweep reproduces byte-for-byte.
func TestSweepFaultDimensions(t *testing.T) {
	ctx := context.Background()
	m := searchads.SweepMatrix{
		EngineSets:       [][]string{{searchads.Bing}},
		QueriesPerEngine: 6,
		Seeds:            []int64{1, 2},
		FaultProfiles:    []string{"bot-hostile"},
		FaultRates:       []float64{0, 0.3},
	}
	run := func() ([]byte, *searchads.SweepResult) {
		res, err := searchads.Sweep(ctx, m, searchads.SweepOptions{Parallel: 2})
		if err != nil {
			t.Fatal(err)
		}
		// The retained-iteration high-water mark is a scheduling
		// observation, not a study result — normalize it so the byte
		// comparison checks only the deterministic content.
		res.PeakRetainedIterations = 0
		data, err := res.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return data, res
	}
	first, res := run()
	second, _ := run()
	if !bytes.Equal(first, second) {
		t.Fatal("fault sweep not reproducible")
	}
	if len(res.Cells) != 4 {
		t.Fatalf("cells = %d, want 4 (1 profile × 2 rates × 2 seeds)", len(res.Cells))
	}
	var sawZero, sawFaulty bool
	for _, c := range res.Cells {
		if c.Err != "" {
			t.Fatalf("cell %s seed=%d failed: %s", c.Scenario, c.Seed, c.Err)
		}
		switch {
		case strings.Contains(c.Scenario, "faults=bot-hostile@0.3"):
			sawFaulty = true
			if len(c.FailureClasses) == 0 {
				t.Fatalf("cell %s seed=%d: no failure classes at rate 0.3", c.Scenario, c.Seed)
			}
		case strings.Contains(c.Scenario, "faults=bot-hostile@0"):
			sawZero = true
			if len(c.FailureClasses) != 0 {
				t.Fatalf("cell %s seed=%d: failure classes %v at rate 0", c.Scenario, c.Seed, c.FailureClasses)
			}
		default:
			t.Fatalf("cell scenario %q lacks a fault segment", c.Scenario)
		}
	}
	if !sawZero || !sawFaulty {
		t.Fatalf("rate dimension not expanded: zero=%v faulty=%v", sawZero, sawFaulty)
	}
}

// TestInvalidFaultProfileErrors: an unknown profile or an out-of-range
// rate — at any rate, even 0 — is a config error surfaced by the first
// pipeline call, not a silent faultless crawl, and a sweep cell of the
// same config fails with the study's error.
func TestInvalidFaultProfileErrors(t *testing.T) {
	ctx := context.Background()
	for _, cfg := range []searchads.Config{
		{FaultProfile: "hurricane", FaultRate: 0.1},
		{FaultProfile: "brownout", FaultRate: 1.5},
		{FaultProfile: "bogus"},
		{FaultProfile: "bot-hostile", FaultRate: -0.1},
	} {
		cfg.Seed = 9
		cfg.QueriesPerEngine = 2
		cfg.Engines = []string{searchads.Bing}
		study := searchads.NewStudy(cfg)
		ds, crawlErr := study.Crawl(ctx)
		if crawlErr == nil {
			t.Fatalf("%+v: Crawl returned %d iterations, want config error",
				cfg, len(ds.Iterations))
		}
		var streamErr error
		for _, err := range study.Iterations(ctx) {
			streamErr = err
			break
		}
		if streamErr == nil {
			t.Fatalf("profile=%q rate=%g: Iterations yielded no error", cfg.FaultProfile, cfg.FaultRate)
		}
		if _, err := study.Analyze(ctx); err == nil {
			t.Fatalf("profile=%q rate=%g: Analyze succeeded", cfg.FaultProfile, cfg.FaultRate)
		}

		res, err := searchads.Sweep(ctx, searchads.SweepMatrix{
			Seeds:            []int64{cfg.Seed},
			EngineSets:       [][]string{cfg.Engines},
			QueriesPerEngine: cfg.QueriesPerEngine,
			FaultProfiles:    []string{cfg.FaultProfile},
			FaultRates:       []float64{cfg.FaultRate},
		}, searchads.SweepOptions{Parallel: 1})
		if err == nil || res.CellErrors != 1 || res.Cells[0].Err != crawlErr.Error() {
			t.Errorf("profile=%q rate=%g: sweep err %v, %d cell errors, cell error %q; want the study's %q",
				cfg.FaultProfile, cfg.FaultRate, err, res.CellErrors, res.Cells[0].Err, crawlErr)
		}
	}
}
