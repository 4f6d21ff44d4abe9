package searchads_test

import (
	"bytes"
	"context"
	"os"
	"strings"
	"testing"

	"searchads"
)

// TestArmsRaceSuspicionOffReproducesChaosSweep pins the committed
// SWEEP_chaos.json: re-running the chaos-robustness preset — i.i.d.
// faults only, suspicion machinery never armed — at the generating
// parameters must reproduce it byte for byte, outcome counts included.
func TestArmsRaceSuspicionOffReproducesChaosSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("8-cell full-engine sweep in -short mode")
	}
	want, err := os.ReadFile("SWEEP_chaos.json")
	if err != nil {
		t.Fatal(err)
	}
	m, err := searchads.SweepPreset("chaos-robustness")
	if err != nil {
		t.Fatal(err)
	}
	m.Seeds = []int64{1, 2}
	m.QueriesPerEngine = 25
	res, err := searchads.Sweep(context.Background(), m, searchads.SweepOptions{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n') // cmd/sweep -out appends the trailing newline
	if !bytes.Equal(got, want) {
		t.Fatal("suspicion-off chaos sweep no longer reproduces the committed SWEEP_chaos.json")
	}
}

// TestArmsRaceSweepReproducesCommitted pins the committed
// SWEEP_armsrace.json: re-running the arms-race preset at the
// generating parameters must reproduce it byte for byte.
func TestArmsRaceSweepReproducesCommitted(t *testing.T) {
	if testing.Short() {
		t.Skip("12-cell full-engine sweep in -short mode")
	}
	want, err := os.ReadFile("SWEEP_armsrace.json")
	if err != nil {
		t.Fatal(err)
	}
	m, err := searchads.SweepPreset("arms-race")
	if err != nil {
		t.Fatal(err)
	}
	m.Seeds = []int64{1, 2}
	m.QueriesPerEngine = 25
	res, err := searchads.Sweep(context.Background(), m, searchads.SweepOptions{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n') // cmd/sweep -out appends the trailing newline
	if !bytes.Equal(got, want) {
		t.Fatal("arms-race sweep no longer reproduces the committed SWEEP_armsrace.json")
	}
}

// TestArmsRaceOutcomesInReportAndTelemetry: recovered/lost/abandoned
// accounting flows from the crawl into the dataset, the report (JSON
// and render), and the telemetry counters, and the three agree.
func TestArmsRaceOutcomesInReportAndTelemetry(t *testing.T) {
	ctx := context.Background()
	tele := searchads.NewTelemetry()
	study := searchads.NewStudy(searchads.Config{
		Seed:             616,
		Engines:          []string{searchads.Bing, searchads.Google},
		QueriesPerEngine: 10,
		FaultProfile:     "bot-hostile",
		FaultRate:        0.1,
		Adversary:        "strict",
		Countermeasures:  "full",
		Telemetry:        tele,
	})
	ds, err := study.Crawl(ctx)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := study.Analyze(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Outcomes) == 0 {
		t.Fatal("armed arms-race study reported no outcome counts")
	}
	if !strings.Contains(rep.Render(), "Arms race: iteration outcomes") {
		t.Fatal("render omits the arms-race outcome table")
	}

	// Reconcile report counts against the dataset records.
	want := make(map[string]map[string]int)
	var total int
	for _, it := range ds.Iterations {
		if it.Outcome == "" {
			continue
		}
		if want[it.Engine] == nil {
			want[it.Engine] = make(map[string]int)
		}
		want[it.Engine][it.Outcome]++
		total++
	}
	if total == 0 {
		t.Fatal("no iteration carries an outcome despite the armed adversary")
	}
	for engine, outcomes := range want {
		for o, n := range outcomes {
			if got := rep.Outcomes[engine][o]; got != n {
				t.Fatalf("report outcomes[%s][%s] = %d, dataset has %d", engine, o, got, n)
			}
		}
	}

	// The telemetry counters see the same events.
	snap := tele.Snapshot()
	counted := snap.Counter("iterations_recovered") +
		snap.Counter("iterations_lost") +
		snap.Counter("iterations_abandoned")
	if counted != uint64(total) {
		t.Fatalf("telemetry counted %d outcomes, dataset has %d", counted, total)
	}
}

// TestSweepArmsRaceDimensions: adversary posture and countermeasure
// bundle are sweep matrix dimensions — "off" adds no scenario-name
// segment, armed cells get adv=/cm= segments, only a countermeasure
// abandons an iteration, the expansion is reproducible, and the
// arms-race preset resolves.
func TestSweepArmsRaceDimensions(t *testing.T) {
	ctx := context.Background()
	m := searchads.SweepMatrix{
		EngineSets:       [][]string{{searchads.Bing}},
		QueriesPerEngine: 6,
		Seeds:            []int64{1},
		FaultProfiles:    []string{"bot-hostile"},
		FaultRates:       []float64{0.05},
		Adversaries:      []string{"off", "strict"},
		Countermeasures:  []string{"off", "full"},
	}
	run := func() ([]byte, *searchads.SweepResult) {
		res, err := searchads.Sweep(ctx, m, searchads.SweepOptions{Parallel: 2})
		if err != nil {
			t.Fatal(err)
		}
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
		t.Fatal("arms-race sweep not reproducible")
	}
	if len(res.Cells) != 4 {
		t.Fatalf("cells = %d, want 4 (2 postures × 2 bundles)", len(res.Cells))
	}
	var sawBaseline, sawArmed bool
	for _, c := range res.Cells {
		if c.Err != "" {
			t.Fatalf("cell %s failed: %s", c.Scenario, c.Err)
		}
		switch {
		case !strings.Contains(c.Scenario, "adv=") && !strings.Contains(c.Scenario, "cm="):
			sawBaseline = true
			if c.Outcomes["abandoned"] != 0 {
				t.Fatalf("cell %s: abandoned iterations %v without countermeasures", c.Scenario, c.Outcomes)
			}
		case strings.Contains(c.Scenario, "adv=strict") && strings.Contains(c.Scenario, "cm=full"):
			sawArmed = true
			if len(c.Outcomes) == 0 {
				t.Fatalf("cell %s: no outcome counts with the adversary armed", c.Scenario)
			}
		}
	}
	if !sawBaseline || !sawArmed {
		t.Fatalf("dimension expansion incomplete: baseline=%v armed=%v", sawBaseline, sawArmed)
	}

	preset, err := searchads.SweepPreset("arms-race")
	if err != nil {
		t.Fatal(err)
	}
	if len(preset.Adversaries) == 0 || len(preset.Countermeasures) == 0 {
		t.Fatalf("arms-race preset lacks the new dimensions: %+v", preset)
	}
}
