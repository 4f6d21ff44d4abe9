package sweep_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"searchads/internal/crawler"
	"searchads/internal/storage"
	"searchads/internal/sweep"
	"searchads/internal/telemetry"
)

// gridMatrix is 16 cells over 4 seeds: every seed's web is crawled under
// four browser set-ups (storage × crawl-time filter).
func gridMatrix() sweep.Matrix {
	return sweep.Matrix{
		Seeds:            []int64{41, 42, 43, 44},
		Storage:          []storage.Mode{storage.Flat, storage.Partitioned},
		FilterAnnotate:   []bool{false, true},
		EngineSets:       [][]string{{"bing", "duckduckgo"}},
		QueriesPerEngine: 2,
		SkipRevisit:      true,
	}
}

// TestSweepDerivesOncePerSeed pins world reuse in the run's own
// telemetry: a 16-cell, 4-seed sweep derives 4 seeded webs and
// instantiates 16 worlds, and attaching the registry changes no byte.
func TestSweepDerivesOncePerSeed(t *testing.T) {
	m := gridMatrix()
	tele := telemetry.New()
	res, err := sweep.Run(context.Background(), m, sweep.Options{Parallel: 3, Telemetry: tele})
	if err != nil {
		t.Fatal(err)
	}
	snap := tele.Snapshot()
	if got := snap.Counter(telemetry.CounterWorldDerivations.String()); got != 4 {
		t.Errorf("world_derivations = %d, want 4", got)
	}
	if got := snap.Counter(telemetry.CounterWorldInstantiations.String()); got != 16 {
		t.Errorf("world_instantiations = %d, want 16", got)
	}
	plain, err := sweep.Run(context.Background(), m, sweep.Options{Parallel: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(deterministicBytes(t, res), deterministicBytes(t, plain)) {
		t.Fatal("attached telemetry changed sweep output bytes")
	}
}

// TestSweepReportTelemetryByteIdentical: a sweep with telemetry attached
// times each cell's analysis Report — exactly one analysis_report
// sample per cell — and its results are byte-identical to the same
// sweep run without telemetry.
func TestSweepReportTelemetryByteIdentical(t *testing.T) {
	m := gridMatrix()
	m.Seeds = m.Seeds[:2]
	tele := telemetry.New()
	res, err := sweep.Run(context.Background(), m, sweep.Options{Parallel: 2, Telemetry: tele})
	if err != nil {
		t.Fatal(err)
	}
	tail, ok := tele.Snapshot().StageByName(telemetry.StageAnalysisReport.String())
	if !ok {
		t.Fatal("snapshot has no analysis_report stage")
	}
	if tail.Wall.Count != uint64(len(res.Cells)) {
		t.Errorf("analysis_report recorded %d samples for %d cells", tail.Wall.Count, len(res.Cells))
	}
	plain, err := sweep.Run(context.Background(), m, sweep.Options{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(deterministicBytes(t, res), deterministicBytes(t, plain)) {
		t.Fatal("attached telemetry changed sweep output bytes")
	}
}

// TestSweepCancelKeepsCellBytes cancels checkpointed sweeps at random
// iteration points with re-rolled pool widths. Grouped dispatch shares
// one blueprint across a seed's cells and releases it as soon as the
// last of them is done — early, when a cancel skips the rest — and
// neither may change a byte: every cell that completed must equal the
// uninterrupted sweep's cell. The returned error and the checkpoint on
// disk must agree on whether the sweep completed.
func TestSweepCancelKeepsCellBytes(t *testing.T) {
	m := gridMatrix()
	want, err := sweep.Run(context.Background(), m, sweep.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, cr := range want.Cells {
		total += cr.Iterations
	}
	gen := rand.New(rand.NewSource(20231016))
	dir := t.TempDir()
	for round := 0; round < 12; round++ {
		path := filepath.Join(dir, "sweep.ckpt")
		ctx, cancel := context.WithCancel(context.Background())
		var mu sync.Mutex
		// Half the rounds cancel near the end, where a cancel can land
		// after the last cell finished; past total it never lands.
		n, kill := 0, 1+gen.Intn(total+2)
		if round%2 == 1 {
			kill = total - gen.Intn(3)
		}
		res, err := sweep.Run(ctx, m, sweep.Options{
			Parallel:   1 + gen.Intn(3),
			Checkpoint: path,
			OnIteration: func(sweep.Cell, *crawler.Iteration) {
				mu.Lock()
				if n++; n == kill {
					cancel()
				}
				mu.Unlock()
			},
		})
		cancel()
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("round %d: %v", round, err)
		}
		if (err == nil) != (res.CellErrors == 0) {
			t.Fatalf("round %d: err = %v with %d cell errors", round, err, res.CellErrors)
		}
		_, statErr := os.Stat(path)
		if exists := statErr == nil; exists == (err == nil) {
			t.Fatalf("round %d: err = %v but checkpoint exists = %v", round, err, exists)
		}
		for i, cr := range res.Cells {
			if cr.Err != "" {
				continue
			}
			got, _ := json.Marshal(cr)
			exp, _ := json.Marshal(want.Cells[i])
			if !bytes.Equal(got, exp) {
				t.Fatalf("round %d (kill at %d): cell %s seed=%d differs from the uninterrupted sweep",
					round, kill, cr.Scenario, cr.Seed)
			}
		}
		if err := os.RemoveAll(path); err != nil {
			t.Fatal(err)
		}
	}
}
