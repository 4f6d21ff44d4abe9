package sweep_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"searchads/internal/checkpoint"
	"searchads/internal/crawler"
	"searchads/internal/storage"
	"searchads/internal/sweep"
)

// ckptMatrix is the small 4-cell matrix the kill/resume tests sweep:
// 2 seeds × 2 storage modes, a few iterations per engine.
func ckptMatrix() sweep.Matrix {
	return sweep.Matrix{
		Seeds:            []int64{21, 22},
		Storage:          []storage.Mode{storage.Flat, storage.Partitioned},
		EngineSets:       [][]string{{"bing", "google"}},
		QueriesPerEngine: 4,
	}
}

// deterministicBytes serializes the parts of a sweep result the
// byte-identity guarantee covers: cells, aggregates, and metric names.
// Parallelism and PeakRetainedIterations are runtime observations — a
// resumed sweep legitimately reports its own.
func deterministicBytes(t *testing.T, res *sweep.Result) []byte {
	t.Helper()
	data, err := json.Marshal(struct {
		Cells     []sweep.CellResult
		Scenarios []sweep.ScenarioAggregate
		Metrics   []string
	}{res.Cells, res.Scenarios, res.Metrics})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSweepKillResumeByteIdentical kills a checkpointed sweep at random
// iteration boundaries (via the OnIteration hook), resumes it with a
// freshly rolled parallelism, and repeats until a run completes: the
// final cells and aggregates must equal the uninterrupted sweep's byte
// for byte, and each cell must have reported exactly once across all
// rounds — completed cells are skipped, not re-run. A kill that lands
// after the last cell finished cancels nothing: that round returns nil
// and removes its checkpoint like any completed sweep.
func TestSweepKillResumeByteIdentical(t *testing.T) {
	m := ckptMatrix()
	want, err := sweep.Run(context.Background(), m, sweep.Options{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := deterministicBytes(t, want)

	gen := rand.New(rand.NewSource(20231001))
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	reported := make(map[string]int)
	var res *sweep.Result
	kills := 0
	for round := 0; ; round++ {
		if round > 60 {
			t.Fatal("kill/resume loop does not converge")
		}
		ctx, cancel := context.WithCancel(context.Background())
		var mu sync.Mutex
		n, kill := 0, 1+gen.Intn(10)
		opts := sweep.Options{
			Parallel:        1 + gen.Intn(3),
			Checkpoint:      path,
			CheckpointEvery: 1 + gen.Intn(5),
			OnIteration: func(sweep.Cell, *crawler.Iteration) {
				mu.Lock()
				if n++; n == kill {
					cancel()
				}
				mu.Unlock()
			},
			OnCellDone: func(done, total int, c sweep.Cell, err error) {
				if err == nil {
					reported[fmt.Sprintf("%s/%d", c.Scenario, c.Seed)]++
				}
			},
		}
		r, err := sweep.Run(ctx, m, opts)
		cancel()
		if err == nil {
			res = r
			break
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("round %d: %v", round, err)
		}
		kills++
		if _, statErr := os.Stat(path); statErr != nil {
			t.Fatalf("round %d: killed sweep left no checkpoint: %v", round, statErr)
		}
	}
	if !bytes.Equal(deterministicBytes(t, res), wantBytes) {
		t.Fatalf("resumed sweep (%d kills) diverges from the uninterrupted sweep", kills)
	}
	for key, n := range reported {
		if n != 1 {
			t.Fatalf("cell %s completed %d times across resume rounds, want exactly 1", key, n)
		}
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("checkpoint survived a completed sweep: %v", err)
	}
	if kills == 0 {
		t.Log("sweep completed without a kill — raise the matrix size if this recurs")
	}
}

// TestSweepCheckpointOffByteIdentical pins the no-regression guarantee
// at the sweep layer: checkpointing an uninterrupted sweep changes no
// deterministic output byte.
func TestSweepCheckpointOffByteIdentical(t *testing.T) {
	m := ckptMatrix()
	plain, err := sweep.Run(context.Background(), m, sweep.Options{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	ckpt, err := sweep.Run(context.Background(), m, sweep.Options{Parallel: 2, Checkpoint: path, CheckpointEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(deterministicBytes(t, plain), deterministicBytes(t, ckpt)) {
		t.Fatal("checkpointing changed sweep output bytes")
	}
}

// TestSweepCheckpointMismatch pins the identity contract: a checkpoint
// from a different matrix refuses to resume, a damaged file surfaces
// the corrupt sentinel, and a study checkpoint is not a sweep's.
func TestSweepCheckpointMismatch(t *testing.T) {
	m := ckptMatrix()
	path := filepath.Join(t.TempDir(), "sweep.ckpt")

	ctx, cancel := context.WithCancel(context.Background())
	var mu sync.Mutex
	n := 0
	_, err := sweep.Run(ctx, m, sweep.Options{
		Parallel:   1,
		Checkpoint: path,
		OnIteration: func(sweep.Cell, *crawler.Iteration) {
			mu.Lock()
			if n++; n == 3 {
				cancel()
			}
			mu.Unlock()
		},
	})
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("kill run: %v", err)
	}

	other := m
	other.Seeds = []int64{99}
	if _, err := sweep.Run(context.Background(), other, sweep.Options{Checkpoint: path}); !errors.Is(err, checkpoint.ErrCheckpointMismatch) {
		t.Fatalf("different matrix: got %v, want ErrCheckpointMismatch", err)
	}

	study := &checkpoint.Snapshot{Kind: "study", ConfigHash: "somehash", Study: &checkpoint.StudyState{Cursor: map[string]int{}}}
	if err := checkpoint.Save(path, study); err != nil {
		t.Fatal(err)
	}
	if _, err := sweep.Run(context.Background(), m, sweep.Options{Checkpoint: path}); !errors.Is(err, checkpoint.ErrCheckpointMismatch) {
		t.Fatalf("study checkpoint: got %v, want ErrCheckpointMismatch", err)
	}

	if err := os.WriteFile(path, []byte("definitely not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := sweep.Run(context.Background(), m, sweep.Options{Checkpoint: path}); !errors.Is(err, checkpoint.ErrCheckpointCorrupt) {
		t.Fatalf("damaged checkpoint: got %v, want ErrCheckpointCorrupt", err)
	}
}
