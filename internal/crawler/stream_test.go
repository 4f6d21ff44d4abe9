package crawler

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"searchads/internal/websim"
)

// collectStream ranges Iterations, returning the yielded iterations and
// the terminal error (nil when the stream completed).
func collectStream(ctx context.Context, c *Crawler, limit int) ([]*Iteration, error) {
	var got []*Iteration
	for it, err := range c.Iterations(ctx) {
		if err != nil {
			return got, err
		}
		got = append(got, it)
		if limit > 0 && len(got) == limit {
			break
		}
	}
	return got, nil
}

// TestIterationsMatchesRunDataset: the stream is the dataset, in
// dataset order, for sequential and parallel crawls alike.
func TestIterationsMatchesRunDataset(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		w := websim.NewWorld(websim.Config{Seed: 404, QueriesPerEngine: 4})
		ds, err := New(Config{World: w, Parallel: parallel}).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		w2 := websim.NewWorld(websim.Config{Seed: 404, QueriesPerEngine: 4})
		got, err := collectStream(context.Background(), New(Config{World: w2, Parallel: parallel}), 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(ds.Iterations) {
			t.Fatalf("parallel=%v: stream yielded %d iterations, dataset has %d",
				parallel, len(got), len(ds.Iterations))
		}
		for i := range got {
			if got[i].Instance != ds.Iterations[i].Instance || got[i].FinalURL != ds.Iterations[i].FinalURL {
				t.Fatalf("parallel=%v: stream diverges from dataset order at %d: %s != %s",
					parallel, i, got[i].Instance, ds.Iterations[i].Instance)
			}
		}
	}
}

// TestRunChainsMatchesRunDataset: the fold-only crawl visits every
// iteration of the dataset exactly once, sequential and Parallel alike,
// tagged with its engine's chain index and its dataset position, each
// chain in index order, and with a worker index below the pool width
// (0 when sequential, which also visits in dataset order) whose calls
// never overlap. Each lent iteration is encoded during its visit, the
// only time it is valid. Config errors and a canceled context come back
// before any visit.
func TestRunChainsMatchesRunDataset(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	cfg := websim.Config{Seed: 404, QueriesPerEngine: 4}
	ds, err := New(Config{World: websim.NewWorld(cfg)}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, parallel := range []bool{false, true} {
		c := New(Config{World: websim.NewWorld(cfg), Parallel: parallel})
		got := make([][]byte, len(ds.Iterations))
		last := make([]int, len(c.Engines())) // per chain: last seq visited + 1
		busy := make([]bool, 2)               // per worker: inside a visit
		next := 0                             // sequential: the next seq in dataset order
		err = c.RunChains(context.Background(), func(worker, chain, seq int, it *Iteration) {
			if worker < 0 || worker >= len(busy) || busy[worker] || (!parallel && (worker != 0 || seq != next)) {
				t.Errorf("parallel=%v: visit(seq %d) on worker %d: outside the pool, overlapping its previous call or out of order", parallel, seq, worker)
				return
			}
			busy[worker] = true
			defer func() { busy[worker] = false }()
			if c.Engines()[chain] != it.Engine || seq < last[chain] || got[seq] != nil {
				t.Errorf("parallel=%v: visit(chain %d, seq %d, %s) out of chain order", parallel, chain, seq, it.Instance)
				return
			}
			last[chain] = seq + 1
			if !parallel {
				next++
			}
			got[seq], _ = AppendIteration(nil, it)
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, it := range ds.Iterations {
			if got[i] == nil {
				t.Fatalf("parallel=%v: seq %d (%s) never visited", parallel, i, it.Instance)
			}
			want, _ := AppendIteration(nil, it)
			if string(got[i]) != string(want) {
				t.Fatalf("parallel=%v: seq %d: lent iteration %s differs from the dataset's", parallel, i, it.Instance)
			}
		}
	}

	visit := func(_, _, _ int, it *Iteration) { t.Errorf("visited %s", it.Instance) }
	for _, parallel := range []bool{false, true} {
		if err := New(Config{World: websim.NewWorld(cfg), Engines: []string{"askjeeves"}, Parallel: parallel}).RunChains(context.Background(), visit); !errors.Is(err, ErrUnknownEngine) {
			t.Fatalf("parallel=%v: RunChains(unknown engine) = %v, want ErrUnknownEngine", parallel, err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if err := New(Config{World: websim.NewWorld(cfg), Parallel: parallel}).RunChains(ctx, visit); !errors.Is(err, context.Canceled) {
			t.Fatalf("parallel=%v: RunChains(canceled) = %v, want context.Canceled", parallel, err)
		}
	}
}

// TestIterationsUnknownEngine: config errors surface as the stream's
// terminal error and wrap ErrUnknownEngine.
func TestIterationsUnknownEngine(t *testing.T) {
	w := websim.NewWorld(websim.Config{Seed: 1, QueriesPerEngine: 2})
	got, err := collectStream(context.Background(), New(Config{World: w, Engines: []string{"askjeeves"}}), 0)
	if err == nil || !errors.Is(err, ErrUnknownEngine) {
		t.Fatalf("err = %v, want ErrUnknownEngine", err)
	}
	if len(got) != 0 {
		t.Fatalf("stream yielded %d iterations before the config error", len(got))
	}
}

// TestIterationsCancelYieldsDeterministicPrefix: canceling after n
// yields means the consumer saw exactly the first n iterations of the
// full deterministic crawl, then ctx.Err() — for sequential and
// parallel crawls alike.
func TestIterationsCancelYieldsDeterministicPrefix(t *testing.T) {
	w := websim.NewWorld(websim.Config{Seed: 405, QueriesPerEngine: 5})
	full, err := New(Config{World: w}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	const n = 7
	for _, parallel := range []bool{false, true} {
		ctx, cancel := context.WithCancel(context.Background())
		w2 := websim.NewWorld(websim.Config{Seed: 405, QueriesPerEngine: 5})
		var got []*Iteration
		var streamErr error
		for it, err := range New(Config{World: w2, Parallel: parallel}).Iterations(ctx) {
			if err != nil {
				streamErr = err
				break
			}
			got = append(got, it)
			if len(got) == n {
				cancel()
			}
		}
		cancel()
		if streamErr == nil || !errors.Is(streamErr, context.Canceled) {
			t.Fatalf("parallel=%v: stream ended with %v, want context.Canceled", parallel, streamErr)
		}
		if len(got) != n {
			t.Fatalf("parallel=%v: got %d iterations after cancel at %d", parallel, len(got), n)
		}
		for i := range got {
			if got[i].Instance != full.Iterations[i].Instance {
				t.Fatalf("parallel=%v: canceled stream diverges at %d: %s != %s",
					parallel, i, got[i].Instance, full.Iterations[i].Instance)
			}
		}
	}
}

// TestRunCancelPromptAndLeakFree: a canceled Run returns ctx.Err()
// promptly (bounded by the in-flight iterations) and leaves no worker
// goroutines behind — for the pool path especially.
func TestRunCancelPromptAndLeakFree(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		before := runtime.NumGoroutine()
		w := websim.NewWorld(websim.Config{Seed: 406, QueriesPerEngine: 30})
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // already canceled: Run must not crawl the world dry
		ds, err := New(Config{World: w, Parallel: parallel}).Run(ctx)
		if ds != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("parallel=%v: Run under canceled ctx = (%v, %v)", parallel, ds, err)
		}
		// The pool must have drained: allow the runtime a moment to
		// retire exiting goroutines, then compare against the baseline.
		leakFree := false
		for i := 0; i < 50; i++ {
			if runtime.NumGoroutine() <= before {
				leakFree = true
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		if !leakFree {
			t.Fatalf("parallel=%v: goroutines %d > baseline %d after canceled Run",
				parallel, runtime.NumGoroutine(), before)
		}
	}
}

// TestIterationsEarlyBreakReclaimsPool: breaking out of the range
// mid-crawl stops the parallel pool without leaking goroutines.
func TestIterationsEarlyBreakReclaimsPool(t *testing.T) {
	before := runtime.NumGoroutine()
	w := websim.NewWorld(websim.Config{Seed: 407, QueriesPerEngine: 10})
	got, err := collectStream(context.Background(), New(Config{World: w, Parallel: true}), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("collected %d iterations, want 3", len(got))
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
		t.Fatalf("goroutines %d > baseline %d after early break", runtime.NumGoroutine(), before)
	}
}
