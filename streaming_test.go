package searchads_test

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"searchads"
)

// TestIterationsReplaysCachedDataset: after Crawl, the stream replays
// the cached dataset (same pointers, dataset order) instead of
// re-crawling.
func TestIterationsReplaysCachedDataset(t *testing.T) {
	ctx := context.Background()
	study := searchads.NewStudy(searchads.Config{
		Seed: 515, Engines: []string{searchads.Qwant}, QueriesPerEngine: 4,
	})
	ds, err := study.Crawl(ctx)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for it, err := range study.Iterations(ctx) {
		if err != nil {
			t.Fatal(err)
		}
		if it != ds.Iterations[i] {
			t.Fatalf("replayed iteration %d is not the cached one", i)
		}
		i++
	}
	if i != len(ds.Iterations) {
		t.Fatalf("replay yielded %d of %d iterations", i, len(ds.Iterations))
	}
}

// TestStudyCancelFirstN: canceling a study's stream after n iterations
// yields exactly the first n deterministic iterations, the terminal
// error matches both ErrCanceled and context.Canceled, and the study
// recovers — the next Crawl rebuilds the world and produces the exact
// fresh-study dataset.
func TestStudyCancelFirstN(t *testing.T) {
	cfg := searchads.Config{
		Seed: 3030, Engines: []string{searchads.Bing, searchads.StartPage}, QueriesPerEngine: 5,
	}
	full, err := searchads.NewStudy(cfg).Crawl(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	const n = 6
	study := searchads.NewStudy(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var got []*searchads.Iteration
	var streamErr error
	for it, err := range study.Iterations(ctx) {
		if err != nil {
			streamErr = err
			break
		}
		got = append(got, it)
		if len(got) == n {
			cancel()
		}
	}
	if streamErr == nil || !errors.Is(streamErr, searchads.ErrCanceled) || !errors.Is(streamErr, context.Canceled) {
		t.Fatalf("stream ended with %v, want ErrCanceled wrapping context.Canceled", streamErr)
	}
	if len(got) != n {
		t.Fatalf("canceled stream yielded %d iterations, want %d", len(got), n)
	}
	for i := range got {
		if got[i].Instance != full.Iterations[i].Instance || got[i].FinalURL != full.Iterations[i].FinalURL {
			t.Fatalf("canceled stream diverges from the deterministic crawl at %d", i)
		}
	}

	// The partially-consumed world is rebuilt: a later Crawl on the
	// same study is byte-identical to a fresh one.
	ds, err := study.Crawl(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Iterations) != len(full.Iterations) {
		t.Fatalf("recovered crawl has %d iterations, want %d", len(ds.Iterations), len(full.Iterations))
	}
	for i := range ds.Iterations {
		if ds.Iterations[i].FinalURL != full.Iterations[i].FinalURL {
			t.Fatalf("recovered crawl diverges from a fresh study at %d", i)
		}
	}
}

// TestCrawlCancelNoLeak: Study.Crawl under a canceled context returns
// promptly with ErrCanceled, caches nothing, and leaks no goroutines.
func TestCrawlCancelNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	study := searchads.NewStudy(searchads.Config{
		Seed: 88, QueriesPerEngine: 10, Parallel: true,
	})
	if ds, err := study.Crawl(ctx); ds != nil || !errors.Is(err, searchads.ErrCanceled) {
		t.Fatalf("Crawl under canceled ctx = (%v, %v)", ds, err)
	}
	// A fresh context must succeed afterwards.
	ds, err := study.Crawl(context.Background())
	if err != nil || len(ds.Iterations) != 50 {
		t.Fatalf("recovery crawl = (%d iterations, %v)", len(ds.Iterations), err)
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
		t.Fatalf("goroutines %d > baseline %d after canceled Crawl", runtime.NumGoroutine(), before)
	}
}

// TestParallelAnalyzeCancelNoLeak: a Parallel AnalyzeWith folding a
// live crawl on its pool, canceled before the crawl starts or midway,
// returns an error wrapping ErrCanceled and ctx.Err(), caches no
// report, and leaks no goroutines; a later Analyze with a fresh context
// is byte-identical to the sequential report.
func TestParallelAnalyzeCancelNoLeak(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	cfg := searchads.Config{Seed: 88, QueriesPerEngine: 10}
	seq, err := searchads.NewStudy(cfg).Analyze(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := mustJSON(t, seq)
	total := uint64(len(searchads.AllEngines()) * cfg.QueriesPerEngine)

	for _, mid := range []bool{false, true} {
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		par := cfg
		par.Parallel = true
		par.Telemetry = searchads.NewTelemetry()
		if mid {
			// The crawl's own event trace cancels it: the tenth event is
			// emitted on a pool worker a few iterations in.
			par.Telemetry.SetSink(&cancelAfter{n: 10, cancel: cancel})
		} else {
			cancel()
		}
		study := searchads.NewStudy(par)
		rep, err := study.Analyze(ctx)
		if rep != nil || !errors.Is(err, searchads.ErrCanceled) || !errors.Is(err, ctx.Err()) {
			t.Fatalf("mid=%v: Analyze under canceled ctx = (%v, %v)", mid, rep, err)
		}
		if n := par.Telemetry.Snapshot().Counter("iterations"); mid && (n == 0 || n >= total) {
			t.Fatalf("mid=%v: canceled after %d of %d iterations, want a mid-crawl cancel", mid, n, total)
		}
		par.Telemetry.SetSink(nil)
		cancel()

		// Nothing was cached: a fresh context re-crawls from scratch.
		rep, err = study.Analyze(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(mustJSON(t, rep), want) {
			t.Fatalf("mid=%v: recovered Parallel report differs from sequential", mid)
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
			t.Fatalf("mid=%v: goroutines %d > baseline %d after canceled Analyze", mid, runtime.NumGoroutine(), before)
		}
	}
}

// cancelAfter is an event-trace writer that cancels its context at the
// n-th event line.
type cancelAfter struct {
	n      int
	cancel context.CancelFunc
}

func (w *cancelAfter) Write(p []byte) (int, error) {
	if w.n--; w.n == 0 {
		w.cancel()
	}
	return len(p), nil
}

// TestAnalyzeWithDifferentOptionsErrors: the second AnalyzeWith with
// different options must fail typed (ErrReportCached), not silently
// return a report computed with the first call's options.
func TestAnalyzeWithDifferentOptionsErrors(t *testing.T) {
	ctx := context.Background()
	study := searchads.NewStudy(searchads.Config{
		Seed: 92, Engines: []string{searchads.Google}, QueriesPerEngine: 3,
	})
	if _, err := study.Analyze(ctx); err != nil {
		t.Fatal(err)
	}
	_, err := study.AnalyzeWith(ctx, searchads.AnalysisOptions{Filter: searchads.DefaultFilterEngine()})
	if !errors.Is(err, searchads.ErrReportCached) {
		t.Fatalf("AnalyzeWith(different options) = %v, want ErrReportCached", err)
	}
	// Same options still hit the cache.
	r1, err := study.Analyze(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if r2, err := study.AnalyzeWith(ctx, searchads.AnalysisOptions{}); err != nil || r2 != r1 {
		t.Fatalf("AnalyzeWith(same options) = (%p, %v), want cached %p", r2, err, r1)
	}
}

// TestSentinelErrors: unknown engines surface through errors.Is at
// every entry point.
func TestSentinelErrors(t *testing.T) {
	ctx := context.Background()
	cfg := searchads.Config{Seed: 5, Engines: []string{"gogle"}, QueriesPerEngine: 2}
	if _, err := searchads.NewStudy(cfg).Crawl(ctx); !errors.Is(err, searchads.ErrUnknownEngine) {
		t.Fatalf("Crawl = %v, want ErrUnknownEngine", err)
	}
	if _, err := searchads.NewStudy(cfg).Analyze(ctx); !errors.Is(err, searchads.ErrUnknownEngine) {
		t.Fatalf("Analyze = %v, want ErrUnknownEngine", err)
	}
	var streamErr error
	for _, err := range searchads.NewStudy(cfg).Iterations(ctx) {
		if err != nil {
			streamErr = err
			break
		}
	}
	if !errors.Is(streamErr, searchads.ErrUnknownEngine) {
		t.Fatalf("Iterations = %v, want ErrUnknownEngine", streamErr)
	}
	m := searchads.SweepMatrix{EngineSets: [][]string{{"gogle"}}, QueriesPerEngine: 2}
	if _, err := searchads.Sweep(ctx, m, searchads.SweepOptions{}); !errors.Is(err, searchads.ErrUnknownEngine) {
		t.Fatalf("Sweep = %v, want ErrUnknownEngine through the joined cell errors", err)
	}
}

// TestSweepCanceledWrapsErrCanceled: the facade tags a canceled sweep
// with ErrCanceled on top of context.Canceled.
func TestSweepCanceledWrapsErrCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := searchads.SweepMatrix{Seeds: []int64{1, 2}, EngineSets: [][]string{{"bing"}}, QueriesPerEngine: 2}
	_, err := searchads.Sweep(ctx, m, searchads.SweepOptions{Parallel: 1})
	if !errors.Is(err, searchads.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Sweep = %v, want ErrCanceled wrapping context.Canceled", err)
	}
}
