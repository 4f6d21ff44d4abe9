package crawler_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	. "searchads/internal/crawler"
	"searchads/internal/detrand"
	"searchads/internal/websim"
)

// worldCfg is the shared small-study shape the resume tests crawl.
var worldCfg = websim.Config{Seed: 314, QueriesPerEngine: 6}

// TestResumeByteIdenticalAtEveryCut is the crash-recovery contract at
// the crawler layer: for every possible kill point k, a fresh world
// resumed from the first k iterations must emit exactly the iterations
// the uninterrupted crawl emits after position k. Identifier streams
// are keyed by (engine, iteration) labels and the only accumulated
// state — the unvisited-first ad-choice sets — travels in ResumeState,
// so skipping is re-derivation, not replay.
func TestResumeByteIdenticalAtEveryCut(t *testing.T) {
	full := run(t, Config{World: websim.NewWorld(worldCfg)})
	want := marshal(t, full)
	for k := 0; k <= len(full.Iterations); k++ {
		resumed := run(t, Config{
			World:  websim.NewWorld(worldCfg),
			Resume: ResumeFromIterations(full.Iterations[:k]),
		})
		got := append([]*Iteration{}, full.Iterations[:k]...)
		got = append(got, resumed.Iterations...)
		stitched := full // reuse the metadata shell; only Iterations differ
		orig := stitched.Iterations
		stitched.Iterations = got
		data := marshal(t, stitched)
		stitched.Iterations = orig
		if !bytes.Equal(data, want) {
			t.Fatalf("resume at k=%d diverges from the uninterrupted crawl", k)
		}
	}
}

// TestResumeParallelMatchesSequential checks that a resumed crawl may
// switch parallelism freely: the tail is byte-identical whether the
// killed run and the resumed run use the worker pool or not.
func TestResumeParallelMatchesSequential(t *testing.T) {
	full := run(t, Config{World: websim.NewWorld(worldCfg)})
	k := len(full.Iterations) / 2
	rs := ResumeFromIterations(full.Iterations[:k])
	seq := run(t, Config{World: websim.NewWorld(worldCfg), Resume: rs})
	par := run(t, Config{World: websim.NewWorld(worldCfg), Resume: rs, Parallel: true})
	if !bytes.Equal(marshal(t, seq), marshal(t, par)) {
		t.Fatal("resumed parallel tail differs from resumed sequential tail")
	}
	if len(seq.Iterations) != len(full.Iterations)-k {
		t.Fatalf("resumed crawl emitted %d iterations, want %d", len(seq.Iterations), len(full.Iterations)-k)
	}
}

// TestResumeRandomCuts drives the same property across random worlds,
// cut points, and parallelism — the crawler half of the kill-point
// chaos harness.
func TestResumeRandomCuts(t *testing.T) {
	gen := detrand.New(20230601).Rand()
	for trial := 0; trial < 6; trial++ {
		cfg := websim.Config{Seed: int64(100 + trial), QueriesPerEngine: 3 + gen.Intn(4)}
		full := run(t, Config{World: websim.NewWorld(cfg)})
		k := gen.Intn(len(full.Iterations) + 1)
		parallel := gen.Intn(2) == 1
		resumed := run(t, Config{
			World:    websim.NewWorld(cfg),
			Resume:   ResumeFromIterations(full.Iterations[:k]),
			Parallel: parallel,
		})
		tail := full.Iterations[k:]
		if len(resumed.Iterations) != len(tail) {
			t.Fatalf("trial %d: resumed %d iterations, want %d", trial, len(resumed.Iterations), len(tail))
		}
		stitched := *full
		stitched.Iterations = append(append([]*Iteration{}, full.Iterations[:k]...), resumed.Iterations...)
		if !bytes.Equal(marshal(t, &stitched), marshal(t, full)) {
			t.Fatalf("trial %d (seed=%d k=%d parallel=%v): resumed tail diverges", trial, cfg.Seed, k, parallel)
		}
	}
}

// TestResumeCursorMismatch pins the typed failure mode: a cursor that
// does not fit the plan (unknown engine, count past the chain) is a
// configuration mismatch, reported before any iteration is crawled.
func TestResumeCursorMismatch(t *testing.T) {
	cases := []*ResumeState{
		{Done: map[string]int{"altavista": 1}},
		{Done: map[string]int{"bing": 999}},
		{Done: map[string]int{"bing": 1}, Visited: map[string][]string{"lycos": {"a.example"}}},
	}
	for i, rs := range cases {
		_, err := New(Config{World: websim.NewWorld(worldCfg), Resume: rs}).Run(context.Background())
		if err == nil {
			t.Fatalf("case %d: bad resume cursor accepted", i)
		}
		if !strings.Contains(err.Error(), "resume") {
			t.Fatalf("case %d: error does not name the resume cursor: %v", i, err)
		}
	}
}

// TestInstancesDistinct pins, from the crawl side, the contract the
// §3.2 classifier folds under: each iteration runs in its own browser
// instance, so no Instance recurs — in a sequential crawl, a Parallel
// one, or a crawl killed part-way and resumed in a fresh world.
func TestInstancesDistinct(t *testing.T) {
	check := func(name string, its []*Iteration) {
		t.Helper()
		seen := make(map[string]int, len(its))
		for i, it := range its {
			if j, dup := seen[it.Instance]; dup {
				t.Fatalf("%s crawl: iterations %d and %d share instance %q", name, j, i, it.Instance)
			}
			seen[it.Instance] = i
		}
	}
	full := run(t, Config{World: websim.NewWorld(worldCfg)})
	check("sequential", full.Iterations)
	check("Parallel", run(t, Config{World: websim.NewWorld(worldCfg), Parallel: true}).Iterations)

	k := len(full.Iterations) / 2
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var killed []*Iteration
	for it, err := range New(Config{World: websim.NewWorld(worldCfg), Parallel: true}).Iterations(ctx) {
		if err != nil {
			break
		}
		if killed = append(killed, it); len(killed) == k {
			cancel()
		}
	}
	if len(killed) != k {
		t.Fatalf("killed crawl emitted %d iterations, want %d", len(killed), k)
	}
	resumed := run(t, Config{World: websim.NewWorld(worldCfg), Resume: ResumeFromIterations(killed)})
	all := append(killed, resumed.Iterations...)
	if len(all) != len(full.Iterations) {
		t.Fatalf("killed and resumed crawl has %d iterations, want %d", len(all), len(full.Iterations))
	}
	check("killed and resumed", all)
}
