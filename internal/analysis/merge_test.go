package analysis

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"

	"searchads/internal/crawler"
	"searchads/internal/filterlist"
)

// reportBytes renders both forms of a report for byte comparison.
func reportBytes(t *testing.T, r *Report) []byte {
	t.Helper()
	j, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return append([]byte(r.Render()), j...)
}

// TestMergeEmptyAccumulators covers the degenerate shard shapes: empty
// into empty, empty into full, and full into empty all yield the
// unsharded report.
func TestMergeEmptyAccumulators(t *testing.T) {
	_, ds := report(t)
	want := reportBytes(t, AnalyzeWith(ds, Options{}))

	empty1, empty2 := NewAccumulator(Options{}), NewAccumulator(Options{})
	if err := empty1.Merge(empty2); err != nil {
		t.Fatalf("merging empty accumulators: %v", err)
	}
	if empty1.Len() != 0 {
		t.Fatalf("empty merge has %d iterations", empty1.Len())
	}
	blank := reportBytes(t, empty1.Report())
	if !bytes.Equal(blank, reportBytes(t, NewAccumulator(Options{}).Report())) {
		t.Fatal("empty-merge report differs from a fresh accumulator's")
	}

	full := NewAccumulator(Options{})
	for i, it := range ds.Iterations {
		full.AddAt(it, i)
	}
	if err := full.Merge(NewAccumulator(Options{})); err != nil {
		t.Fatalf("merging empty into full: %v", err)
	}
	if got := reportBytes(t, full.Report()); !bytes.Equal(got, want) {
		t.Fatal("full+empty merge changed the report")
	}

	intoEmpty := NewAccumulator(Options{})
	if err := intoEmpty.Merge(full); err != nil {
		t.Fatalf("merging full into empty: %v", err)
	}
	if got := reportBytes(t, intoEmpty.Report()); !bytes.Equal(got, want) {
		t.Fatal("empty+full merge does not reproduce the batch report")
	}
}

// TestMergeOptionsMismatch: accumulators built over different filter or
// entity engines refuse to merge with the typed error, and an
// accumulator cannot merge with itself.
func TestMergeOptionsMismatch(t *testing.T) {
	a := NewAccumulator(Options{})
	other := filterlist.NewEngine()
	other.AddList("x", "||tracker.example^\n")
	b := NewAccumulator(Options{Filter: other})
	if err := a.Merge(b); !errors.Is(err, ErrOptionsMismatch) {
		t.Fatalf("Merge across filter engines = %v, want ErrOptionsMismatch", err)
	}
	if err := a.Merge(a); err == nil {
		t.Fatal("self-merge must error")
	}
	// Two zero-option accumulators share the memoised defaults and do
	// merge.
	if err := a.Merge(NewAccumulator(Options{})); err != nil {
		t.Fatalf("zero-option accumulators failed to merge: %v", err)
	}
}

// TestMergeShardPartitionProperty is the Merge invariance property: ANY
// partition of the dataset's iterations across any number of shard
// accumulators — contiguous, round-robin, or uniformly random, merged
// in any order — produces a report byte-identical (rendered + JSON) to
// the sequential batch fold, as long as each AddAt carries the
// iteration's stream position.
func TestMergeShardPartitionProperty(t *testing.T) {
	_, ds := report(t)
	want := reportBytes(t, AnalyzeWith(ds, Options{}))
	rng := rand.New(rand.NewSource(421))

	assign := func(name string, shardOf func(i, shards int) int, shards int) {
		accs := make([]*Accumulator, shards)
		for k := range accs {
			accs[k] = NewAccumulator(Options{})
		}
		for i, it := range ds.Iterations {
			accs[shardOf(i, shards)].AddAt(it, i)
		}
		// Merge in a shuffled order to prove order-independence.
		order := rng.Perm(shards)
		dst := accs[order[0]]
		for _, k := range order[1:] {
			if err := dst.Merge(accs[k]); err != nil {
				t.Fatalf("%s shards=%d: merge: %v", name, shards, err)
			}
		}
		if dst.Len() != len(ds.Iterations) {
			t.Fatalf("%s shards=%d: merged Len = %d, want %d", name, shards, dst.Len(), len(ds.Iterations))
		}
		if got := reportBytes(t, dst.Report()); !bytes.Equal(got, want) {
			t.Fatalf("%s shards=%d: merged report differs from batch", name, shards)
		}
	}

	for shards := 2; shards <= 5; shards++ {
		n := len(ds.Iterations)
		assign("contiguous", func(i, s int) int { return min(i*s/n, s-1) }, shards)
		assign("round-robin", func(i, s int) int { return i % s }, shards)
		assign("random", func(i, s int) int { return rng.Intn(s) }, shards)
	}
}

// TestAddPathlessIteration: an iteration whose origin has no
// registrable site (hand-built or corrupted datasets) folds without
// panicking, keeping the legacy "" path key and touching no
// organisations — Path.Key()'s empty-path behavior.
func TestAddPathlessIteration(t *testing.T) {
	acc := NewAccumulator(Options{})
	acc.Add(&crawler.Iteration{Engine: "", FinalURL: "http://shop.example/landing"})
	rep := acc.Report()
	row := rep.Table1[""]
	if row.Queries != 1 {
		t.Fatalf("queries = %d, want 1", row.Queries)
	}
	d := rep.During[""]
	if len(d.TopPaths) != 1 || d.TopPaths[0].Label != "" {
		t.Fatalf("top paths = %+v, want the single empty key", d.TopPaths)
	}
	if len(d.OrgFractions) != 0 {
		t.Fatalf("pathless click touched organisations: %v", d.OrgFractions)
	}
}

// TestAnalyzeShardedByteIdentical: the parallel contiguous-range fold
// and the round-robin StreamSharder are byte-identical to AnalyzeWith
// for every shard count, including counts past the dataset size, and
// the sharder calls its folded hook once per iteration.
func TestAnalyzeShardedByteIdentical(t *testing.T) {
	_, ds := report(t)
	want := reportBytes(t, AnalyzeWith(ds, Options{}))
	for _, shards := range []int{0, 1, 2, 3, 7, len(ds.Iterations) + 5} {
		got, err := AnalyzeSharded(context.Background(), ds, Options{}, shards)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if !bytes.Equal(reportBytes(t, got), want) {
			t.Fatalf("shards=%d: sharded report differs from batch", shards)
		}

		var folded atomic.Int64
		sh := NewStreamSharder(Options{}, shards, func() { folded.Add(1) })
		for _, it := range ds.Iterations {
			sh.Add(it)
		}
		if got, err = sh.Finish(); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if !bytes.Equal(reportBytes(t, got), want) {
			t.Fatalf("shards=%d: streamed sharded report differs from batch", shards)
		}
		if n := folded.Load(); n != int64(len(ds.Iterations)) {
			t.Fatalf("shards=%d: folded hook ran %d times for %d iterations", shards, n, len(ds.Iterations))
		}
	}
}

// TestMergeVaryingEngineHost: when one engine's iterations carry
// different EngineHost values, the engine "site" must come from the
// globally first iteration whatever the shard split — the §4.1.1
// own-site cookie filter depends on it. Regression test for a Merge
// divergence where each shard filtered against its local first host.
func TestMergeVaryingEngineHost(t *testing.T) {
	its := varyingHostIterations()
	seq := NewAccumulator(Options{})
	for i, it := range its {
		seq.AddAt(it, i)
	}
	want := reportBytes(t, seq.Report())

	// One iteration per shard, merged in both orders.
	for _, order := range [][2]int{{0, 1}, {1, 0}} {
		accs := [2]*Accumulator{NewAccumulator(Options{}), NewAccumulator(Options{})}
		for i, it := range its {
			accs[i].AddAt(it, i)
		}
		dst := accs[order[0]]
		if err := dst.Merge(accs[order[1]]); err != nil {
			t.Fatal(err)
		}
		if got := reportBytes(t, dst.Report()); !bytes.Equal(got, want) {
			t.Fatalf("merge order %v: report differs from sequential fold", order)
		}
	}
	// And the sequential verdict itself: cookies on tracker.example are
	// not on bing.com, so the engine must not be reported as storing
	// user IDs.
	if seq.Report().Before["bing"].StoresUserIDs {
		t.Fatal("own-site filter leaked a foreign-site cookie")
	}
}

// varyingHostIterations are two bing iterations whose EngineHost
// differs, both with a SERP cookie on the second one's host. The second
// also stores the cookie, so the classifier sees its value in one
// instance only and calls it a user ID.
func varyingHostIterations() []*crawler.Iteration {
	uid := []crawler.CookieRecord{{Domain: "tracker.example", Name: "uid", Value: "Zx9hQ27pLmT4vKwB"}}
	return []*crawler.Iteration{
		{Engine: "bing", EngineHost: "www.bing.com", Instance: "i0", SERPCookies: uid},
		{Engine: "bing", EngineHost: "tracker.example", Instance: "i1", SERPCookies: uid, Cookies: uid},
	}
}

// TestAddAtOutOfOrderByteIdentical: one accumulator that receives an
// engine's iterations out of stream order takes the engine's site from
// the earliest, as the sequential fold does. Regression test for AddAt
// lowering firstSeen but keeping the later iteration's site, which
// reported bing as storing user IDs under tracker.example's cookie.
func TestAddAtOutOfOrderByteIdentical(t *testing.T) {
	its := varyingHostIterations()
	seq := NewAccumulator(Options{})
	for i, it := range its {
		seq.AddAt(it, i)
	}
	acc := NewAccumulator(Options{})
	acc.AddAt(its[1], 1)
	acc.AddAt(its[0], 0)
	if acc.Report().Before["bing"].StoresUserIDs {
		t.Fatal("out-of-order AddAt kept the later iteration's engine site")
	}
	if !bytes.Equal(reportBytes(t, acc.Report()), reportBytes(t, seq.Report())) {
		t.Fatal("out-of-order AddAt report differs from the sequential fold")
	}
}

// TestMergeThenFoldMatchesSequential holds Merge to its contract: every
// merged-from shard reports the same bytes after the merge as before,
// and iterations folded into the merge target afterwards — appends to
// state the merge copied in — still give the sequential report.
func TestMergeThenFoldMatchesSequential(t *testing.T) {
	_, ds := report(t)
	want := reportBytes(t, AnalyzeWith(ds, Options{}))
	head := 2 * len(ds.Iterations) / 3
	accs := []*Accumulator{NewAccumulator(Options{}), NewAccumulator(Options{}), NewAccumulator(Options{})}
	for i, it := range ds.Iterations[:head] {
		accs[i%len(accs)].AddAt(it, i)
	}
	before := make([][]byte, len(accs))
	for k, acc := range accs {
		before[k] = reportBytes(t, acc.Report())
	}
	for _, acc := range accs[1:] {
		if err := accs[0].Merge(acc); err != nil {
			t.Fatal(err)
		}
	}
	for k, acc := range accs[1:] {
		if !bytes.Equal(reportBytes(t, acc.Report()), before[k+1]) {
			t.Fatalf("Merge changed shard %d's report", k+1)
		}
	}
	for i := head; i < len(ds.Iterations); i++ {
		accs[0].AddAt(ds.Iterations[i], i)
	}
	if !bytes.Equal(reportBytes(t, accs[0].Report()), want) {
		t.Fatal("folding after a merge differs from the sequential fold")
	}
}

// TestMergeDisjointEngines: shards that each saw a different engine
// reconstruct the batch engine order via AddAt sequence numbers even
// though neither shard knows the other's engines.
func TestMergeDisjointEngines(t *testing.T) {
	_, ds := report(t)
	byEngine := map[string][]int{}
	for i, it := range ds.Iterations {
		byEngine[it.Engine] = append(byEngine[it.Engine], i)
	}
	if len(byEngine) < 2 {
		t.Skip("dataset has a single engine")
	}
	want := reportBytes(t, AnalyzeWith(ds, Options{}))
	accs := make([]*Accumulator, 0, len(byEngine))
	for _, idxs := range byEngine {
		acc := NewAccumulator(Options{})
		for _, i := range idxs {
			acc.AddAt(ds.Iterations[i], i)
		}
		accs = append(accs, acc)
	}
	// Merge engine shards in reverse-of-first-seen order: the report's
	// EngineOrder must still come out in stream order.
	dst := accs[len(accs)-1]
	for i := len(accs) - 2; i >= 0; i-- {
		if err := dst.Merge(accs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(reportBytes(t, dst.Report()), want) {
		t.Fatal("per-engine shards merged out of order differ from batch")
	}
}
