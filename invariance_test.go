package searchads_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"searchads"
)

// invarianceRows are the subsystem configurations of the invariance
// matrix: small two-engine studies, each arming one layer. Every column
// of the matrix must reproduce a row's sequential reference byte for
// byte. Odd rows list their engines out of name order: a report orders
// engines by first stream position and breaks ties by name, so a
// Parallel fold that loses the positions shows on those rows.
var invarianceRows = []struct {
	name string
	cfg  searchads.Config
}{
	{"plain", searchads.Config{
		Seed: 441, Engines: []string{searchads.Bing, searchads.Google}, QueriesPerEngine: 8,
	}},
	{"faults/flaky-edge", searchads.Config{
		Seed: 101, Engines: []string{searchads.DuckDuckGo, searchads.Bing}, QueriesPerEngine: 6,
		FaultProfile: "flaky-edge", FaultRate: 0.3,
	}},
	{"faults/bot-hostile", searchads.Config{
		Seed: 202, Engines: []string{searchads.Bing, searchads.DuckDuckGo}, QueriesPerEngine: 6,
		FaultProfile: "bot-hostile", FaultRate: 0.25,
	}},
	{"faults/brownout", searchads.Config{
		Seed: 303, Engines: []string{searchads.DuckDuckGo, searchads.Bing}, QueriesPerEngine: 6,
		FaultProfile: "brownout", FaultRate: 0.2,
	}},
	// Ten queries: the full bundle's breaker opens after three
	// consecutive faults on one chain, which no two-engine strict crawl
	// reaches in fewer.
	{"adversary/strict-full", searchads.Config{
		Seed: 2, Engines: []string{searchads.Bing, searchads.StartPage}, QueriesPerEngine: 10,
		FaultProfile: "bot-hostile", FaultRate: 0.05,
		Adversary: "strict", Countermeasures: "full",
	}},
	{"adversary/lenient-rotate", searchads.Config{
		Seed: 737, Engines: []string{searchads.DuckDuckGo, searchads.Bing}, QueriesPerEngine: 6,
		Adversary: "lenient", Countermeasures: "rotate",
	}},
	{"filter", searchads.Config{
		Seed: 91, Engines: []string{searchads.Bing, searchads.Qwant}, QueriesPerEngine: 6,
		Filter: searchads.DefaultFilterEngine(),
	}},
	{"partitioned", searchads.Config{
		Seed: 92, Engines: []string{searchads.StartPage, searchads.Google}, QueriesPerEngine: 6,
		Storage: searchads.PartitionedStorage,
	}},
}

// invarianceColumns are the execution modes. Each runs one row and
// compares what it produced with the row's reference. A column that
// sets GOMAXPROCS runs alone; the row's other columns run in parallel
// with each other after it.
var invarianceColumns = []struct {
	name  string
	alone bool
	run   func(t *testing.T, i int, cfg searchads.Config, ref *reference)
}{
	{"repeat", false, repeatCell},
	{"disarmed", false, disarmedCell},
	{"parallel", true, parallelCell},
	{"parallel-cached", true, parallelCachedCell},
	{"sink", false, sinkCell},
	{"stream", false, streamCell},
	{"sharded", false, shardedCell},
	{"save-load", false, saveLoadCell},
	{"kill-resume", false, killResumeCell},
	{"telemetry", false, telemetryCell},
	{"sweep-cell", false, sweepCellCell},
}

// TestInvarianceMatrix is the determinism contract of the facade: for
// every (row, column), the dataset bytes, the report JSON and the
// rendered report equal the row's sequential reference. A final
// subtest runs every row at once on one shared telemetry registry.
func TestInvarianceMatrix(t *testing.T) {
	refs := make([]*reference, len(invarianceRows))
	for i, row := range invarianceRows {
		t.Run(row.name, func(t *testing.T) {
			ref := newReference(t, row.cfg)
			checkRow(t, row.cfg, ref)
			refs[i] = ref
			for _, col := range invarianceColumns {
				t.Run(col.name, func(t *testing.T) {
					if !col.alone {
						t.Parallel()
					}
					col.run(t, i, row.cfg, ref)
				})
			}
		})
	}
	t.Run("shared-registry", func(t *testing.T) { sharedRegistry(t, refs) })
}

// reference is a row's sequential run: its dataset and the three byte
// forms every cell is held to.
type reference struct {
	ds      *searchads.Dataset
	dataset []byte
	json    []byte
	render  string
}

func newReference(t *testing.T, cfg searchads.Config) *reference {
	t.Helper()
	st := searchads.NewStudy(cfg)
	ds := crawl(t, st)
	rep, err := st.Analyze(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	return &reference{ds: ds, dataset: saveBytes(t, ds), json: mustJSON(t, rep), render: rep.Render()}
}

// match reports, under label, every byte form of ds and rep that
// differs from the reference.
func (ref *reference) match(t *testing.T, label string, ds *searchads.Dataset, rep *searchads.Report) {
	t.Helper()
	ref.matchDataset(t, label, ds)
	ref.matchReport(t, label, rep)
}

func (ref *reference) matchDataset(t *testing.T, label string, ds *searchads.Dataset) {
	t.Helper()
	if !bytes.Equal(saveBytes(t, ds), ref.dataset) {
		t.Errorf("%s: dataset bytes differ from the sequential reference", label)
	}
}

func (ref *reference) matchReport(t *testing.T, label string, rep *searchads.Report) {
	t.Helper()
	if !bytes.Equal(mustJSON(t, rep), ref.json) {
		t.Errorf("%s: report JSON differs from the sequential reference", label)
	}
	if rep.Render() != ref.render {
		t.Errorf("%s: rendered report differs from the sequential reference", label)
	}
}

// withIterations returns a copy of the reference dataset's metadata
// shell holding the caller's iterations: the dataset form of iterations
// a cell collected from a Sink or a stream. (Save only reads a dataset,
// so cells running in parallel save ref.ds itself.)
func (ref *reference) withIterations(its []*searchads.Iteration) *searchads.Dataset {
	ds := *ref.ds
	ds.Iterations = its
	return &ds
}

// checkRow holds the side checks of a row's reference: the layer the
// row arms must show in its dataset and report, and an undisturbed row
// must carry no trace of the failure accounting.
func checkRow(t *testing.T, cfg searchads.Config, ref *reference) {
	t.Helper()
	var failed, touched int
	for _, it := range ref.ds.Iterations {
		if it.Outcome != "" || it.Error != "" {
			touched++
		}
		if it.Error == "" {
			continue
		}
		failed++
		if it.ErrorClass == "" {
			t.Errorf("failed iteration %s carries no error class: %s", it.Instance, it.Error)
		}
	}
	switch {
	case cfg.FaultRate > 0 && cfg.Adversary == "":
		if failed == 0 {
			t.Errorf("no iteration failed over %d; injection inert", len(ref.ds.Iterations))
		}
	case cfg.Adversary != "":
		if touched == 0 {
			t.Errorf("adversary left no trace over %d iterations", len(ref.ds.Iterations))
		}
	default:
		if strings.Contains(ref.render, "Crawl loss") || strings.Contains(ref.render, "Arms race") {
			t.Error("undisturbed report renders a crawl-loss or arms-race section")
		}
		if bytes.Contains(ref.json, []byte(`"Failures"`)) || bytes.Contains(ref.json, []byte(`"Outcomes"`)) {
			t.Error("undisturbed report JSON carries a Failures or Outcomes key")
		}
	}
}

// repeatCell: a fresh study of the same config, analysed with the
// defaults named explicitly; the same options again hit the cache.
func repeatCell(t *testing.T, _ int, cfg searchads.Config, ref *reference) {
	st := searchads.NewStudy(cfg)
	ds := crawl(t, st)
	opts := searchads.AnalysisOptions{
		Filter:   searchads.DefaultFilterEngine(),
		Entities: searchads.DefaultEntities(),
	}
	rep, err := st.AnalyzeWith(t.Context(), opts)
	if err != nil {
		t.Fatal(err)
	}
	ref.match(t, "fresh study", ds, rep)
	if again, err := st.AnalyzeWith(t.Context(), opts); err != nil || again != rep {
		t.Errorf("AnalyzeWith(same options) = (%p, %v), want the cached %p", again, err, rep)
	}
}

// Named-but-off values for the layers a row leaves out. Rows take them
// in turn by index, so across the matrix every spelling is used.
var (
	faultsOff    = []string{"off", "bot-hostile", "brownout", "flaky-edge"} // each at rate 0
	adversaryOff = [][2]string{{"off", ""}, {"", "off"}, {"off", "off"}}
)

// disarmedCell: every layer the row leaves out is named but off, and a
// checkpoint is written and removed on completion.
func disarmedCell(t *testing.T, i int, cfg searchads.Config, ref *reference) {
	if cfg.FaultProfile == "" && cfg.FaultRate == 0 {
		cfg.FaultProfile = faultsOff[i%len(faultsOff)]
	}
	if cfg.Adversary == "" && cfg.Countermeasures == "" {
		off := adversaryOff[i%len(adversaryOff)]
		cfg.Adversary, cfg.Countermeasures = off[0], off[1]
	}
	cfg.Checkpoint = filepath.Join(t.TempDir(), "run.ckpt")
	cfg.CheckpointEvery = 1 + i%3
	st := searchads.NewStudy(cfg)
	ds := crawl(t, st)
	rep, err := st.Analyze(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	ref.match(t, fmt.Sprintf("faults=%q adv=%q cm=%q", cfg.FaultProfile, cfg.Adversary, cfg.Countermeasures), ds, rep)
	if _, err := os.Stat(cfg.Checkpoint); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("checkpoint survived a completed Crawl: %v", err)
	}
}

// parallelCell: a Parallel Analyze folds the live crawl on the pool,
// one accumulator per worker; then the study re-crawls on the pool for
// the dataset. Even rows run one worker for both chains, odd rows one
// worker each.
func parallelCell(t *testing.T, i int, cfg searchads.Config, ref *reference) {
	procs := 1 + i%2
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	cfg.Parallel = true
	st := searchads.NewStudy(cfg)
	rep, err := st.Analyze(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	ref.match(t, fmt.Sprintf("GOMAXPROCS=%d", procs), crawl(t, st), rep)
}

// parallelCachedCell: a Parallel Crawl, then Analyze of the cached
// dataset in GOMAXPROCS contiguous ranges. Row i runs at GOMAXPROCS
// 1+i%4, so each of 1 to 4 runs on two rows.
func parallelCachedCell(t *testing.T, i int, cfg searchads.Config, ref *reference) {
	procs := 1 + i%4
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	cfg.Parallel = true
	st := searchads.NewStudy(cfg)
	ds := crawl(t, st)
	rep, err := st.Analyze(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	ref.match(t, fmt.Sprintf("GOMAXPROCS=%d", procs), ds, rep)
}

// sinkCell: a Sink on a Parallel Analyze, which keeps the stream order
// and so folds the ordered stream, and on a Crawl, sequential on even
// rows and Parallel on odd ones. Its calls must come in dataset order.
func sinkCell(t *testing.T, i int, cfg searchads.Config, ref *reference) {
	var sunk []*searchads.Iteration
	cfg.Sink = func(it *searchads.Iteration) { sunk = append(sunk, it) }
	par := cfg
	par.Parallel = true
	rep, err := searchads.NewStudy(par).Analyze(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	ref.match(t, "Parallel Analyze", ref.withIterations(sunk), rep)

	sunk = nil
	cfg.Parallel = i%2 == 1
	ds := crawl(t, searchads.NewStudy(cfg))
	ref.matchDataset(t, fmt.Sprintf("parallel=%v Crawl", cfg.Parallel), ds)
	if !slices.Equal(sunk, ds.Iterations) {
		t.Errorf("parallel=%v Crawl: Sink calls differ from the dataset's iterations", cfg.Parallel)
	}
}

// streamCell: NewDataset plus every streamed iteration, folded by an
// Accumulator. Even rows stream a Parallel crawl, odd rows a sequential
// one.
func streamCell(t *testing.T, i int, cfg searchads.Config, ref *reference) {
	cfg.Parallel = i%2 == 0
	st := searchads.NewStudy(cfg)
	ds := st.NewDataset()
	acc := searchads.NewAccumulator(searchads.AnalysisOptions{})
	for it, err := range st.Iterations(t.Context()) {
		if err != nil {
			t.Fatal(err)
		}
		ds.Iterations = append(ds.Iterations, it)
		acc.Add(it)
	}
	ref.match(t, fmt.Sprintf("parallel=%v", cfg.Parallel), ds, acc.Report())
}

// shardedCell: AnalyzeDatasetSharded over the reference dataset in 1 to
// 4 contiguous shards, which must leave the dataset untouched.
func shardedCell(t *testing.T, _ int, _ searchads.Config, ref *reference) {
	ds := ref.ds
	for k := 1; k <= 4; k++ {
		rep, err := searchads.AnalyzeDatasetSharded(t.Context(), ds, k)
		if err != nil {
			t.Fatal(err)
		}
		ref.matchReport(t, fmt.Sprintf("shards=%d", k), rep)
	}
	ref.matchDataset(t, "after 4 sharded folds", ds)
}

// saveLoadCell: Save, LoadDataset, AnalyzeDataset.
func saveLoadCell(t *testing.T, _ int, _ searchads.Config, ref *reference) {
	path := filepath.Join(t.TempDir(), "ds.json")
	if err := ref.ds.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := searchads.LoadDataset(path)
	if err != nil {
		t.Fatal(err)
	}
	ref.match(t, "loaded", back, searchads.AnalyzeDataset(back))
}

// killResumeCell: a checkpointed study killed at random iteration
// boundaries and resumed with re-rolled parallelism until it completes.
func killResumeCell(t *testing.T, i int, cfg searchads.Config, ref *reference) {
	gen := rand.New(rand.NewSource(20230901 + int64(i)))
	cfg.CheckpointEvery = 1 + gen.Intn(6)
	cfg.Checkpoint = filepath.Join(t.TempDir(), "run.ckpt")
	st, kills := runToCompletion(t, cfg, gen)
	ds, err := st.Resume(t.Context()) // cached now
	if err != nil {
		t.Fatal(err)
	}
	rep, err := st.Analyze(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	ref.match(t, fmt.Sprintf("%d kills, every=%d", kills, cfg.CheckpointEvery), ds, rep)
	if _, err := os.Stat(cfg.Checkpoint); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("checkpoint survived a completed run: %v", err)
	}
	if kills == 0 {
		t.Logf("completed without a kill; raise the row's iteration count if this recurs")
	}
}

// telemetryCell: a registry with an event trace attached. It records
// one iteration and one analysis_fold sample per iteration, and the
// hostile row's breaker sheds and retries.
func telemetryCell(t *testing.T, _ int, cfg searchads.Config, ref *reference) {
	var events bytes.Buffer
	cfg.Telemetry = searchads.NewTelemetry()
	cfg.Telemetry.SetSink(&events)
	st := searchads.NewStudy(cfg)
	ds := crawl(t, st)
	rep, err := st.Analyze(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Telemetry.CloseSink(); err != nil {
		t.Fatal(err)
	}
	ref.match(t, "telemetry attached", ds, rep)

	n := uint64(len(ds.Iterations))
	snap := cfg.Telemetry.Snapshot()
	fold, _ := snap.StageByName("analysis_fold")
	if snap.Counter("iterations") != n || fold.Wall.Count != n {
		t.Errorf("recorded %d iterations and %d folds for %d iterations", snap.Counter("iterations"), fold.Wall.Count, n)
	}
	if lines := bytes.Count(events.Bytes(), []byte("\n")); lines < 2*len(ds.Iterations) {
		t.Errorf("event trace holds %d lines for %d iterations", lines, n)
	}
	if cfg.Adversary == "strict" && (snap.Counter("breaker_sheds") == 0 || snap.Counter("retries") == 0) {
		t.Errorf("hostile crawl shed %d iterations and retried %d navigations, want both > 0",
			snap.Counter("breaker_sheds"), snap.Counter("retries"))
	}
}

// sweepCellCell: the row as a one-cell sweep. The cell's iterations,
// report and metrics are the standalone study's.
func sweepCellCell(t *testing.T, _ int, cfg searchads.Config, ref *reference) {
	m := searchads.SweepMatrix{
		Seeds:            []int64{cfg.Seed},
		Storage:          []searchads.StorageMode{cfg.Storage},
		FilterAnnotate:   []bool{cfg.Filter != nil},
		EngineSets:       [][]string{cfg.Engines},
		FaultProfiles:    []string{cfg.FaultProfile},
		FaultRates:       []float64{cfg.FaultRate},
		Adversaries:      []string{cfg.Adversary},
		Countermeasures:  []string{cfg.Countermeasures},
		QueriesPerEngine: cfg.QueriesPerEngine,
	}
	var its []*searchads.Iteration
	var rep *searchads.Report
	res, err := searchads.Sweep(t.Context(), m, searchads.SweepOptions{
		Parallel:    1,
		OnIteration: func(_ searchads.SweepCell, it *searchads.Iteration) { its = append(its, it) },
		OnReport:    func(_ searchads.SweepCell, r *searchads.Report) { rep = r },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 1 || rep == nil {
		t.Fatalf("sweep ran %d cells and reported %v, want one", len(res.Cells), rep != nil)
	}
	ref.match(t, "one-cell sweep", ref.withIterations(its), rep)

	cell := res.Cells[0]
	outcomes := map[string]int{}
	for _, e := range cell.EngineOrder {
		if !reflect.DeepEqual(cell.Metrics[e], rep.EngineMetrics(e)) {
			t.Errorf("%s: cell metrics %v, report metrics %v", e, cell.Metrics[e], rep.EngineMetrics(e))
		}
		for o, n := range rep.Outcomes[e] {
			outcomes[o] += n
		}
	}
	if len(outcomes) == 0 {
		outcomes = nil
	}
	if !reflect.DeepEqual(cell.Outcomes, outcomes) {
		t.Errorf("cell outcomes %v, report outcomes sum to %v", cell.Outcomes, outcomes)
	}
}

// sharedRegistry runs every row at once on one telemetry registry:
// sequential, Parallel and checkpointed studies in turn. Sharing the
// registry must change no byte and lose no count.
func sharedRegistry(t *testing.T, refs []*reference) {
	if slices.Contains(refs, nil) {
		t.Skip("a row has no reference")
	}
	tele := searchads.NewTelemetry()
	tele.SetSink(io.Discard)
	dir := t.TempDir()
	n := len(invarianceRows)
	dss, reps, errs := make([]*searchads.Dataset, n), make([]*searchads.Report, n), make([]error, n)
	var wg sync.WaitGroup
	for i, row := range invarianceRows {
		cfg := row.cfg
		cfg.Telemetry = tele
		cfg.Parallel = i%3 == 1
		if i%3 == 2 {
			cfg.Checkpoint = filepath.Join(dir, fmt.Sprintf("%d.ckpt", i))
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := searchads.NewStudy(cfg)
			if cfg.Checkpoint != "" {
				if dss[i], errs[i] = st.Crawl(t.Context()); errs[i] != nil {
					return
				}
			}
			reps[i], errs[i] = st.Analyze(t.Context())
		}()
	}
	wg.Wait()
	var total uint64
	for i, ref := range refs {
		total += uint64(len(ref.ds.Iterations))
		name := invarianceRows[i].name
		if errs[i] != nil {
			t.Errorf("%s: %v", name, errs[i])
			continue
		}
		if dss[i] != nil {
			ref.matchDataset(t, name, dss[i])
		}
		ref.matchReport(t, name, reps[i])
	}
	if err := tele.CloseSink(); err != nil {
		t.Fatal(err)
	}
	snap := tele.Snapshot()
	fold, _ := snap.StageByName("analysis_fold")
	if snap.Counter("iterations") != total || fold.Wall.Count != total {
		t.Errorf("recorded %d iterations and %d folds for %d iterations", snap.Counter("iterations"), fold.Wall.Count, total)
	}
}

// crawl is Study.Crawl with the error checked.
func crawl(t *testing.T, st *searchads.Study) *searchads.Dataset {
	t.Helper()
	ds, err := st.Crawl(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// saveBytes serializes a dataset the way cmd/crawl does, so byte-level
// comparisons see exactly what lands on disk.
func saveBytes(t *testing.T, ds *searchads.Dataset) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ds.json")
	if err := ds.Save(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func mustJSON(t *testing.T, r *searchads.Report) []byte {
	t.Helper()
	j, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return j
}
