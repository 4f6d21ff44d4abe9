package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"path/filepath"
	"runtime"
	"time"

	"searchads"
	"searchads/internal/analysis"
	"searchads/internal/entities"
	"searchads/internal/filterlist"
)

// workload is one set of inputs the harness drives in a closed loop: a
// single client issues its ops back to back, each op one call sequence a
// user of the library makes. The library keeps its own parallelism
// (crawl pool, sweep pool, shard folds) at GOMAXPROCS.
type workload struct {
	name, why string
	// rate is the nominal op rate on the reference machine (two cores);
	// it turns -seconds into a fixed op count, so the parent and a
	// change do identical work. At the default 20 s every workload
	// runs at least 100 ops, so ten or more lie beyond op_s_p90.
	rate float64
	// op is the timed call sequence; it returns the crawled iteration
	// count and the output to check.
	op func(ctx context.Context, in *input, seed int64) (int, any, error)
	// ref computes the same output on a different path, untimed.
	ref func(ctx context.Context, in *input, seed int64) (any, error)
	// traced repeats op with every layer timed from outside, adding the
	// layers into l; it returns the output and the op's wall.
	traced func(ctx context.Context, in *input, seed int64, l *layers) (any, time.Duration, error)
}

// input is what set-up prepares for a run: the world seeds and the
// filter engine and entity list every op analyses with.
type input struct {
	seeds []int64
	opts  analysis.Options
	dir   string // checkpoint and dataset files
}

var workloads = []*workload{
	{
		name: "study-seq",
		why:  "The default paper-shaped study: five engines, 100 queries each, streamed into the sequential fold. Crawl-layer and allocation work shows here; world reuse should not.",
		rate: 5,
		op: func(ctx context.Context, in *input, seed int64) (int, any, error) {
			rep, err := searchads.NewStudy(studyConfig(seed)).AnalyzeWith(ctx, in.opts)
			return reportIterations(rep), rep, err
		},
		ref: func(ctx context.Context, in *input, seed int64) (any, error) {
			ds, err := searchads.NewStudy(studyConfig(seed)).Crawl(ctx)
			if err != nil {
				return nil, err
			}
			return analysis.AnalyzeWith(ds, in.opts), nil
		},
		traced: func(ctx context.Context, in *input, seed int64, l *layers) (any, time.Duration, error) {
			return traceStudy(ctx, in, studyConfig(seed), l)
		},
	},
	{
		name: "study-par",
		why:  "The same study with Parallel on: crawl worker pool plus streamed shard fold and merge. Scheduling, queue wait and merge act here and are bypassed by study-seq.",
		rate: 6.5,
		op: func(ctx context.Context, in *input, seed int64) (int, any, error) {
			cfg := studyConfig(seed)
			cfg.Parallel = true
			rep, err := searchads.NewStudy(cfg).AnalyzeWith(ctx, in.opts)
			return reportIterations(rep), rep, err
		},
		ref: func(ctx context.Context, in *input, seed int64) (any, error) {
			return searchads.NewStudy(studyConfig(seed)).AnalyzeWith(ctx, in.opts)
		},
		traced: func(ctx context.Context, in *input, seed int64, l *layers) (any, time.Duration, error) {
			cfg := studyConfig(seed)
			cfg.Parallel = true
			return traceStudy(ctx, in, cfg, l)
		},
	},
	{
		name: "sweep-grid",
		why:  "A 16-cell sweep of small two-engine studies (storage x crawl-time filter x 4 seeds), so per-cell fixed cost dominates: world build, fold set-up, report, aggregation.",
		rate: 9.5,
		op: func(ctx context.Context, in *input, seed int64) (int, any, error) {
			res, err := searchads.Sweep(ctx, gridMatrix(seed), in.sweepOptions())
			return sweepIterations(res), res, err
		},
		ref: func(ctx context.Context, in *input, seed int64) (any, error) {
			opts := in.sweepOptions()
			opts.Parallel = 1
			return searchads.Sweep(ctx, gridMatrix(seed), opts)
		},
		traced: func(ctx context.Context, in *input, seed int64, l *layers) (any, time.Duration, error) {
			return traceSweep(ctx, in, gridMatrix(seed), l)
		},
	},
	{
		name: "hostile-batch",
		why:  "A checkpointed crawl under bot-hostile faults, a strict adversary and full countermeasures, saved, reloaded and analysed in shards: the write/read path and the retry and breaker branches.",
		rate: 6,
		op: func(ctx context.Context, in *input, seed int64) (int, any, error) {
			cfg := hostileConfig(seed)
			cfg.Checkpoint = filepath.Join(in.dir, "hostile.ckpt")
			ds, err := searchads.NewStudy(cfg).Crawl(ctx)
			if err != nil {
				return 0, nil, err
			}
			path := filepath.Join(in.dir, "hostile.json")
			if err := ds.Save(path); err != nil {
				return 0, nil, err
			}
			loaded, err := searchads.LoadDataset(path)
			if err != nil {
				return 0, nil, err
			}
			rep, err := analysis.AnalyzeSharded(ctx, loaded, in.opts, runtime.GOMAXPROCS(0))
			return len(ds.Iterations), rep, err
		},
		ref: func(ctx context.Context, in *input, seed int64) (any, error) {
			return searchads.NewStudy(hostileConfig(seed)).AnalyzeWith(ctx, in.opts)
		},
		traced: func(ctx context.Context, in *input, seed int64, l *layers) (any, time.Duration, error) {
			return traceHostile(ctx, in, hostileConfig(seed), l)
		},
	},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func findWorkload(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

func studyConfig(seed int64) searchads.Config {
	return searchads.Config{Seed: seed, QueriesPerEngine: 100}
}

func hostileConfig(seed int64) searchads.Config {
	return searchads.Config{
		Seed:             seed,
		Engines:          []string{searchads.Bing, searchads.Google, searchads.DuckDuckGo},
		QueriesPerEngine: 60,
		FaultProfile:     "bot-hostile",
		FaultRate:        0.05,
		Adversary:        "strict",
		Countermeasures:  "full",
	}
}

// gridMatrix is sweep-grid's 16 cells: four consecutive world seeds ×
// flat/partitioned storage × crawl-time filter off/on.
func gridMatrix(seed int64) searchads.SweepMatrix {
	return searchads.SweepMatrix{
		Seeds:            []int64{seed, seed + 1, seed + 2, seed + 3},
		Storage:          []searchads.StorageMode{searchads.FlatStorage, searchads.PartitionedStorage},
		FilterAnnotate:   []bool{false, true},
		EngineSets:       [][]string{{searchads.Bing, searchads.DuckDuckGo}},
		QueriesPerEngine: 8,
	}
}

func (in *input) sweepOptions() searchads.SweepOptions {
	return searchads.SweepOptions{Filter: in.opts.Filter, Entities: in.opts.Entities}
}

func reportIterations(rep *searchads.Report) int {
	if rep == nil {
		return 0
	}
	n := 0
	for _, row := range rep.Table1 {
		n += row.Queries
	}
	return n
}

func sweepIterations(res *searchads.SweepResult) int {
	if res == nil {
		return 0
	}
	n := 0
	for _, c := range res.Cells {
		n += c.Iterations
	}
	return n
}

// digest hashes an op's output. Sweep results are hashed with their
// pool width and peak retention zeroed: both are scheduling
// observations that may differ between runs of the same matrix.
func digest(out any) (string, error) {
	var data []byte
	var err error
	switch v := out.(type) {
	case *searchads.Report:
		data, err = v.JSON()
	case *searchads.SweepResult:
		c := *v
		c.Parallelism, c.PeakRetainedIterations = 0, 0
		data, err = json.Marshal(&c)
	default:
		return "", fmt.Errorf("digest: unexpected output %T", out)
	}
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8]), nil
}

// setup prepares one run: a filter engine compiled from the embedded
// lists up to its first match (the index build), the entity list read
// from its JSON form, and the world seeds derived from the run seed.
func setup(w *workload, seed int64, nseeds int, dir string) (*input, error) {
	f := filterlist.NewEngine()
	f.AddList("easylist", filterlist.EasyListData)
	f.AddList("easyprivacy", filterlist.EasyPrivacyData)
	f.IsTracker(filterlist.RequestInfo{URL: "https://www.google-analytics.com/collect", Type: searchads.TypeImage, FirstParty: "example.com", ThirdParty: true})
	data, err := entities.Default().MarshalJSON()
	if err != nil {
		return nil, fmt.Errorf("setup: entity list: %w", err)
	}
	ents, err := entities.ParseDisconnectJSON(data)
	if err != nil {
		return nil, fmt.Errorf("setup: entity list: %w", err)
	}
	return &input{
		seeds: worldSeeds(w.name, seed, nseeds),
		opts:  analysis.Options{Filter: f, Entities: ents},
		dir:   dir,
	}, nil
}

// worldSeeds derives a workload's world seeds from the run seed. Seeds
// are positive and never 0, which the library reads as "default".
func worldSeeds(name string, seed int64, n int) []int64 {
	out := make([]int64, n)
	for k := range out {
		h := fnv.New64a()
		fmt.Fprintf(h, "%s/%d/%d", name, seed, k)
		out[k] = int64(h.Sum64()>>2) + 1
	}
	return out
}
