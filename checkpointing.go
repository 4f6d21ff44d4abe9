package searchads

import (
	"context"
	"errors"
	"fmt"
	"io/fs"

	"searchads/internal/checkpoint"
	"searchads/internal/crawler"
)

// Crash-safe checkpointing sentinels, re-exported from
// internal/checkpoint and matchable with errors.Is.
var (
	// ErrCheckpointCorrupt reports a checkpoint file that failed
	// structural verification (truncation, flipped bits, torn writes,
	// inconsistent state). The safe reaction is a clean restart — delete
	// the file and run fresh; a corrupt checkpoint is never resumed into
	// a wrong report.
	ErrCheckpointCorrupt = checkpoint.ErrCheckpointCorrupt
	// ErrCheckpointMismatch reports a structurally valid checkpoint that
	// belongs to a different configuration (or a sweep checkpoint handed
	// to a study, and vice versa). Resuming would stitch two different
	// runs together, so Resume refuses.
	ErrCheckpointMismatch = checkpoint.ErrCheckpointMismatch
	// ErrCheckpointVersion reports a checkpoint in a format revision
	// other than the one Resume reads: an older file may hold iterations
	// without the outcome stamp every crawl now records. Finish the run
	// with the code that wrote it, or delete the file and run fresh.
	ErrCheckpointVersion = checkpoint.ErrCheckpointVersion
)

// DefaultCheckpointEvery is the default checkpoint write interval, in
// crawled iterations. The interval trades redone work after a kill
// against checkpoint-write overhead; it never affects output bytes.
// Each iteration is JSON-encoded once, when it is crawled, so a write
// costs time linear in the prefix (a copy and a CRC), never a
// re-encode of it.
const DefaultCheckpointEvery = 25

// configHash fingerprints every Config field that influences output
// bytes — and nothing that does not: Parallel (and the checkpointing
// fields themselves) are deliberately excluded, so a run killed
// sequentially may resume on the worker pool and vice versa. Filter
// engines hash by presence: annotation changes dataset bytes, but two
// engines built from the same lists are interchangeable.
func (s *Study) configHash() (string, error) {
	return checkpoint.HashConfig(struct {
		Seed              int64
		Engines           []string
		QueriesPerEngine  int
		Iterations        int
		Storage           StorageMode
		CaptureProb       float64
		NoStealth         bool
		SkipRevisit       bool
		Calibrations      map[string]EngineCalibration
		ReferrerSmuggling bool
		FaultProfile      string
		FaultRate         float64
		Adversary         string
		Countermeasures   string
		Filter            bool
	}{
		s.cfg.Seed, s.cfg.Engines, s.cfg.QueriesPerEngine, s.cfg.Iterations,
		s.cfg.Storage, s.cfg.CaptureProb, s.cfg.NoStealth, s.cfg.SkipRevisit,
		s.cfg.Calibrations, s.cfg.ReferrerSmuggling,
		s.cfg.FaultProfile, s.cfg.FaultRate, s.cfg.Adversary, s.cfg.Countermeasures,
		s.cfg.Filter != nil,
	})
}

// Resume continues a killed crawl from Config.Checkpoint and caches the
// completed dataset exactly as Crawl does. The resumed run is
// byte-identical to one that was never interrupted: the checkpoint
// carries the crawled prefix, the remaining iterations re-derive from a
// fresh world (identifier streams key on (engine, iteration) labels, so
// skipping is re-derivation, not replay), and analysis re-folds the
// stitched stream.
//
// A missing checkpoint file is not an error — the run starts fresh,
// with checkpointing on. A damaged file returns an error wrapping
// ErrCheckpointCorrupt; one from a different configuration wraps
// ErrCheckpointMismatch; one in another format revision wraps
// ErrCheckpointVersion. None ever yields a silently wrong dataset.
//
// Cancellation mid-crawl writes a final checkpoint, then returns the
// partial dataset alongside an error wrapping ErrCanceled — call Resume
// again (even from a new process, with a new parallelism) to continue.
// On success the checkpoint file is removed.
func (s *Study) Resume(ctx context.Context) (*Dataset, error) {
	if s.cfgErr != nil {
		return nil, s.cfgErr
	}
	if s.cfg.Checkpoint == "" {
		return nil, errors.New("searchads: Resume requires Config.Checkpoint")
	}
	if s.dataset != nil {
		return s.dataset, nil
	}
	snap, err := checkpoint.Load(s.cfg.Checkpoint)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return s.crawlCheckpointed(ctx, nil)
		}
		return nil, err
	}
	hash, err := s.configHash()
	if err != nil {
		return nil, err
	}
	if err := snap.Verify("study", hash); err != nil {
		return nil, err
	}
	return s.crawlCheckpointed(ctx, snap.Study.Iterations)
}

// crawlCheckpointed runs the live crawl with periodic checkpoint
// writes, fast-forwarded past an already-crawled prefix. The dataset it
// caches holds prefix + freshly crawled tail in dataset order.
func (s *Study) crawlCheckpointed(ctx context.Context, prefix []*Iteration) (*Dataset, error) {
	hash, err := s.configHash()
	if err != nil {
		return nil, err
	}
	w := s.freshWorld()
	s.crawled = true
	ccfg := s.crawlerConfig(w)
	if len(prefix) > 0 {
		ccfg.Resume = crawler.ResumeFromIterations(prefix)
	}
	c := crawler.New(ccfg)
	ds := c.NewDataset()
	ds.Iterations = append(ds.Iterations, prefix...)
	// The restored prefix is encoded once here; each crawled iteration
	// is encoded once as it arrives, so a write re-encodes nothing.
	ckpt := &checkpoint.Writer{Path: s.cfg.Checkpoint, ConfigHash: hash, Telemetry: s.cfg.Telemetry}
	var enc checkpoint.Prefix
	if err := ckpt.Append(&enc, prefix...); err != nil {
		return nil, err
	}
	every := s.cfg.CheckpointEvery
	if every <= 0 {
		every = DefaultCheckpointEvery
	}
	since := 0
	for it, iterErr := range c.Iterations(ctx) {
		if iterErr != nil {
			// Write the final checkpoint before surfacing the abort so a
			// kill at this boundary loses at most the interval's work.
			if saveErr := ckpt.WriteStudy(&enc); saveErr != nil {
				iterErr = errors.Join(iterErr, saveErr)
			}
			return ds, wrapCanceled(iterErr)
		}
		if s.cfg.Sink != nil {
			s.cfg.Sink(it)
		}
		ds.Iterations = append(ds.Iterations, it)
		if err := ckpt.Append(&enc, it); err != nil {
			return ds, fmt.Errorf("searchads: checkpoint write: %w", err)
		}
		if since++; since >= every {
			if err := ckpt.WriteStudy(&enc); err != nil {
				return ds, fmt.Errorf("searchads: checkpoint write: %w", err)
			}
			since = 0
		}
	}
	s.dataset = ds
	if err := checkpoint.Remove(s.cfg.Checkpoint); err != nil {
		// The dataset is complete and cached; a leftover checkpoint only
		// costs the next Resume a no-op load, so report but keep it.
		return ds, err
	}
	return ds, nil
}
