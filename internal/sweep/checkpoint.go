package sweep

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"sync"

	"searchads/internal/checkpoint"
	"searchads/internal/crawler"
)

// defaultCheckpointEvery is the checkpoint write interval in crawled
// iterations when Options.CheckpointEvery is zero. Each iteration is
// encoded once, when crawled, so a write costs time linear in the
// in-flight prefixes, never a re-encode of them.
const defaultCheckpointEvery = 25

// sweepCheckpointer maintains the on-disk progress snapshot of a
// checkpointed sweep: one CellState per matrix cell, updated as cells
// crawl and complete, written atomically so a kill at any instant
// leaves a loadable checkpoint.
type sweepCheckpointer struct {
	w     *checkpoint.Writer
	every int
	// prefixes[i] is cell i's in-flight prefix, encoded. Only the worker
	// running cell i touches it, outside mu, so workers encode in
	// parallel; they publish its Bytes into encoded under mu.
	prefixes []checkpoint.Prefix

	mu        sync.Mutex
	cells     []checkpoint.CellState // without iterations
	encoded   [][]byte               // each cell's published prefix bytes
	sinceSave int
}

// matrixHash fingerprints everything that influences a sweep's output
// bytes: the expanded cells (fully value-typed) and whether custom
// filter/entity dependencies replace the embedded defaults. Worker-pool
// width is deliberately excluded — a sweep may resume with different
// parallelism.
func matrixHash(cells []Cell, opts Options) (string, error) {
	return checkpoint.HashConfig(struct {
		Cells    []Cell
		Filter   bool
		Entities bool
	}{cells, opts.Filter != nil, opts.Entities != nil})
}

// initCheckpoint builds the runner's checkpoint state and, when a
// checkpoint file exists, restores completed cells into r.results and
// in-flight prefixes into r.resume. A damaged file surfaces
// ErrCheckpointCorrupt, one from a different matrix
// ErrCheckpointMismatch — the sweep never resumes into wrong numbers.
func (r *runner) initCheckpoint() error {
	hash, err := matrixHash(r.cells, r.opts)
	if err != nil {
		return err
	}
	every := r.opts.CheckpointEvery
	if every <= 0 {
		every = defaultCheckpointEvery
	}
	k := &sweepCheckpointer{
		w:        &checkpoint.Writer{Path: r.opts.Checkpoint, ConfigHash: hash, Telemetry: r.opts.Telemetry},
		every:    every,
		prefixes: make([]checkpoint.Prefix, len(r.cells)),
		encoded:  make([][]byte, len(r.cells)),
	}
	k.cells = make([]checkpoint.CellState, len(r.cells))
	for i, c := range r.cells {
		k.cells[i] = checkpoint.CellState{Scenario: c.Scenario, Seed: c.Seed}
	}
	r.restored = make([]bool, len(r.cells))
	r.resume = make([][]*crawler.Iteration, len(r.cells))

	snap, err := checkpoint.Load(r.opts.Checkpoint)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			r.ckpt = k
			return nil
		}
		return err
	}
	if err := snap.Verify("sweep", hash); err != nil {
		return err
	}
	if len(snap.Sweep.Cells) != len(r.cells) {
		return fmt.Errorf("%w: checkpoint holds %d cells, matrix expands to %d",
			checkpoint.ErrCheckpointMismatch, len(snap.Sweep.Cells), len(r.cells))
	}
	for i := range snap.Sweep.Cells {
		sc := snap.Sweep.Cells[i]
		if sc.Scenario != r.cells[i].Scenario || sc.Seed != r.cells[i].Seed {
			return fmt.Errorf("%w: cell %d is %s seed=%d in the checkpoint, %s seed=%d in the matrix",
				checkpoint.ErrCheckpointMismatch, i, sc.Scenario, sc.Seed, r.cells[i].Scenario, r.cells[i].Seed)
		}
		switch {
		case sc.Done:
			var cr CellResult
			if err := json.Unmarshal(sc.Result, &cr); err != nil {
				return fmt.Errorf("%w: cell %s seed=%d result: %v",
					checkpoint.ErrCheckpointCorrupt, sc.Scenario, sc.Seed, err)
			}
			r.results[i] = cr
			r.restored[i] = true
			k.cells[i] = sc
		case len(sc.Iterations) > 0:
			r.resume[i] = sc.Iterations
			if err := k.w.Append(&k.prefixes[i], sc.Iterations...); err != nil {
				return err
			}
			k.encoded[i] = k.prefixes[i].Bytes()
		}
	}
	r.ckpt = k
	return nil
}

// appendIteration encodes one crawled iteration onto the cell's
// in-flight prefix and writes the checkpoint once the interval fills.
// This retention is the checkpointed sweep's documented memory
// trade-off: in-flight prefixes live, encoded, until their cell
// completes, so peak retention grows to O(parallelism · cell size)
// instead of O(parallelism).
func (k *sweepCheckpointer) appendIteration(i int, it *crawler.Iteration) error {
	p := &k.prefixes[i]
	if err := k.w.Append(p, it); err != nil {
		return err
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	k.encoded[i] = p.Bytes()
	if k.sinceSave++; k.sinceSave >= k.every {
		k.sinceSave = 0
		return k.save()
	}
	return nil
}

// cellDone marks a successfully completed cell: its scalar result
// replaces the iteration prefix and the checkpoint is written so a kill
// after this point never re-runs the cell. Failed or canceled cells are
// NOT marked done — their prefix stays, and resume continues them.
func (k *sweepCheckpointer) cellDone(i int, cr CellResult) error {
	payload, err := json.Marshal(cr)
	if err != nil {
		return fmt.Errorf("sweep: marshal cell result: %w", err)
	}
	k.prefixes[i] = checkpoint.Prefix{} // the cell's worker owns it
	k.mu.Lock()
	defer k.mu.Unlock()
	k.cells[i].Done = true
	k.cells[i].Result = payload
	k.encoded[i] = nil
	return k.save()
}

// save writes the snapshot; callers hold k.mu.
func (k *sweepCheckpointer) save() error {
	return k.w.WriteSweep(k.cells, k.encoded)
}

// finalize is called once workers have drained: a fully successful
// sweep deletes its checkpoint, an interrupted or failed one writes a
// final snapshot so every crawled iteration survives the exit.
func (k *sweepCheckpointer) finalize(clean bool) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	if clean {
		return checkpoint.Remove(k.w.Path)
	}
	return k.save()
}
