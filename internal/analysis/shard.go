package analysis

import (
	"sync"

	"searchads/internal/crawler"
)

// StreamSharder folds a live iteration stream across a pool of shard
// accumulators: Add hands each iteration, tagged with its stream
// position, round-robin to a shard goroutine, and Finish merges the
// shards into the byte-exact sequential report (see Accumulator.Merge).
// It is the streaming counterpart of AnalyzeSharded. Its one caller
// is cmd/bench -trace, whose traced study-par folds the Iterations
// stream through it (a Parallel study folds on its crawl pool
// instead); at most one iteration is in flight per shard, so memory
// stays O(shards · iteration).
//
// Add and Finish/Abort must run on one goroutine (the stream consumer);
// the shard folds run on their own.
type StreamSharder struct {
	accs     []*Accumulator
	chans    []chan seqIteration
	wg       sync.WaitGroup
	next     int
	drained  bool
	onFolded func()
}

type seqIteration struct {
	it  *crawler.Iteration
	seq int
}

// NewStreamSharder returns a sharder with the given shard count (at
// least one). Every shard accumulator is built from the same defaulted
// options, so the final Merges pass the identity check. onFolded, when
// non-nil, runs on the shard goroutine right after each iteration is
// folded — retention accounting hooks.
func NewStreamSharder(opts Options, shards int, onFolded func()) *StreamSharder {
	if shards < 1 {
		shards = 1
	}
	opts = opts.withDefaults()
	s := &StreamSharder{
		accs:     make([]*Accumulator, shards),
		chans:    make([]chan seqIteration, shards),
		onFolded: onFolded,
	}
	for k := range s.accs {
		s.accs[k] = NewAccumulator(opts)
		s.chans[k] = make(chan seqIteration, 1)
		s.wg.Add(1)
		go func(acc *Accumulator, ch <-chan seqIteration) {
			defer s.wg.Done()
			for x := range ch {
				acc.AddAt(x.it, x.seq)
				if s.onFolded != nil {
					s.onFolded()
				}
			}
		}(s.accs[k], s.chans[k])
	}
	return s
}

// Add hands one iteration to its shard. It may block until the shard
// catches up (one-iteration channel buffer), which is what bounds
// retention against slow folds.
func (s *StreamSharder) Add(it *crawler.Iteration) {
	s.chans[s.next%len(s.chans)] <- seqIteration{it: it, seq: s.next}
	s.next++
}

// Finish drains the shard goroutines and returns the report of the
// whole stream (ReportShards).
func (s *StreamSharder) Finish() (*Report, error) {
	s.drain()
	return ReportShards(s.accs)
}

// Abort drains the shard goroutines without producing a report — the
// teardown for stream-error paths.
func (s *StreamSharder) Abort() { s.drain() }

func (s *StreamSharder) drain() {
	if s.drained {
		return
	}
	s.drained = true
	for _, ch := range s.chans {
		close(ch)
	}
	s.wg.Wait()
}
