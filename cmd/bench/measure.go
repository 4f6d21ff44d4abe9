package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"time"
)

// setupRuns is how many times a run repeats its set-up; setup_s is the
// median, so one slow repetition does not move it.
const setupRuns = 21

// plan sizes one run: world seeds per workload and rounds over them.
// Every round runs one op per seed, so each seed weighs the same.
type plan struct {
	seeds, rounds int
	// limit stops the timed phase at a round boundary once it has run
	// this long: a machine far slower than the reference still ends
	// within the time a run is allowed.
	limit time.Duration
}

func planFor(w *workload, c config) plan {
	if c.quick {
		return plan{seeds: 2, rounds: 3}
	}
	// 16 worlds per run average out most of what one world's draw of
	// ads, redirect chains and trackers adds to the per-iteration cost.
	const seeds = 16
	rounds := int(math.Ceil(float64(c.seconds) * w.rate / seeds))
	return plan{seeds: seeds, rounds: max(rounds, 1), limit: 3 * time.Duration(c.seconds) * time.Second / 2}
}

// result is one workload's measured outcome.
type result struct {
	Workload  string           `json:"workload"`
	Seeds     int              `json:"seeds"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	RefS      float64          `json:"ref_s"`
	Metrics   map[string]value `json:"metrics"`
	// Extra holds the undeclared numbers listed in extras.
	Extra map[string]value `json:"extra,omitempty"`
}

func newResult(w *workload, p plan, refS float64) *result {
	return &result{Workload: w.name, Seeds: p.seeds, RefS: refS, Metrics: map[string]value{}, Extra: map[string]value{}}
}

func (r *result) set(table []metric, name string, v float64) {
	m, ok := lookup(table, name)
	if !ok {
		panic("bench: undeclared metric " + name)
	}
	r.Metrics[name] = value{Value: v, Unit: m.Unit}
}

func (r *result) setExtra(name string, v float64) {
	m, ok := lookup(extras, name)
	if !ok {
		panic("bench: undeclared metric " + name)
	}
	r.Extra[name] = value{Value: v, Unit: m.Unit}
}

// setupTime is the set-up's median wall time over setupRuns
// repetitions, raw and calibrated against a kernel run after each.
type setupTime struct{ wall, calibrated float64 }

// prepare runs the set-up setupRuns times and then the untimed
// reference pass, which also warms every code path the ops take.
func prepare(ctx context.Context, w *workload, c config, p plan) (*input, []string, setupTime, float64, error) {
	var in *input
	var st setupTime
	walls := make([]float64, setupRuns)
	cals := make([]float64, setupRuns)
	for i := range walls {
		start := time.Now()
		var err error
		if in, err = setup(w, c.seed, p.seeds, c.workdir); err != nil {
			return nil, nil, st, 0, err
		}
		wall := time.Since(start)
		walls[i], cals[i] = wall.Seconds(), calibrated(wall, calibrate())
	}
	st = setupTime{wall: median(walls), calibrated: median(cals)}
	start := time.Now()
	refs := make([]string, len(in.seeds))
	for i, seed := range in.seeds {
		out, err := w.ref(ctx, in, seed)
		if err != nil {
			return nil, nil, st, 0, fmt.Errorf("%s: reference for seed %d: %w", w.name, seed, err)
		}
		if refs[i], err = digest(out); err != nil {
			return nil, nil, st, 0, err
		}
	}
	return in, refs, st, time.Since(start).Seconds(), nil
}

// opSample is one timed op.
type opSample struct {
	wall           time.Duration
	kernel         time.Duration // the calibration kernel right after the op
	iters          int
	bytes, objects uint64
	heapPeak       uint64
}

// check runs one op and compares its output with the reference digest.
// Allocation and the heap peak are read around the op alone, not around
// the check; heap may be nil when the peak is not wanted.
func check(ctx context.Context, w *workload, in *input, seed int64, want string, heap *heapSampler, log io.Writer) (opSample, bool) {
	var m0, m1 runtime.MemStats
	if heap != nil {
		heap.reset()
	}
	runtime.ReadMemStats(&m0)
	start := time.Now()
	iters, out, err := w.op(ctx, in, seed)
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	s := opSample{wall: wall, iters: iters, bytes: m1.TotalAlloc - m0.TotalAlloc, objects: m1.Mallocs - m0.Mallocs}
	if heap != nil {
		s.heapPeak = heap.peak()
	}
	return s, verify(w, seed, out, err, want, log)
}

func verify(w *workload, seed int64, out any, err error, want string, log io.Writer) bool {
	if err != nil {
		fmt.Fprintf(log, "%s: seed %d: %v\n", w.name, seed, err)
		return false
	}
	got, err := digest(out)
	if err != nil || got != want {
		fmt.Fprintf(log, "%s: seed %d: output digest %s, reference %s (%v)\n", w.name, seed, got, want, err)
		return false
	}
	return true
}

// measure is an untraced run: set-up, reference pass, then the timed
// closed loop, each op followed by the calibration kernel.
func measure(ctx context.Context, w *workload, c config, log io.Writer) (*result, error) {
	p := planFor(w, c)
	in, refs, setupS, refS, err := prepare(ctx, w, c, p)
	if err != nil {
		return nil, err
	}
	res := newResult(w, p, refS)
	runtime.GC()
	heap := startHeapSampler()
	var samples []opSample
	start := time.Now()
	for r := 0; r < p.rounds && (r == 0 || p.limit == 0 || time.Since(start) < p.limit); r++ {
		for i, seed := range in.seeds {
			s, ok := check(ctx, w, in, seed, refs[i], heap, log)
			s.kernel = calibrate()
			samples = append(samples, s)
			res.Attempted++
			if !ok {
				res.Failed++
			}
		}
	}
	heap.stop()

	var iters int
	var bytes, objects uint64
	var wallSum, calSum float64
	n := len(samples)
	walls, cals, kernels, peaks := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	for i, s := range samples {
		iters += s.iters
		bytes += s.bytes
		objects += s.objects
		walls[i], cals[i] = s.wall.Seconds(), calibrated(s.wall, s.kernel)
		kernels[i], peaks[i] = s.kernel.Seconds(), float64(s.heapPeak)
		wallSum += walls[i]
		calSum += cals[i]
	}
	res.set(endToEnd, "setup_s", setupS.calibrated)
	res.set(endToEnd, "iter_per_s", float64(iters)/calSum)
	res.set(endToEnd, "op_s_p50", quantile(cals, 0.5))
	res.set(endToEnd, "op_s_p90", quantile(cals, 0.9))
	res.set(endToEnd, "alloc_mb_per_kiter", float64(bytes)/1e6/(float64(iters)/1000))
	res.set(endToEnd, "allocs_per_iter", float64(objects)/float64(iters))
	res.set(endToEnd, "heap_peak_mb", median(peaks)/1e6)
	res.setExtra("wall.setup_s", setupS.wall)
	res.setExtra("wall.iter_per_s", float64(iters)/wallSum)
	res.setExtra("wall.op_s_p50", quantile(walls, 0.5))
	res.setExtra("wall.op_s_p90", quantile(walls, 0.9))
	res.setExtra("calib.kernel_ms", median(kernels)*1000)
	return res, nil
}

// heapSampler records the high-water mark of heap object bytes (live
// and not yet swept) within a window, sampled every 5 ms. One window
// spans one op; heap_peak_mb is the median over ops, because a single
// run-wide maximum hangs on where one GC cycle happened to fall.
type heapSampler struct {
	stopc, done chan struct{}
	high        atomic.Uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func heapBytes(sample []metrics.Sample) uint64 {
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			h.raise(heapBytes(sample))
			select {
			case <-h.stopc:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) raise(v uint64) {
	for cur := h.high.Load(); v > cur && !h.high.CompareAndSwap(cur, v); cur = h.high.Load() {
	}
}

// reset starts a window at the current heap size.
func (h *heapSampler) reset() {
	h.high.Store(heapBytes([]metrics.Sample{{Name: heapMetric}}))
}

// peak returns the window's high-water mark in bytes.
func (h *heapSampler) peak() uint64 {
	h.raise(heapBytes([]metrics.Sample{{Name: heapMetric}}))
	return h.high.Load()
}

// stop ends sampling and waits for the sampler to exit.
func (h *heapSampler) stop() {
	close(h.stopc)
	<-h.done
}

// quantile interpolates linearly between the closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles are the first and third quartiles by the "exclusive" method
// (Python's statistics.quantiles(xs, n=4)), the spread the comparator
// and the benchmark's acceptance both use.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}
