package main

import (
	"crypto/sha256"
	"runtime"
	"slices"
	"sync"
	"time"
)

// Shared hosts change speed by 10–20% over minutes as neighbours come
// and go, which swamps any regression bound worth having. The harness
// therefore times a fixed calibration kernel after every op and reports
// op time in reference seconds: wall time × refKernel / kernel time,
// i.e. what the op would have taken on a machine running the kernel in
// refKernel. The kernel is harness code, so a library change cannot
// move it. It runs on every P at once, because a sequential op still
// leans on the other cores for garbage collection. Each copy mixes
// hashing, sorting and a pointer chase through 1 MiB, so it slows down
// with the CPU, the caches and memory alike, and allocates nothing; a
// forced collection before it keeps the op's garbage from competing
// with it. Raw wall times are kept beside the calibrated ones.
const refKernel = 10 * time.Millisecond

// kernelCycle is one cycle through all its slots in a scrambled order,
// so following it defeats the prefetcher. The copies share it read-only.
var kernelCycle = cyclePermutation(1 << 18)

// kernelData is one copy's private working set.
type kernelData struct {
	buf  []byte
	ints []int
	sink int
}

var kernels []*kernelData

func cyclePermutation(n int) []uint32 {
	order := make([]uint32, n)
	for i := range order {
		order[i] = uint32(i)
	}
	x := uint64(88172645463325252)
	for i := n - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i+1))
		order[i], order[j] = order[j], order[i]
	}
	next := make([]uint32, n)
	for i := range order {
		next[order[i]] = order[(i+1)%n]
	}
	return next
}

func (k *kernelData) run(seed int) {
	for r := 0; r < 8; r++ {
		sum := sha256.Sum256(k.buf)
		x := uint64(seed + r + 1)
		for i := range k.ints {
			x = x*6364136223846793005 + 1442695040888963407
			k.ints[i] = int(x >> 33)
		}
		slices.Sort(k.ints)
		p := uint32(seed + r)
		for i := 0; i < 1<<15; i++ {
			p = kernelCycle[p]
		}
		k.sink += int(sum[0]) + k.ints[7] + int(p)
	}
}

// calibrate collects garbage, then runs one kernel copy per P and
// returns the wall time until the last finishes. Callers run it from
// one goroutine.
func calibrate() time.Duration {
	runtime.GC()
	for len(kernels) < runtime.GOMAXPROCS(0) {
		kernels = append(kernels, &kernelData{buf: make([]byte, 1<<16), ints: make([]int, 1<<13)})
	}
	start := time.Now()
	var wg sync.WaitGroup
	for i, k := range kernels[:runtime.GOMAXPROCS(0)] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			k.run(i)
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// calibrated converts a wall time measured while the kernel took k into
// reference time.
func calibrated(wall, k time.Duration) float64 {
	return wall.Seconds() * float64(refKernel) / float64(k)
}
