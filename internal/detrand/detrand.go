// Package detrand provides deterministic, hierarchically-derived random
// sources. Every stochastic choice in the simulated world (which ad-tech
// stack a campaign uses, which trackers an advertiser embeds, identifier
// values) draws from a source derived from (seed, labels...), so the same
// study configuration always produces byte-identical datasets — the
// property the README leads with and the test suite asserts.
//
// # Generator choice and determinism contract
//
// Gen, the package's generator, is a splitmix64 output stream (Steele,
// Lea & Flood, OOPSLA 2014): 8 bytes of state, an add and three
// xor-shift-multiplies per output. It was chosen over math/rand because
// the simulator derives a *fresh* generator per stochastic choice — the
// derivation path, not generator state, carries determinism — and
// rand.NewSource pays an O(607)-word lagged-Fibonacci state
// initialization plus a ~5 KiB allocation per source. A crawl profile
// showed 43% of CPU inside rand.(*rngSource).Seed. Gen seeds in O(1)
// and allocates nothing.
//
// The contract: for a fixed Source seed and derivation path, every Gen
// output, Token value, and helper (Pick, Bernoulli) is a pure function
// of (seed, labels...) and is pinned by the stream-snapshot test in
// detrand_test.go. Changing the generator, the derivation hash, or the
// reduction algorithms (Intn, Float64, Shuffle) silently re-rolls every
// dataset the simulator can produce; the snapshot test turns that into
// a loud failure so it can only happen deliberately.
package detrand

import (
	"math/bits"
	"strconv"
	"strings"
	"sync"
)

// FNV-1a constants used by the derivation hash (identical to hash/fnv,
// inlined so derivation allocates nothing).
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// Source derives seeds for labelled sub-streams. It is an 8-byte value:
// copy it freely, compare it with ==. The zero value is a valid source
// (the stream rooted at seed 0).
type Source struct {
	seed uint64
}

// New returns a Source rooted at seed.
func New(seed int64) Source { return Source{seed: uint64(seed)} }

// hashSeed begins an FNV-1a derivation over the parent seed's
// little-endian bytes, matching the package's original hash/fnv-based
// derivation byte for byte.
func hashSeed(seed uint64) uint64 {
	h := fnvOffset64
	for i := 0; i < 8; i++ {
		h = (h ^ (seed & 0xff)) * fnvPrime64
		seed >>= 8
	}
	return h
}

// hashLabel folds a 0 separator and the label bytes into h.
func hashLabel(h uint64, label string) uint64 {
	h = (h ^ 0) * fnvPrime64
	for i := 0; i < len(label); i++ {
		h = (h ^ uint64(label[i])) * fnvPrime64
	}
	return h
}

// Derive returns a child Source whose stream is independent of (but fully
// determined by) the parent and the labels. It allocates nothing.
func (s Source) Derive(labels ...string) Source {
	h := hashSeed(s.seed)
	for _, l := range labels {
		h = hashLabel(h, l)
	}
	return Source{seed: h}
}

// DeriveN is Derive with an integer label, convenient for per-iteration
// streams. Equivalent to Derive(label, strconv.Itoa(n)) without the
// allocation.
func (s Source) DeriveN(label string, n int) Source {
	h := hashLabel(hashSeed(s.seed), label)
	var buf [20]byte
	digits := strconv.AppendInt(buf[:0], int64(n), 10)
	h = (h ^ 0) * fnvPrime64
	for _, c := range digits {
		h = (h ^ uint64(c)) * fnvPrime64
	}
	return Source{seed: h}
}

// Rand returns a Gen positioned at the start of this source's stream.
// Each call returns an independent generator replaying the same stream.
func (s Source) Rand() Gen { return Gen{state: s.seed} }

// Uint64 returns the source's raw seed material (for identifier minting).
func (s Source) Uint64() uint64 { return s.seed }

// Token returns a deterministic pseudo-random identifier of n characters
// drawn from alphabet. It is used to mint cookie values, click IDs, and
// other tokens; values are high-entropy and unique per derivation path,
// matching how real ad systems mint identifiers.
func (s Source) Token(n int, alphabet string) string {
	g := s.Rand()
	var b strings.Builder
	b.Grow(n)
	for i := 0; i < n; i++ {
		b.WriteByte(alphabet[g.Intn(len(alphabet))])
	}
	return b.String()
}

// Gen is the package's generator: a splitmix64 output stream. The zero
// value is the stream rooted at seed 0. Methods mutate the 8-byte state
// in place, so a Gen seeds in O(1) and allocates nothing; obtain one
// from Source.Rand. *Gen implements Rng.
type Gen struct {
	state uint64
}

// Uint64 returns the next 64 uniformly random bits.
func (g *Gen) Uint64() uint64 {
	g.state += 0x9e3779b97f4a7c15
	z := g.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Int63 returns a non-negative 63-bit integer.
func (g *Gen) Int63() int64 { return int64(g.Uint64() >> 1) }

// uint64n returns a uniform value in [0, n) using Lemire's unbiased
// multiply-shift reduction (the same algorithm as math/rand/v2).
func (g *Gen) uint64n(n uint64) uint64 {
	hi, lo := bits.Mul64(g.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(g.Uint64(), n)
		}
	}
	return hi
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (g *Gen) Intn(n int) int {
	if n <= 0 {
		panic("detrand: Intn with non-positive n")
	}
	return int(g.uint64n(uint64(n)))
}

// Float64 returns a uniform float64 in [0, 1).
func (g *Gen) Float64() float64 {
	return float64(g.Uint64()>>11) / (1 << 53)
}

// Shuffle pseudo-randomizes the order of n elements via Fisher–Yates.
func (g *Gen) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := g.Intn(i + 1)
		swap(i, j)
	}
}

// Perm returns a random permutation of [0, n).
func (g *Gen) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := g.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Alphabets used by identifier minting across the ad platforms.
const (
	AlphaNum      = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"
	AlphaNumDash  = AlphaNum + "-_"
	HexLower      = "0123456789abcdef"
	Base64URLLike = AlphaNum + "-_"
)

// Rng is the minimal random interface the samplers need; *Gen satisfies
// it (and so does *math/rand.Rand).
type Rng interface {
	Intn(n int) int
	Float64() float64
}

// Pick returns an index in [0, len(weights)) with probability proportional
// to weights[i]. It panics if weights is empty or sums to zero, which is a
// calibration error.
func Pick(r Rng, weights []float64) int {
	var sum float64
	for _, w := range weights {
		sum += w
	}
	if len(weights) == 0 || sum <= 0 {
		panic("detrand: Pick needs positive weights")
	}
	x := r.Float64() * sum
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// Bernoulli returns true with probability p.
func Bernoulli(r Rng, p float64) bool { return r.Float64() < p }

// Seq hands out per-label sequence numbers: Next("x") returns 1, 2, 3…
// independently for each label. The simulated origin servers key their
// identifier-minting streams by (label, serial) where the label is the
// requesting crawl instance, so a server shared by concurrently-crawled
// engines mints the same values regardless of how the engines' requests
// interleave — the property that makes Parallel crawls byte-identical
// to sequential ones. Safe for concurrent use.
type Seq struct {
	mu sync.Mutex
	n  map[string]int
}

// Next returns the label's next serial, starting at 1.
func (q *Seq) Next(label string) int {
	q.mu.Lock()
	if q.n == nil {
		q.n = make(map[string]int)
	}
	q.n[label]++
	v := q.n[label]
	q.mu.Unlock()
	return v
}
