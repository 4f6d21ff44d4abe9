// Package workload generates the search-query corpora driving the crawl.
// The paper samples 500 queries per engine "randomly ... from Google
// Trends and movie titles from MovieLens" (§3.1); offline, we generate
// trending-style and movie-title-style queries from seeded templates.
// Queries only steer ad selection and destination diversity, so the
// generators' job is cardinality and vocabulary spread, not realism of
// individual strings.
package workload

import (
	"fmt"
	"strings"

	"searchads/internal/detrand"
)

var (
	products = []string{
		"shoes", "laptop", "mattress", "headphones", "coffee", "sofa",
		"jacket", "watch", "camera", "bike", "perfume", "luggage",
		"sneakers", "monitor", "blender", "drone", "guitar", "tent",
	}
	modifiers = []string{
		"best", "cheap", "buy", "discount", "premium", "wireless",
		"organic", "vintage", "professional", "portable",
	}
	places = []string{
		"paris", "london", "montreal", "berlin", "tokyo", "madrid",
		"rome", "lisbon", "vienna", "dublin", "oslo", "prague",
	}
	topics = []string{
		"weather", "news", "flights", "hotels", "insurance", "recipes",
		"fitness", "streaming", "banking", "electric cars",
	}
	movieAdjectives = []string{
		"dark", "silent", "lost", "eternal", "broken", "hidden",
		"golden", "final", "distant", "burning", "frozen", "crimson",
	}
	movieNouns = []string{
		"kingdom", "river", "promise", "garden", "signal", "harbor",
		"voyage", "echo", "empire", "letter", "horizon", "orchard",
	}
)

// Kind selects a query corpus.
type Kind int

// Corpus kinds.
const (
	// Trending mimics Google Trends queries.
	Trending Kind = iota
	// Movies mimics MovieLens movie titles.
	Movies
	// Mixed interleaves both, like the paper's query set.
	Mixed
)

// Generate returns n distinct queries of the given kind, deterministic in
// the seed, or all of the kind's queries when n exceeds Cardinality:
// Trending has 1,020, Movies 432 and Mixed 1,452. A larger n yields the
// same queries as n = Cardinality(kind).
func Generate(kind Kind, seed detrand.Source, n int) []string {
	g := seed.Derive("workload").Rand()
	r := &g
	want := min(n, Cardinality(kind))
	seen := make(map[string]bool, want)
	out := make([]string, 0, want)
	for attempt := 0; len(out) < want && attempt < n*100; attempt++ {
		var q string
		k := kind
		if kind == Mixed {
			if r.Intn(2) == 0 {
				k = Trending
			} else {
				k = Movies
			}
		}
		switch k {
		case Trending:
			q = trendingQuery(r)
		default:
			q = movieQuery(r)
		}
		if !seen[q] {
			seen[q] = true
			out = append(out, q)
		}
	}
	return out
}

// years is how many release years trendingQuery's dated template picks
// from (2020 onwards).
const years = 3

// Cardinality is the number of distinct queries Generate can return for
// kind: the sum over the kind's templates of their word-list products.
// No two templates, and no two picks within one, spell the same query.
func Cardinality(kind Kind) int {
	trending := len(modifiers)*len(products)*(1+years) + // with and without a year
		len(topics)*len(places) + len(products)*len(topics)
	movies := 2*len(movieAdjectives)*len(movieNouns) + len(movieNouns)*len(movieNouns)
	switch kind {
	case Trending:
		return trending
	case Movies:
		return movies
	}
	return trending + movies
}

func trendingQuery(r interface{ Intn(int) int }) string {
	switch r.Intn(4) {
	case 0:
		return modifiers[r.Intn(len(modifiers))] + " " + products[r.Intn(len(products))]
	case 1:
		return topics[r.Intn(len(topics))] + " in " + places[r.Intn(len(places))]
	case 2:
		return modifiers[r.Intn(len(modifiers))] + " " + products[r.Intn(len(products))] + " " + fmt.Sprint(2020+r.Intn(years))
	default:
		return products[r.Intn(len(products))] + " " + topics[r.Intn(len(topics))]
	}
}

func movieQuery(r interface{ Intn(int) int }) string {
	switch r.Intn(3) {
	case 0:
		return "the " + movieAdjectives[r.Intn(len(movieAdjectives))] + " " + movieNouns[r.Intn(len(movieNouns))]
	case 1:
		return movieNouns[r.Intn(len(movieNouns))] + " of the " + movieNouns[r.Intn(len(movieNouns))]
	default:
		return movieAdjectives[r.Intn(len(movieAdjectives))] + " " + movieNouns[r.Intn(len(movieNouns))] + " movie"
	}
}

// Vocabulary returns the distinct lowercase terms the generators can
// emit. Campaign keyword assignment draws from this set so ads match
// queries.
func Vocabulary() []string {
	seen := map[string]bool{}
	var out []string
	add := func(words []string) {
		for _, w := range words {
			for _, part := range strings.Fields(w) {
				if !seen[part] {
					seen[part] = true
					out = append(out, part)
				}
			}
		}
	}
	add(products)
	add(modifiers)
	add(places)
	add(topics)
	add(movieAdjectives)
	add(movieNouns)
	return out
}

// Products returns the product vocabulary, the terms advertisers bid on.
func Products() []string { return append([]string(nil), products...) }
