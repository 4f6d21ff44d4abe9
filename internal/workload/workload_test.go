package workload

import (
	"slices"
	"strings"
	"testing"

	"searchads/internal/detrand"
)

func TestGenerateDistinctAndDeterministic(t *testing.T) {
	seed := detrand.New(5)
	qs := Generate(Mixed, seed, 500)
	if len(qs) != 500 {
		t.Fatalf("generated %d queries, want 500", len(qs))
	}
	seen := map[string]bool{}
	for _, q := range qs {
		if seen[q] {
			t.Fatalf("duplicate query %q", q)
		}
		seen[q] = true
		if strings.TrimSpace(q) == "" {
			t.Fatal("empty query")
		}
	}
	again := Generate(Mixed, detrand.New(5), 500)
	for i := range qs {
		if qs[i] != again[i] {
			t.Fatal("generation not deterministic")
		}
	}
}

func TestGenerateKinds(t *testing.T) {
	for _, kind := range []Kind{Trending, Movies} {
		qs := Generate(kind, detrand.New(9), 100)
		if len(qs) != 100 {
			t.Fatalf("kind %d: %d queries", kind, len(qs))
		}
	}
	// Different seeds produce different corpora.
	a := Generate(Trending, detrand.New(1), 50)
	b := Generate(Trending, detrand.New(2), 50)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds gave identical corpus")
	}
}

func TestVocabularyCoversQueries(t *testing.T) {
	vocab := map[string]bool{}
	for _, w := range Vocabulary() {
		vocab[w] = true
	}
	for _, q := range Generate(Mixed, detrand.New(3), 200) {
		for _, term := range strings.Fields(q) {
			// Connective words and years are allowed gaps.
			switch term {
			case "in", "of", "the", "movie", "2020", "2021", "2022":
				continue
			}
			if !vocab[term] {
				t.Errorf("term %q not in vocabulary", term)
			}
		}
	}
}

func TestProductsCopy(t *testing.T) {
	p := Products()
	p[0] = "mutated"
	if Products()[0] == "mutated" {
		t.Fatal("Products must return a copy")
	}
}

// refGenerate is Generate before it stopped at the corpus size: it
// samples until it has n queries or has made n*100 attempts.
func refGenerate(kind Kind, seed detrand.Source, n int) []string {
	g := seed.Derive("workload").Rand()
	r := &g
	seen := make(map[string]bool, n)
	out := make([]string, 0, n)
	for attempt := 0; len(out) < n && attempt < n*100; attempt++ {
		k := kind
		if kind == Mixed {
			if r.Intn(2) == 0 {
				k = Trending
			} else {
				k = Movies
			}
		}
		var q string
		if k == Trending {
			q = trendingQuery(r)
		} else {
			q = movieQuery(r)
		}
		if !seen[q] {
			seen[q] = true
			out = append(out, q)
		}
	}
	return out
}

// TestGenerateStopsAtCardinality holds Generate to the sampling loop it
// shortened: for every kind, below, at and past the corpus size, it
// returns the reference's queries in the reference's order, and past
// the size that is the whole corpus.
func TestGenerateStopsAtCardinality(t *testing.T) {
	if got := Cardinality(Mixed); got != 1452 {
		t.Fatalf("Cardinality(Mixed) = %d, want 1452", got)
	}
	for _, kind := range []Kind{Trending, Movies, Mixed} {
		size := Cardinality(kind)
		for _, n := range []int{0, 100, size - 1, size, size + 1, 5000} {
			got, want := Generate(kind, detrand.New(7), n), refGenerate(kind, detrand.New(7), n)
			if !slices.Equal(got, want) {
				t.Fatalf("kind %d, n = %d: %d queries, reference %d (or a different order)", kind, n, len(got), len(want))
			}
			if len(got) != min(n, size) {
				t.Fatalf("kind %d, n = %d: %d queries, want %d", kind, n, len(got), min(n, size))
			}
		}
	}
}
