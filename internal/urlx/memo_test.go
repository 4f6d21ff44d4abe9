package urlx

import (
	"fmt"
	"sync"
	"testing"
)

// TestRegistrableDomainMemoAgreement proves the memoised path returns
// exactly what the uncached suffix walk computes, across repeats.
func TestRegistrableDomainMemoAgreement(t *testing.T) {
	hosts := []string{
		"a.b.c.com", "x.co.uk", "deep.sub.domain.xg4ken.com", "netrk.net",
		"TRACKER.Example:8080", "10.0.0.1", "co.uk", "", "single",
		"weird..double.dots.com",
	}
	for round := 0; round < 3; round++ {
		for _, h := range hosts {
			if h == "" {
				continue
			}
			if got, want := RegistrableDomain(h), registrableDomain(h); got != want {
				t.Errorf("round %d: RegistrableDomain(%q) = %q, memo-less = %q", round, h, got, want)
			}
		}
	}
	if RegistrableDomain("") != "" {
		t.Error("empty host must stay empty")
	}
}

// TestRegistrableDomainMemoCollision alternates two hosts that share a
// memo slot: each lookup evicts the other, and each must still resolve
// to the uncached suffix walk's answer, also after a flood of four
// times as many distinct hosts as the table has slots. The table is a
// fixed array, so its size cannot change; the first check pins it.
func TestRegistrableDomainMemoCollision(t *testing.T) {
	if rdSlots&(rdSlots-1) != 0 || len(rdMemo) != rdSlots {
		t.Fatalf("memo has %d slots, want the power of two %d", len(rdMemo), rdSlots)
	}
	a := "a0.collide.example"
	var b string
	for i := 1; b == ""; i++ {
		if h := fmt.Sprintf("b%d.other.co.uk", i); rdSlot(h) == rdSlot(a) {
			b = h
		}
	}
	for round := 0; round < 10; round++ {
		for _, h := range []string{a, b} {
			if got, want := RegistrableDomain(h), registrableDomain(h); got != want {
				t.Fatalf("round %d: RegistrableDomain(%q) = %q, memo-less = %q", round, h, got, want)
			}
			if e := rdMemo[rdSlot(h)].Load(); e == nil || e.host != h {
				t.Fatalf("round %d: slot of %q does not hold it after a lookup", round, h)
			}
		}
	}
	for i := 0; i < 4*rdSlots; i++ {
		RegistrableDomain(fmt.Sprintf("flood%d.example", i))
	}
	if got := RegistrableDomain(b); got != "other.co.uk" {
		t.Fatalf("RegistrableDomain(%q) after flood = %q", b, got)
	}
}

// TestRegistrableDomainMemoConcurrent hammers the shared memo from many
// goroutines; run with -race.
func TestRegistrableDomainMemoConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				h := fmt.Sprintf("s%d.host%d.example", g, i%37)
				if got := RegistrableDomain(h); got != fmt.Sprintf("host%d.example", i%37) {
					t.Errorf("RegistrableDomain(%q) = %q", h, got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
