package intern

import "testing"

func TestTable(t *testing.T) {
	tab := New()
	a := tab.ID("alpha")
	b := tab.ID("beta")
	if a == b {
		t.Fatalf("distinct strings share id %d", a)
	}
	if got := tab.ID("alpha"); got != a {
		t.Fatalf("re-intern changed id: %d vs %d", got, a)
	}
	if tab.Str(a) != "alpha" || tab.Str(b) != "beta" {
		t.Fatalf("round-trip broken: %q %q", tab.Str(a), tab.Str(b))
	}
	if tab.Len() != 2 {
		t.Fatalf("len = %d, want 2", tab.Len())
	}
	if got := tab.Lookup("gamma"); got != None {
		t.Fatalf("Lookup(unknown) = %d, want None", got)
	}
	if got := tab.Lookup("beta"); got != b {
		t.Fatalf("Lookup(beta) = %d, want %d", got, b)
	}
}

func TestIDBytes(t *testing.T) {
	tab := New()
	id := tab.IDBytes([]byte("key\x00parts"))
	if got := tab.ID("key\x00parts"); got != id {
		t.Fatalf("IDBytes and ID disagree: %d vs %d", got, id)
	}
	buf := []byte("mutable")
	id2 := tab.IDBytes(buf)
	buf[0] = 'X' // the table must have copied, not aliased
	if tab.Str(id2) != "mutable" {
		t.Fatalf("table aliased caller scratch: %q", tab.Str(id2))
	}
	if got := tab.IDBytes([]byte("mutable")); got != id2 {
		t.Fatalf("IDBytes lookup after mutation = %d, want %d", got, id2)
	}
}

func TestIDsAreDense(t *testing.T) {
	tab := New()
	for i, s := range []string{"a", "b", "c", "d"} {
		if id := tab.ID(s); id != uint32(i) {
			t.Fatalf("id for %q = %d, want %d", s, id, i)
		}
	}
}

func TestImport(t *testing.T) {
	dst, src := New(), New()
	dst.ID("shared")
	dst.ID("dst-only")
	for _, s := range []string{"src-only", "shared", "other"} {
		src.ID(s)
	}
	xlate := dst.Import(src)
	if len(xlate) != src.Len() {
		t.Fatalf("len(xlate) = %d, want %d", len(xlate), src.Len())
	}
	for id := range xlate {
		if got, want := dst.Str(xlate[id]), src.Str(uint32(id)); got != want {
			t.Fatalf("xlate[%d] names %q in dst, want %q", id, got, want)
		}
	}
	if dst.Len() != 4 {
		t.Fatalf("dst len after import = %d, want 4 (shared string interned once)", dst.Len())
	}
	for id, x := range dst.Import(dst) {
		if x != uint32(id) {
			t.Fatalf("self-import xlate[%d] = %d, want the identity", id, x)
		}
	}
}

// TestTranslateCapsWindows: each list translated into a shared arena
// gets a window capped at its length, so appending to one reallocates
// and leaves the next list's ids alone.
func TestTranslateCapsWindows(t *testing.T) {
	xlate := []uint32{10, 11, 12}
	arena := make([]uint32, 4)
	first := Translate(&arena, []uint32{0, 1}, xlate)
	second := Translate(&arena, []uint32{2, 0}, xlate)
	if Translate(&arena, nil, xlate) != nil || len(arena) != 0 {
		t.Fatalf("empty list got a window, or the arena was not consumed: %d left", len(arena))
	}
	if cap(first) != 2 || first[0] != 10 || first[1] != 11 {
		t.Fatalf("first = %v (cap %d), want [10 11] capped at 2", first, cap(first))
	}
	_ = append(first, 99)
	if second[0] != 12 || second[1] != 10 {
		t.Fatalf("append to the first window overwrote the second: %v", second)
	}
}
