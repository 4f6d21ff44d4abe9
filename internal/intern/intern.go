// Package intern provides a string interning table: a bijective
// string <-> uint32 id mapping that lets hot aggregation code replace
// map[string]-keyed state with integer-keyed state.
//
// The analysis fold resolves the same few thousand distinct strings —
// token values, hostnames, cookie names, path keys — millions of times
// per crawl. Hashing a string once at first sight and carrying a dense
// uint32 id afterwards turns every subsequent set membership test,
// counter bump, and grouping key into integer map work (or an array
// index), and shrinks retained state from string-headed maps the GC
// must scan to flat integer structures it can skip.
//
// A Table is not safe for concurrent use; give each accumulator its
// own and reconcile across tables by string (see Table.Str) when
// merging shards.
package intern

// None is the sentinel id returned by Lookup for unknown strings. Valid
// ids are dense and start at 0, so None can never collide with one
// until a table holds 2^32-1 distinct strings.
const None = ^uint32(0)

// Table maps distinct strings to dense uint32 ids (first interned = 0).
type Table struct {
	ids  map[string]uint32
	strs []string
}

// New returns an empty table.
func New() *Table {
	return &Table{ids: make(map[string]uint32)}
}

// ID returns the id for s, interning it on first sight.
func (t *Table) ID(s string) uint32 {
	if id, ok := t.ids[s]; ok {
		return id
	}
	id := uint32(len(t.strs))
	t.strs = append(t.strs, s)
	t.ids[s] = id
	return id
}

// IDBytes is ID for a byte-slice key (scratch buffers building composite
// keys). The lookup allocates nothing on a hit; the string is
// materialised only when b is seen for the first time.
func (t *Table) IDBytes(b []byte) uint32 {
	if id, ok := t.ids[string(b)]; ok {
		return id
	}
	s := string(b)
	id := uint32(len(t.strs))
	t.strs = append(t.strs, s)
	t.ids[s] = id
	return id
}

// Lookup returns the id for s without interning, or None when s has
// never been interned.
func (t *Table) Lookup(s string) uint32 {
	if id, ok := t.ids[s]; ok {
		return id
	}
	return None
}

// Str returns the string with the given id. It panics for ids the table
// never issued, exactly like an out-of-range slice index.
func (t *Table) Str(id uint32) string { return t.strs[id] }

// Len reports how many distinct strings have been interned. Ids are
// dense: every id < Len() is valid.
func (t *Table) Len() int { return len(t.strs) }

// Import interns every string of src into t, in src's id order, and
// returns the translation: xlate[id] is t's id for src.Str(id). A merge
// that re-keys state from src's id space into t's builds it once and
// then translates each id by slice index, so each distinct string is
// hashed once per merge however many ids name it. t may be src (the
// identity translation).
func (t *Table) Import(src *Table) []uint32 {
	xlate := make([]uint32, len(src.strs))
	for id, s := range src.strs {
		xlate[id] = t.ID(s)
	}
	return xlate
}

// Translate copies ids, translated through xlate (an Import result), to
// the head of *arena, returns that window capped at its length (nil for
// no ids) and advances *arena past it. Merges copy many small id lists
// into one arena this way; the cap makes a later append to one list
// reallocate instead of overwriting the next list's ids. xlate is
// injective, so distinct ids stay distinct.
func Translate(arena *[]uint32, ids, xlate []uint32) []uint32 {
	if len(ids) == 0 {
		return nil
	}
	out := (*arena)[:len(ids):len(ids)]
	*arena = (*arena)[len(ids):]
	for i, id := range ids {
		out[i] = xlate[id]
	}
	return out
}
