package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"searchads/internal/crawler"
)

// studySnapshot builds the study snapshot a run with this emitted
// prefix checkpoints.
func studySnapshot(configHash string, prefix []*crawler.Iteration) *Snapshot {
	cursor := make(map[string]int)
	for _, it := range prefix {
		cursor[it.Engine]++
	}
	return &Snapshot{
		Kind:       "study",
		ConfigHash: configHash,
		Study:      &StudyState{Cursor: cursor, Iterations: prefix},
	}
}

func sampleSnapshot(t *testing.T) *Snapshot {
	t.Helper()
	prefix := []*crawler.Iteration{
		{Engine: "bing", Index: 0, Instance: "bing-0000", Query: "q0", ClickedAd: -1},
		{Engine: "bing", Index: 1, Instance: "bing-0001", Query: "q1", ClickedAd: 0,
			DisplayedAds: []crawler.AdRecord{{Href: "https://x/", LandingDomain: "shop.example", Position: 1}}},
		{Engine: "google", Index: 0, Instance: "google-0000", Query: "q0", ClickedAd: -1},
	}
	return studySnapshot("deadbeef", prefix)
}

func TestSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	want := sampleSnapshot(t)
	if err := Save(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Verify("study", "deadbeef"); err != nil {
		t.Fatal(err)
	}
	if got.Study.Cursor["bing"] != 2 || got.Study.Cursor["google"] != 1 {
		t.Fatalf("cursor round-trip lost counts: %v", got.Study.Cursor)
	}
	if len(got.Study.Iterations) != 3 || got.Study.Iterations[1].DisplayedAds[0].LandingDomain != "shop.example" {
		t.Fatal("iteration prefix did not round-trip")
	}
}

func TestLoadMissingIsNotExist(t *testing.T) {
	_, err := Load(filepath.Join(t.TempDir(), "nope.ckpt"))
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing checkpoint: got %v, want fs.ErrNotExist", err)
	}
}

// TestLoadCorruptForms drives every structural failure mode through
// Load and asserts each surfaces the typed corrupt error — never a
// parse of damaged state.
func TestLoadCorruptForms(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	if err := Save(path, sampleSnapshot(t)); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":          {},
		"short header":   good[:10],
		"bad magic":      append([]byte("JUNK"), good[4:]...),
		"truncated tail": good[:len(good)-7],
		"flipped bit":    flip(good, len(good)-3),
		"flipped crc":    flip(good, 17),
		"length lies":    lie(good),
		"garbage json":   frame(good, []byte("}{ not json")),
		// A sweep cell whose prefix holds a null iteration: valid JSON
		// with a matching CRC, but nothing a resume can fast-forward.
		"null cell iteration": frame(good, []byte(`{"kind":"sweep","config_hash":"x","sweep":{"cells":[{"scenario":"s","seed":1,"iterations":[null]}]}}`)),
	}
	for name, data := range cases {
		p := filepath.Join(dir, strings.ReplaceAll(name, " ", "_"))
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Load(p)
		if !errors.Is(err, ErrCheckpointCorrupt) {
			t.Fatalf("%s: got %v, want ErrCheckpointCorrupt", name, err)
		}
	}
}

func flip(b []byte, i int) []byte {
	out := bytes.Clone(b)
	out[i] ^= 0x40
	return out
}

func lie(b []byte) []byte {
	out := bytes.Clone(b)
	binary.LittleEndian.PutUint64(out[8:16], 1<<40)
	return out
}

// frame keeps the header shape of b valid (length and CRC match) around
// another payload: the CRC passes, so the parse or the validation must
// refuse it, typed.
func frame(b, payload []byte) []byte {
	out := bytes.Clone(b[:20])
	binary.LittleEndian.PutUint64(out[8:16], uint64(len(payload)))
	binary.LittleEndian.PutUint32(out[16:20], crcOf(payload))
	return append(out, payload...)
}

func crcOf(b []byte) uint32 {
	return crc32.ChecksumIEEE(b)
}

// TestLoadFutureVersion: a header in any other format revision is
// refused — a later one, and version 1, whose iterations crawled under
// faults may lack the outcome stamp a resume would join them to.
func TestLoadFutureVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "other.ckpt")
	if err := Save(path, sampleSnapshot(t)); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	for _, v := range []uint32{1, FormatVersion + 1} {
		binary.LittleEndian.PutUint32(data[4:8], v)
		os.WriteFile(path, data, 0o644)
		if _, err := Load(path); !errors.Is(err, ErrCheckpointVersion) {
			t.Fatalf("version %d: got %v, want ErrCheckpointVersion", v, err)
		}
	}
}

func TestVerifyMismatch(t *testing.T) {
	s := sampleSnapshot(t)
	if err := s.Verify("study", "cafef00d"); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("hash mismatch: got %v, want ErrCheckpointMismatch", err)
	}
	if err := s.Verify("sweep", "deadbeef"); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("kind mismatch: got %v, want ErrCheckpointMismatch", err)
	}
	if err := s.Verify("study", "deadbeef"); err != nil {
		t.Fatalf("matching snapshot refused: %v", err)
	}
}

// TestCursorPrefixDisagreement pins the cross-check: a cursor that
// does not match the stored prefix is corruption, not a resume.
func TestCursorPrefixDisagreement(t *testing.T) {
	s := sampleSnapshot(t)
	s.Study.Cursor["bing"] = 7
	path := filepath.Join(t.TempDir(), "bad.ckpt")
	if err := Save(path, s); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("cursor/prefix disagreement: got %v, want ErrCheckpointCorrupt", err)
	}
}

// TestSaveAtomicReplacement overwrites a checkpoint many times and
// asserts the destination always holds a complete, loadable snapshot —
// and that no temp litter survives.
func TestSaveAtomicReplacement(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	for i := 0; i < 20; i++ {
		s := sampleSnapshot(t)
		s.ConfigHash = strings.Repeat("a", i+1)
		if err := Save(path, s); err != nil {
			t.Fatal(err)
		}
		got, err := Load(path)
		if err != nil {
			t.Fatalf("after save %d: %v", i, err)
		}
		if got.ConfigHash != s.ConfigHash {
			t.Fatalf("after save %d: stale snapshot visible", i)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp files left behind: %d entries in dir", len(entries))
	}
}

func TestRemoveTolerant(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := Remove(path); err != nil {
		t.Fatalf("removing a missing checkpoint: %v", err)
	}
	if err := Save(path, sampleSnapshot(t)); err != nil {
		t.Fatal(err)
	}
	if err := Remove(path); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
		t.Fatal("checkpoint survived Remove")
	}
}

func TestHashConfigStable(t *testing.T) {
	type digest struct {
		Seed    int64
		Engines []string
		Rates   map[string]float64
	}
	a, err := HashConfig(digest{Seed: 1, Engines: []string{"bing"}, Rates: map[string]float64{"x": 1, "y": 2}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := HashConfig(digest{Seed: 1, Engines: []string{"bing"}, Rates: map[string]float64{"y": 2, "x": 1}})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("equal configs hash differently")
	}
	c, _ := HashConfig(digest{Seed: 2, Engines: []string{"bing"}})
	if a == c {
		t.Fatal("different configs hash equally")
	}
}

// FuzzDecode throws arbitrary bytes at the checkpoint decoder: it must
// either return a valid snapshot or a typed error — never panic, and
// never return damaged state as if it were sound.
func FuzzDecode(f *testing.F) {
	path := filepath.Join(f.TempDir(), "seed.ckpt")
	prefix := []*crawler.Iteration{{Engine: "bing", Index: 0, Instance: "bing-0000", ClickedAd: -1}}
	if err := Save(path, studySnapshot("hash", prefix)); err != nil {
		f.Fatal(err)
	}
	good, _ := os.ReadFile(path)
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte("SACK"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err == nil {
			if s == nil || (s.Kind != "study" && s.Kind != "sweep") {
				t.Fatal("Decode returned success with invalid snapshot")
			}
			return
		}
		if !errors.Is(err, ErrCheckpointCorrupt) && !errors.Is(err, ErrCheckpointVersion) {
			t.Fatalf("untyped decode error: %v", err)
		}
	})
}
