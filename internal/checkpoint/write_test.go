package checkpoint

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"maps"
	"os"
	"path/filepath"
	"testing"

	"searchads/internal/crawler"
	"searchads/internal/netsim"
	"searchads/internal/websim"
)

// marshalFrame is the reference file form: the header framing
// json.Marshal(s), built independently of the writer.
func marshalFrame(t *testing.T, s *Snapshot) []byte {
	t.Helper()
	payload, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, headerSize, headerSize+len(payload))
	copy(buf[0:4], magic[:])
	binary.LittleEndian.PutUint32(buf[4:8], FormatVersion)
	binary.LittleEndian.PutUint64(buf[8:16], uint64(len(payload)))
	binary.LittleEndian.PutUint32(buf[16:20], crc32.ChecksumIEEE(payload))
	return append(buf, payload...)
}

func assertFile(t *testing.T, path string, want []byte, what string) {
	t.Helper()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("%s: file differs from json.Marshal's frame at byte %d (%d vs %d bytes)", what, i, len(got), len(want))
	}
	if _, err := Decode(got); err != nil {
		t.Fatalf("%s: written file does not load: %v", what, err)
	}
}

// escapingIterations are iterations whose strings json.Marshal escapes:
// HTML characters, quotes, backslashes, control and line-separator
// runes, and non-ASCII text, plus sorted map keys.
func escapingIterations() []*crawler.Iteration {
	var its []*crawler.Iteration
	for i, engine := range []string{"bing", "google", "bing", "qwant", "google", "bing"} {
		its = append(its, &crawler.Iteration{
			Engine: engine, Index: i, Instance: fmt.Sprintf("%s-%04d", engine, i),
			Query:     fmt.Sprintf(`<script>"q%d" & 'x' \ 日本`, i) + "\u2028\u2029\x00\x1f",
			ClickedAd: i%2 - 1,
			SERPRequests: []crawler.RequestRecord{{
				URL: "https://t.example/p?a=1&b=<2>", Method: "GET", Type: "script",
				Cookies: map[string]string{"z": `}"`, "a": "{[", "m": "\xff"},
			}},
			DisplayedAds: []crawler.AdRecord{{Href: "https://ad.example/?u=%3Cx%3E", LandingDomain: "shop.example", Position: 1}},
			Hops:         []crawler.HopRecord{{URL: `https://r.example/"\"`, Status: 302, Mechanism: "http", Retries: i}},
			Error:        []string{"dns: <no such host>", "", ""}[i%3],
		})
	}
	return its
}

// TestWriterByteIdenticalToMarshal pins the append-only writer to the
// file json.Marshal(snapshot) frames: study prefixes empty, growing one
// iteration at a time, and resumed (restored in one Append, then
// growing), and sweep snapshots with pending, done and in-flight cells.
func TestWriterByteIdenticalToMarshal(t *testing.T) {
	dir := t.TempDir()
	its := escapingIterations()
	w := Writer{Path: filepath.Join(dir, "w.ckpt"), ConfigHash: "h<&>"}

	for _, restored := range []int{0, 3} {
		var p Prefix
		if err := w.Append(&p, its[:restored]...); err != nil {
			t.Fatal(err)
		}
		for n := restored; n <= len(its); n++ {
			if n > restored {
				if err := w.Append(&p, its[n-1]); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.WriteStudy(&p); err != nil {
				t.Fatal(err)
			}
			var want []*crawler.Iteration // a live run's empty prefix is nil
			if n > 0 {
				want = its[:n]
			}
			assertFile(t, w.Path, marshalFrame(t, studySnapshot(w.ConfigHash, want)),
				fmt.Sprintf("study restored=%d n=%d", restored, n))
		}
	}

	result, err := json.Marshal(map[string]any{"scenario": "<a&b>", "metrics": map[string]float64{"z": 0.5, "a": 1e-9}})
	if err != nil {
		t.Fatal(err)
	}
	// Per cell: how many iterations it has crawled (-1 = done).
	shapes := [][]int{
		{},
		{0, 0},
		{-1, -1},
		{2, 0, -1},
		{0, 6, 1, -1},
		{-1, 3, 3, 0},
	}
	for si, shape := range shapes {
		var cells, ref []CellState
		var prefixes [][]byte
		for i, n := range shape {
			c := CellState{Scenario: fmt.Sprintf("s<%d>", i), Seed: int64(i) - 1}
			if n < 0 {
				c.Done, c.Result = true, result
			}
			var p Prefix
			if n > 0 {
				if err := w.Append(&p, its[:n]...); err != nil {
					t.Fatal(err)
				}
			}
			cells = append(cells, c)
			prefixes = append(prefixes, p.Bytes())
			if n > 0 {
				c.Iterations = its[:n]
			}
			ref = append(ref, c)
		}
		if cells == nil {
			cells, ref = []CellState{}, []CellState{}
		}
		if err := w.WriteSweep(cells, prefixes); err != nil {
			t.Fatal(err)
		}
		want := &Snapshot{Kind: "sweep", ConfigHash: w.ConfigHash, Sweep: &SweepState{Cells: ref}}
		assertFile(t, w.Path, marshalFrame(t, want), fmt.Sprintf("sweep shape %d", si))
	}
}

// TestSaveByteIdenticalToMarshal pins Save, the writer's wrapper for a
// whole snapshot, to json.Marshal on the shapes only a caller-built
// snapshot has: empty non-nil slices, nil cells, and a cursor that
// disagrees with its prefix.
func TestSaveByteIdenticalToMarshal(t *testing.T) {
	its := escapingIterations()
	bad := studySnapshot("h", its)
	bad.Study.Cursor["bing"] = 99
	snaps := map[string]*Snapshot{
		"study nil":    studySnapshot("h", nil),
		"study empty":  studySnapshot("h", []*crawler.Iteration{}),
		"study full":   studySnapshot("h", its),
		"study cursor": bad,
		"sweep nil":    {Kind: "sweep", ConfigHash: "h", Sweep: &SweepState{}},
		"sweep empty":  {Kind: "sweep", ConfigHash: "h", Sweep: &SweepState{Cells: []CellState{}}},
		"sweep in-flight": {Kind: "sweep", ConfigHash: "h", Sweep: &SweepState{Cells: []CellState{
			{Scenario: "a", Seed: 1, Iterations: []*crawler.Iteration{}},
			{Scenario: "b", Seed: 2, Done: true, Result: json.RawMessage(`{"x":[1,2]}`)},
			{Scenario: "c", Seed: 3, Iterations: its[2:5]},
		}}},
	}
	dir := t.TempDir()
	for name, s := range snaps {
		path := filepath.Join(dir, "s.ckpt")
		if err := Save(path, s); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if want := marshalFrame(t, s); !bytes.Equal(got, want) {
			t.Fatalf("%s: Save differs from json.Marshal's frame", name)
		}
	}
}

// TestAppendNilIteration: a nil iteration is an error and leaves the
// prefix as it was, even when iterations before it in the same Append
// were encoded.
func TestAppendNilIteration(t *testing.T) {
	its := escapingIterations()
	var w Writer
	var p Prefix
	if err := w.Append(&p, its[0]); err != nil {
		t.Fatal(err)
	}
	before := p.Bytes()
	if err := w.Append(&p, its[1], nil, its[2]); err == nil {
		t.Fatal("Append accepted a nil iteration")
	}
	if !bytes.Equal(p.Bytes(), before) {
		t.Fatalf("failed Append changed the prefix to %q", p.Bytes())
	}
	if want := map[string]int{its[0].Engine: 1}; !maps.Equal(p.cursor, want) {
		t.Fatalf("failed Append moved the cursor to %v", p.cursor)
	}
}

// BenchmarkPrefixAppend times encoding a 180-iteration hostile crawl
// onto a fresh Prefix one iteration at a time, as a checkpointed
// hostile-batch run does.
func BenchmarkPrefixAppend(b *testing.B) {
	rates, err := netsim.ProfileRates("bot-hostile", 0.05)
	if err != nil {
		b.Fatal(err)
	}
	adv, err := netsim.PostureConfig("strict")
	if err != nil {
		b.Fatal(err)
	}
	cm, err := crawler.CountermeasureBundle("full")
	if err != nil {
		b.Fatal(err)
	}
	world := websim.NewWorld(websim.Config{Seed: 5, Engines: []string{"bing", "google", "duckduckgo"}, QueriesPerEngine: 60,
		Faults: netsim.FaultPlan{Rates: rates, Adversary: adv}})
	ds, err := crawler.New(crawler.Config{World: world, Countermeasures: cm}).Run(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	var w Writer
	size := 0
	b.ReportAllocs()
	for b.Loop() {
		var p Prefix
		for _, it := range ds.Iterations {
			if err := w.Append(&p, it); err != nil {
				b.Fatal(err)
			}
		}
		size = len(p.Bytes())
	}
	b.SetBytes(int64(size))
}
