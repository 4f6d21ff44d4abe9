package crawler

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"searchads/internal/filterlist"
	"searchads/internal/netsim"
	"searchads/internal/websim"
)

// TestSaveByteIdenticalToMarshalIndent pins Save's bytes to the
// json.MarshalIndent(d, "", " ") form earlier releases wrote, on a
// clean crawl, a chaos crawl (stamped with the current version), a
// filter-annotated crawl, and a hand-built dataset whose strings need
// HTML and Unicode escaping.
func TestSaveByteIdenticalToMarshalIndent(t *testing.T) {
	rates, err := netsim.ProfileRates("bot-hostile", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	adv, err := netsim.PostureConfig("strict")
	if err != nil {
		t.Fatal(err)
	}
	cm, err := CountermeasureBundle("full")
	if err != nil {
		t.Fatal(err)
	}
	world := func(seed int64, faults netsim.FaultPlan) *websim.World {
		return websim.NewWorld(websim.Config{Seed: seed, Engines: []string{"bing", "google", "qwant"}, QueriesPerEngine: 4, Faults: faults})
	}
	datasets := map[string]*Dataset{
		"clean":  mustRun(t, Config{World: world(81, netsim.FaultPlan{})}),
		"chaos":  mustRun(t, Config{World: world(82, netsim.FaultPlan{Rates: rates, Adversary: adv}), Countermeasures: cm}),
		"filter": mustRun(t, Config{World: world(83, netsim.FaultPlan{}), Filter: filterlist.DefaultEngine()}),
		"escaping": {Seed: -1, StorageMode: "flat", Iterations: []*Iteration{
			{Engine: "bing", Query: `<b>"fish" & chips</b> \ 日本 ` + "\u2028\u2029\x01\t", ClickedAd: -1,
				SERPRequests: []RequestRecord{{URL: "https://x.example/?a=1&b=<2>", Cookies: map[string]string{"z": "}", "a": "{["}}},
				DisplayedAds: []AdRecord{}, Hops: []HopRecord{{URL: `https://y.example/"\"`, SetCookieNames: []string{}}}},
		}},
		"empty": {},
	}
	for name, ds := range datasets {
		path := filepath.Join(t.TempDir(), name+".json")
		if err := ds.Save(path); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.MarshalIndent(ds, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			t.Fatalf("%s: Save differs from json.MarshalIndent at byte %d of %d", name, i, len(want))
		}
	}
	if v := datasets["chaos"].Version; v != DatasetVersion {
		t.Fatalf("chaos dataset stamped version %d, want %d", v, DatasetVersion)
	}
	if !datasets["filter"].FilterAnnotated {
		t.Fatal("filter dataset is not annotated")
	}
}

// FuzzIndent checks the one-pass indenter against json.Indent on any
// valid JSON, compacted first as json.Marshal output is.
func FuzzIndent(f *testing.F) {
	for _, seed := range []string{
		`{}`, `[]`, `null`, `"x"`, `0`,
		`{"a":[],"b":{},"c":[{}],"d":[[],[1,{"e":null}]]}`,
		`{"s":"\"{[,:]}\"\\","t":"\\\\\"","u":" <&>"}`,
		" { \"a\" : [ 1 , 2 ] , \"b\" : { } } \n",
		`[{"k":"v","n":-1.5e10,"t":true,"f":false}]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		if !json.Valid(src) {
			return
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, src); err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := json.Indent(&want, src, "", " "); err != nil {
			t.Fatal(err)
		}
		// json.Indent keeps trailing whitespace, which compaction drops.
		wantBytes := bytes.TrimRight(want.Bytes(), " \t\r\n")
		if got := indent(nil, compact.Bytes()); !bytes.Equal(got, wantBytes) {
			t.Fatalf("indent(%q) = %q, want %q", compact.Bytes(), got, wantBytes)
		}
	})
}
