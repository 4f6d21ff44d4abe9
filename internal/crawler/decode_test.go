package crawler

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"searchads/internal/filterlist"
	"searchads/internal/netsim"
	"searchads/internal/storage"
	"searchads/internal/websim"
)

// hostileConfig is a crawl under bot-hostile faults, a strict adversary
// and the full countermeasure bundle: failed iterations, error classes,
// per-hop retries and the arms-race outcome fields all appear in it.
func hostileConfig(tb testing.TB, seed int64, engines []string, queries int) Config {
	tb.Helper()
	rates, err := netsim.ProfileRates("bot-hostile", 0.05)
	if err != nil {
		tb.Fatal(err)
	}
	adv, err := netsim.PostureConfig("strict")
	if err != nil {
		tb.Fatal(err)
	}
	cm, err := CountermeasureBundle("full")
	if err != nil {
		tb.Fatal(err)
	}
	w := websim.NewWorld(websim.Config{Seed: seed, Engines: engines, QueriesPerEngine: queries,
		Faults: netsim.FaultPlan{Rates: rates, Adversary: adv}})
	return Config{World: w, Countermeasures: cm}
}

// saveBytes returns the bytes Save writes for ds.
func saveBytes(tb testing.TB, ds *Dataset) []byte {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "ds.json")
	if err := ds.Save(path); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// datasetShapes are datasets of every shape the golden report corpus
// covers — baseline, partitioned with filter annotations, bot-hostile
// with adversary and countermeasures — plus one with every field set
// and strings that need escaping, and an empty one.
func datasetShapes(tb testing.TB) map[string]*Dataset {
	tb.Helper()
	crawl := func(cfg Config) *Dataset {
		ds, err := New(cfg).Run(context.Background())
		if err != nil {
			tb.Fatal(err)
		}
		return ds
	}
	engines := []string{"google", "bing", "duckduckgo"}
	return map[string]*Dataset{
		"baseline": crawl(Config{World: websim.NewWorld(websim.Config{Seed: 101, Engines: engines, QueriesPerEngine: 1})}),
		"partitioned-filter": crawl(Config{World: websim.NewWorld(websim.Config{Seed: 202, Engines: engines, QueriesPerEngine: 1}),
			StorageMode: storage.Partitioned, Filter: filterlist.DefaultEngine()}),
		"hostile": crawl(hostileConfig(tb, 328, engines, 1)),
		"escaping": {Seed: -1, StorageMode: "flat", FilterAnnotated: true, Iterations: []*Iteration{{
			Engine: "bing", Query: `<b>"fish" & chips</b> \ 日本 ` + "\u2028\u2029\x01\t\U0001F600", ClickedAd: -1,
			SERPRequests: []RequestRecord{{URL: "https://x.example/?a=1&b=<2>", Referrer: "r", ThirdParty: true,
				Cookies: map[string]string{"z": "}", "a": "{[", "": ""}}},
			SERPCookies:  []CookieRecord{{PartitionKey: "p", Domain: "d", Name: "n", Value: "v"}},
			DisplayedAds: []AdRecord{}, Hops: []HopRecord{{URL: `https://y.example/"\"`, Status: 302, Location: "l",
				SetCookieNames: []string{}, Retries: 2, FaultClass: "timeout"}},
			LocalStorage:        []StorageRecord{{PartitionKey: "p", Origin: "o", Key: "k", Value: "\x00"}},
			RevisitCookies:      []CookieRecord{{Domain: "d"}},
			RevisitLocalStorage: []StorageRecord{{Origin: "o"}},
			SERPTrackerCount:    1, ClickTrackerCount: 2, DestTrackerCount: 3,
			Error: "e", ErrorClass: "dns", Outcome: "lost", Rotations: 4, CaptchaSolves: 5,
		}}},
		"empty": {},
	}
}

// savedShapes are the bytes Save writes for each of datasetShapes.
func savedShapes(tb testing.TB) map[string][]byte {
	tb.Helper()
	shapes := map[string][]byte{}
	for name, ds := range datasetShapes(tb) {
		shapes[name] = saveBytes(tb, ds)
	}
	return shapes
}

// refusedVersions are hand-written dataset files whose schema version
// Load refuses: saved by earlier releases (no version key, 1, 2) or by
// a newer one.
func refusedVersions() map[string][]byte {
	const rest = `"seed":7,"storage_mode":"flat","created_at":"2022-09-01T00:00:00Z","iterations":[{"engine":"bing",` +
		`"engine_host":"www.bing.com","index":0,"instance":"bing-0000","query":"q0","clicked_ad":-1,` +
		`"error":"serp: injected tls fault for ads.bing.com","error_class":"tls"}]}`
	return map[string][]byte{
		"no version": []byte(`{` + rest),
		"version 1":  []byte(`{"version":1,` + rest),
		"version 2":  []byte(`{"version":2,` + rest),
		"version 4":  []byte(`{"version":4,` + rest),
	}
}

// unmarshalDataset is the reference Load is held to: json.Unmarshal,
// plus the one intended divergence — a null iteration is an error.
func unmarshalDataset(data []byte) (*Dataset, error) {
	var d Dataset
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, err
	}
	if slices.Contains(d.Iterations, nil) {
		return nil, errors.New("null iteration")
	}
	return &d, nil
}

// TestLoadFastPath: every saved shape is read by the single-pass
// decoder, with no encoding/json fallback, into the Dataset
// json.Unmarshal decodes from the same bytes.
func TestLoadFastPath(t *testing.T) {
	for name, data := range savedShapes(t) {
		got, ok := decodeDataset(data)
		if !ok {
			t.Errorf("%s: the decoder fell back to encoding/json", name)
			continue
		}
		want, err := unmarshalDataset(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: decoded dataset differs from json.Unmarshal's", name)
		}
	}
}

// FuzzLoad holds Load's parse step to json.Unmarshal on any bytes: the
// same Dataset, nil and empty included, or an error from both. A null
// iteration is an error on both sides.
func FuzzLoad(f *testing.F) {
	for _, data := range savedShapes(f) {
		f.Add(data)
	}
	for _, data := range refusedVersions() {
		f.Add(data)
	}
	for _, seed := range []string{
		// Escapes, surrogate pairs, lone surrogates, U+2028.
		`{"storage_mode":"a\u0026b\u003c\u003e\u2028\u2029\ufffd\"\\\/\b\f\n\r\t\u0000"}`,
		`{"storage_mode":"\ud83d\ude00 \ud800 \udc00x \ud800\ud800 \ud800\u0041 \uDBFF\uDFFF"}`,
		"{\"storage_mode\":\"\u2028 raw \u00e9 \U0001F600\"}",
		`{"storage_mode":"bad escape \x"}`, `{"storage_mode":"\u12"}`, `{"storage_mode":"\ud800\u12"}`,
		// Invalid UTF-8, inside and outside strings.
		"{\"storage_mode\":\"\xff\xfe \xe3\x81 \xed\xa0\x80 \xc0\xaf\"}",
		"{\"iterations\":[{\"serp_requests\":[{\"cookies\":{\"\xff\":\"\xe3\"}}]}]}",
		"{\"seed\":1}\xff", "\xef\xbb\xbf{}", "{\"storage_mode\":\"tab\there\"}",
		// Case-folded, escaped and unknown keys.
		`{"SEED":1}`, `{"Storage_Mode":"x"}`, `{"iterations":[{"ENGINE":"x","Hops":[{"URL":"u"}]}]}`,
		"{\"\u017feed\":3}", `{"se\u0065d":2}`, `{"extra":{"a":[1,2,{"b":null}]},"seed":1}`,
		`{"iterations":[{"serp_requests":[{"url":"u","other":true}]}]}`,
		// Repeated keys, in structs and in the cookie map.
		`{"seed":1,"seed":2}`, `{"seed":1,"seed":null}`,
		`{"iterations":[{"hops":[{"url":"a","status":301}],"hops":[{"url":"b"}]}]}`,
		`{"iterations":[{"serp_requests":[{"cookies":{"a":"1","a":"2","b":null}}]}]}`,
		// null in every position.
		`null`, ` null `, `{"iterations":[null]}`, `{"iterations":[{},null]}`, `{"iterations":null}`,
		`{"version":null,"seed":null,"storage_mode":null,"created_at":null,"filter_annotated":null,"iterations":[]}`,
		`{"iterations":[{"engine":null,"index":null,"serp_requests":[null,{"url":null,"third_party":null,"cookies":null}],` +
			`"serp_cookies":[null],"displayed_ads":[null],"hops":[null,{"set_cookie_names":[null,"a"],"status":null}],` +
			`"local_storage":[null],"revisit_cookies":null,"revisit_local_storage":null,"click_requests":null}]}`,
		`{"iterations":[{"serp_requests":[],"displayed_ads":[],"hops":[{"set_cookie_names":[]}],"serp_requests":[{"cookies":{}}]}]}`,
		// Numbers: floats, exponents, signs, leading zeros, overflow.
		`{"seed":1.0}`, `{"seed":1e3}`, `{"seed":-0}`, `{"seed":01}`, `{"seed":-}`, `{"seed":+1}`,
		`{"seed":9223372036854775807}`, `{"seed":9223372036854775808}`, `{"seed":-9223372036854775808}`,
		`{"iterations":[{"index":1.5,"clicked_ad":-1}]}`, `{"iterations":[{"hops":[{"status":3e2}]}]}`,
		`{"iterations":[{"rotations":99999999999999999999}]}`,
		// Other types where a field wants one kind.
		`{"seed":"1"}`, `{"storage_mode":1}`, `{"filter_annotated":1}`, `{"iterations":{}}`, `[]`, `"x"`, `1`,
		`{"iterations":[1]}`, `{"iterations":[{"serp_requests":[1]}]}`, `{"iterations":[{"serp_requests":[{"cookies":{"a":1}}]}]}`,
		// Times.
		`{"created_at":"2022-09-01T00:00:00+02:00"}`, `{"created_at":"2022-09-01T00:00:00.123456789Z"}`,
		`{"created_at":"yesterday"}`, `{"created_at":5}`, `{"created_at":"2022\u002d09-01T00:00:00Z"}`,
		// Whitespace and trailing bytes.
		" \t\r\n{ \"seed\" : 1 , \"iterations\" : [ { } ] } \n", `{"seed":1} x`, `{"seed":1}{}`, `{"seed":1},`,
		``, ` `, `{`, `{"seed":1`, `{"seed":1,}`, `{"iterations":[{},]}`, `{"iterations":[{}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, werr := unmarshalDataset(data)
		if got, ok := decodeDataset(data); ok {
			if werr != nil {
				t.Fatalf("decoder accepted %q, json.Unmarshal refused it: %v", data, werr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("decoder and json.Unmarshal disagree on %q:\n%+v\n%+v", data, got, want)
			}
		}
		got, err := parseDataset(data)
		if (err != nil) != (werr != nil) {
			t.Fatalf("parseDataset(%q) error = %v, json.Unmarshal error = %v", data, err, werr)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("parseDataset(%q) differs from json.Unmarshal", data)
		}
	})
}

// hostileDataset returns a saved 180-iteration hostile dataset, the
// shape and size the hostile-batch bench workload saves and reloads
// each op, and the path it is saved at. It sets b's bytes per op to the
// file's size and reports allocations.
func hostileDataset(b *testing.B) (*Dataset, string) {
	b.Helper()
	ds, err := New(hostileConfig(b, 5, []string{"bing", "google", "duckduckgo"}, 60)).Run(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "ds.json")
	if err := ds.Save(path); err != nil {
		b.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(info.Size())
	b.ReportAllocs()
	return ds, path
}

// BenchmarkLoad times loading the hostile dataset.
func BenchmarkLoad(b *testing.B) {
	_, path := hostileDataset(b)
	for b.Loop() {
		if _, err := Load(path); err != nil {
			b.Fatal(err)
		}
	}
}
