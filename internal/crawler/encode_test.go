package crawler

import (
	"bytes"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// TestSaveByteIdenticalToMarshalIndent pins Save's bytes to the
// json.MarshalIndent(d, "", " ") form earlier releases wrote, on every
// dataset shape: clean, filter-annotated and hostile crawls, every field
// set with strings that need escaping, an empty dataset, and one that
// fills several of the chunks Save writes. The bytes are those of a
// copy stamped with the current version; the dataset itself keeps the
// version it had.
func TestSaveByteIdenticalToMarshalIndent(t *testing.T) {
	shapes := datasetShapes(t)
	many := &Dataset{Seed: 1, StorageMode: "flat"}
	for range 40 {
		many.Iterations = append(many.Iterations, shapes["hostile"].Iterations...)
	}
	shapes["many"] = many
	for name, ds := range shapes {
		version := ds.Version
		got := saveBytes(t, ds)
		if name == "many" && len(got) < 3*saveChunk {
			t.Fatalf("many: %d bytes fill fewer than three chunks", len(got))
		}
		stamped := *ds
		stamped.Version = DatasetVersion
		want, err := json.MarshalIndent(&stamped, "", " ")
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
		if ds.Version != version {
			t.Fatalf("%s: Save changed the dataset's version from %d to %d", name, version, ds.Version)
		}
	}
	if !shapes["partitioned-filter"].FilterAnnotated {
		t.Fatal("filter dataset is not annotated")
	}
}

// TestConcurrentSaveByteIdentical: Save only reads the dataset, so two
// goroutines saving one dataset at once write the same bytes (and the
// race detector sees no write to it).
func TestConcurrentSaveByteIdentical(t *testing.T) {
	ds := datasetShapes(t)["hostile"]
	dir := t.TempDir()
	paths := []string{filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")}
	errs := make(chan error, len(paths))
	for _, path := range paths {
		go func() { errs <- ds.Save(path) }()
	}
	for range paths {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	a, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(paths[1])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) || !bytes.HasPrefix(a, []byte("{\n \"version\": 3,\n")) {
		t.Fatalf("concurrent saves wrote %d and %d bytes that differ or lack the version", len(a), len(b))
	}
}

// TestSaveNilIteration: a nil iteration, which json.Marshal would write
// as null and Load refuses, is an error whether or not the version is
// already stamped; nothing is written and the dataset is unchanged.
func TestSaveNilIteration(t *testing.T) {
	for _, version := range []int{0, DatasetVersion} {
		ds := &Dataset{Version: version, Iterations: []*Iteration{{Engine: "bing", ErrorClass: "dns"}, nil}}
		path := filepath.Join(t.TempDir(), "ds.json")
		if err := ds.Save(path); err == nil {
			t.Fatalf("version %d: Save accepted a nil iteration", version)
		}
		if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("version %d: Save wrote a file: %v", version, err)
		}
		if ds.Version != version {
			t.Fatalf("version %d: failed Save stamped version %d", version, ds.Version)
		}
	}
	if b, err := AppendIteration([]byte("x"), nil); err == nil || string(b) != "x" {
		t.Fatalf("AppendIteration(nil) = %q, %v; want x and an error", b, err)
	}
}

// plant appends an iteration with raw in every string field, as a
// cookie name and as a set-cookie name, and makes it the storage mode.
func plant(d *Dataset, raw string) {
	d.StorageMode = raw
	d.Iterations = append(d.Iterations, &Iteration{
		Engine: raw, EngineHost: raw, Instance: raw, Query: raw, FinalURL: raw, FinalReferrer: raw,
		SERPRequests: []RequestRecord{{URL: raw, Method: raw, Type: raw, FirstParty: raw, Initiator: raw, Referrer: raw,
			Cookies: map[string]string{raw: raw, raw + "\x00": "", "<": raw}}},
		SERPCookies:  []CookieRecord{{PartitionKey: raw, Domain: raw, Name: raw, Value: raw}},
		DisplayedAds: []AdRecord{{Href: raw, LandingDomain: raw}},
		Hops:         []HopRecord{{URL: raw, Location: raw, Mechanism: raw, SetCookieNames: []string{raw, ""}, FaultClass: raw}},
		LocalStorage: []StorageRecord{{PartitionKey: raw, Origin: raw, Key: raw, Value: raw}},
		Error:        raw, ErrorClass: raw, Outcome: raw,
	})
}

// FuzzSave holds the encoder to encoding/json on every Dataset
// json.Unmarshal accepts, with raw planted in its strings and cookie
// names (see plant) when it is not empty, and created_at set from sec,
// nsec and a zone offset when they are not zero: Save's bytes are
// json.MarshalIndent's, the compact iterations joined by commas (a
// checkpoint prefix) are json.Marshal's, Load's parse of Save's bytes
// is json.Unmarshal's, and Save fails exactly where json.Marshal does.
func FuzzSave(f *testing.F) {
	saved := savedShapes(f)
	for _, data := range saved {
		f.Add(data, "", int64(0), int64(0), 0)
	}
	for _, data := range refusedVersions() {
		f.Add(data, "", int64(0), int64(0), 0)
	}
	for _, seed := range []struct {
		raw        string
		sec, nsec  int64
		zoneOffset int
	}{
		// Invalid UTF-8, HTML characters, line separators, control bytes.
		{"\xff\xfe \xe3\x81 \xed\xa0\x80 \xc0\xaf", 1662000000, 0, 0},
		{`<script>"x" & 'y'</script> \ /`, 0, 0, 0},
		{"\u2028\u2029 \u00e9 \U0001F600 \ufffd", 0, 0, 0},
		{"\x00\x01\b\f\n\r\t\x1f\x7f", 0, 0, 0},
		// Nanoseconds, a non-UTC zone, years json.Marshal refuses.
		{"", 1662000000, 123456789, 2 * 3600},
		{"", 1662000000, 1000, -(5*3600 + 30*60)},
		{"", 253402300800, 0, 0},       // 10000-01-01
		{"", -62167219201, 0, 0},       // the year before year 0
		{"", 1662000000, 0, 24 * 3600}, // an offset RFC 3339 cannot write
	} {
		f.Add(saved["escaping"], seed.raw, seed.sec, seed.nsec, seed.zoneOffset)
	}
	f.Fuzz(func(t *testing.T, data []byte, raw string, sec, nsec int64, zoneOffset int) {
		d, err := unmarshalDataset(data)
		if err != nil {
			return
		}
		if raw != "" {
			plant(d, raw)
		}
		if sec != 0 || nsec != 0 || zoneOffset != 0 {
			d.CreatedAt = time.Unix(sec, nsec).In(time.FixedZone("", zoneOffset))
		}

		var prefix, wantPrefix []byte
		for i, it := range d.Iterations {
			if i > 0 {
				prefix, wantPrefix = append(prefix, ','), append(wantPrefix, ',')
			}
			if prefix, err = AppendIteration(prefix, it); err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(it)
			if err != nil {
				t.Fatal(err)
			}
			wantPrefix = append(wantPrefix, b...)
		}
		if !bytes.Equal(prefix, wantPrefix) {
			t.Fatalf("compact iterations differ from json.Marshal:\n%s\n%s", prefix, wantPrefix)
		}

		_, merr := json.Marshal(d)
		chunks, err := d.encode()
		if (err != nil) != (merr != nil) {
			t.Fatalf("Save error = %v, json.Marshal error = %v", err, merr)
		}
		if err != nil {
			return
		}
		saved := bytes.Join(chunks, nil)
		stamped := *d
		stamped.Version = DatasetVersion
		want, err := json.MarshalIndent(&stamped, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(saved, want) {
			t.Fatalf("Save differs from json.MarshalIndent:\n%s\n%s", saved, want)
		}
		got, err := parseDataset(saved)
		if err != nil {
			t.Fatalf("Load refuses Save's bytes: %v", err)
		}
		if ref, err := unmarshalDataset(saved); err != nil || !reflect.DeepEqual(got, ref) {
			t.Fatalf("Load of Save's bytes differs from json.Unmarshal's (%v)", err)
		}
	})
}

// BenchmarkSave times saving the hostile dataset BenchmarkLoad loads.
func BenchmarkSave(b *testing.B) {
	ds, path := hostileDataset(b)
	for b.Loop() {
		if err := ds.Save(path); err != nil {
			b.Fatal(err)
		}
	}
}
