package main

import (
	"bytes"
	"flag"
	"strings"
	"testing"
)

// setFlags sets command-line flags for one test and restores their
// previous values when it ends.
func setFlags(t *testing.T, values map[string]string) {
	t.Helper()
	for name, v := range values {
		f := flag.Lookup(name)
		if f == nil {
			t.Fatalf("no flag -%s", name)
		}
		old := f.Value.String()
		if err := flag.Set(name, v); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { flag.Set(name, old) })
	}
}

// TestRunTelemetry pins -telemetry on a fresh study: the report on
// stdout is byte-identical with and without it, and the latency table
// on stderr names both analysis stages.
func TestRunTelemetry(t *testing.T) {
	report := func(tele string) (stdout, stderr string) {
		setFlags(t, map[string]string{"engines": "bing,google", "queries": "3", "telemetry": tele})
		var out, errOut bytes.Buffer
		if code := run(&out, &errOut); code != 0 {
			t.Fatalf("run() with -telemetry=%s = %d: %s", tele, code, errOut.String())
		}
		return out.String(), errOut.String()
	}
	plain, plainErr := report("false")
	traced, table := report("true")
	if plain == "" || plain != traced {
		t.Fatalf("stdout differs with -telemetry (%d bytes, %d without)", len(traced), len(plain))
	}
	if plainErr != "" {
		t.Errorf("stderr without -telemetry: %q", plainErr)
	}
	for _, stage := range []string{"analysis_fold", "analysis_report"} {
		if !strings.Contains(table, stage) {
			t.Errorf("-telemetry table does not name %s:\n%s", stage, table)
		}
	}
}

// TestRunTelemetryWithDatasetExits2 pins -telemetry with -in as a usage
// error, refused before the dataset is read.
func TestRunTelemetryWithDatasetExits2(t *testing.T) {
	setFlags(t, map[string]string{"in": "no-such-dataset.json", "telemetry": "true"})
	var out, errOut bytes.Buffer
	if code := run(&out, &errOut); code != 2 {
		t.Fatalf("run() = %d, want 2", code)
	}
	if out.Len() != 0 || !strings.Contains(errOut.String(), "FoldSharded") {
		t.Fatalf("stdout %q, stderr %q", out.String(), errOut.String())
	}
}
